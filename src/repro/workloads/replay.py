"""Trace replay utilities: persist and replay tuple streams.

The paper's dataset experiments replay traces "from disk into Pulse" at
controlled rates; these helpers write generated workloads to CSV traces
and read them back, so benchmark runs are reproducible and the
generation cost is excluded from the measured path.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..core.errors import TraceError
from ..engine.metrics import get_counter
from ..engine.tuples import StreamTuple


def write_trace(
    path: str | Path, tuples: Iterable[StreamTuple], fields: Sequence[str]
) -> int:
    """Write tuples to a CSV trace; returns the row count.

    A tuple lacking one of the declared ``fields`` raises a typed
    :class:`TraceError` carrying the 1-based row number and the missing
    field name.  Output written before the bad tuple is flushed to disk
    deterministically first — the trace on disk is always exactly the
    header plus every complete row that preceded the failure, so a
    partial export is resumable and never ends mid-row.
    """
    path = Path(path)
    count = 0
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for tup in tuples:
            try:
                row = [tup[field] for field in fields]
            except KeyError as exc:
                f.flush()
                missing = exc.args[0] if exc.args else "?"
                raise TraceError(
                    f"tuple missing declared field {missing!r}",
                    row=count + 1,
                    field=str(missing),
                ) from exc
            writer.writerow(row)
            count += 1
    return count


def read_trace(
    path: str | Path,
    numeric_fields: Sequence[str] | None = None,
    strict: bool = False,
    on_skip: Callable[[int, list[str], Exception], None] | None = None,
) -> Iterator[StreamTuple]:
    """Replay a CSV trace written by :func:`write_trace`.

    ``numeric_fields`` lists columns parsed as floats; by default every
    column except ``id`` and ``symbol`` is numeric.

    Real traces carry damage: truncated rows, unparsable numbers, field
    counts that disagree with the header.  By default such rows are
    *skipped* — counted in the ``replay.skipped_rows`` metrics counter
    and reported to ``on_skip(row_number, row, error)`` when given — so
    one bad row cannot kill a replay mid-run.  With ``strict=True``
    the first malformed row raises a typed :class:`TraceError` carrying
    the 1-based data-row number instead.

    Non-finite numerics (``nan`` / ``inf`` / ``-inf``) *parse* under
    ``float()`` but poison segment fitting downstream of the solver's
    coefficient guard, so they count as damage too: skipped (and
    additionally counted in ``replay.nonfinite_rows``) by default,
    :class:`TraceError` under ``strict=True``.  The network ingest path
    applies the same finite-check in
    :func:`repro.server.protocol.validate_columns`.
    """
    path = Path(path)
    skipped = get_counter("replay.skipped_rows")
    nonfinite = get_counter("replay.nonfinite_rows")
    with path.open(newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"trace {path} has no header row")
        if numeric_fields is None:
            numeric = [h for h in header if h not in ("id", "symbol")]
        else:
            numeric = list(numeric_fields)
            unknown = [n for n in numeric if n not in header]
            if unknown:
                # A numeric field the header does not declare is a
                # configuration error, not row damage: raise in both
                # modes rather than silently parsing nothing.
                raise TraceError(
                    f"numeric fields {unknown} not in trace header "
                    f"{header}"
                )
        numeric_set = set(numeric)
        for number, row in enumerate(reader, start=1):
            if not row:
                continue  # blank line, not data damage
            finite_damage = False
            try:
                if len(row) != len(header):
                    raise ValueError(
                        f"expected {len(header)} fields, got {len(row)}"
                    )
                values: dict[str, object] = {}
                for field, raw in zip(header, row):
                    if field in numeric_set:
                        parsed = float(raw)
                        if not math.isfinite(parsed):
                            finite_damage = True
                            raise ValueError(
                                f"non-finite value {raw!r} in "
                                f"field {field!r}"
                            )
                        values[field] = parsed
                    else:
                        values[field] = raw
            except (ValueError, IndexError) as exc:
                if strict:
                    raise TraceError(
                        f"malformed trace row: {exc}", row=number
                    ) from exc
                skipped.bump()
                if finite_damage:
                    nonfinite.bump()
                if on_skip is not None:
                    on_skip(number, row, exc)
                continue
            yield StreamTuple(values)


def take(iterator: Iterable, count: int) -> list:
    """Materialize the first ``count`` items."""
    out = []
    for item in iterator:
        out.append(item)
        if len(out) >= count:
            break
    return out
