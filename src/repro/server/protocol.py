"""Wire protocol: newline-delimited JSON over TCP (version 2).

Every message is one JSON object on one ``\\n``-terminated line, UTF-8
encoded.  Requests carry an ``op`` and an optional ``id`` the server
echoes back, so clients can match responses while unsolicited pushes
(results, alerts) interleave freely.

Client -> server requests::

    {"op": "hello", "id": 1, "backpressure": "shed-newest"?}
    {"op": "register", "id": 2, "name": "q1", "query": "select ...",
     "fit": {"attrs": ["x"], "key_fields": ["id"], "constants": []}?}
    {"op": "subscribe", "id": 3, "query": "q1",
     "mode": "continuous"|"discrete", "error_bound": 0.05?}
    {"op": "unsubscribe", "id": 4, "subscription": 7}
    {"op": "attach", "id": 9, "subscription": 7, "from_cursor": 42?}
    {"op": "ingest", "id": 5, "stream": "objects",
     "columns": {"time": {"f64": "AAAAAAAAAAA..."}, "id": ["a", ...],
                 "x": {"f64": "..."}}}
    {"op": "flush", "id": 6}
    {"op": "stats", "id": 7}

**Ingest is columnar (the version-2 change).**  A batch is one column
per field, every column one value per row.  A column whose values are
all floats travels packed, ``{"f64": <base64 of little-endian
float64>}``: bit-exact (``-0.0`` and subnormals included) and parsed
with no per-value JSON work.  Any other column (strings, integers,
booleans, mixed types) is a JSON list, where ``null`` means the row
lacks that field.  The version-1 row form (``"tuples": [{...}, ...]``)
is refused with a typed ``protocol`` error, never half-accepted.

Server -> client responses (``id`` echoed) and pushes (no ``id``)::

    {"type": "hello", "id": 1, "server": "pulse-repro", "protocol": 2,
     "queries": [...], "streams": [...]}
    {"type": "ack", "id": ..., ...op-specific fields...}
    {"type": "ack", "id": 5, "stream": "objects", "accepted": n,
     "rejected": n, "rejected_nonfinite": n, "blocked": n, "shed": n,
     "no_consumer": n, "fit_rejected": n,
     "first_rejected": {"row": i, "code": ..., "error": ...}?}
    {"type": "error", "id": ..., "code": "protocol"|"plan"|"server",
     "error": "..."}
    {"type": "result", "subscription": 7, "query": "q1",
     "mode": "continuous", "graph": "q1~c", "seq": 0, "cursor": 0,
     "results": [...]}
    {"type": "alert", "kind": "slow_solve", ...}
    {"type": "backpressure", "policy": ..., "shed": n, "blocked": n,
     "dropped_results": n}
    {"type": "breaker", "open": [["q1", ["key"]], ...]}

Subscriptions to one query share a single operator graph (the ``ack``
names it in ``graph`` and reports the graph's current ``solve_bound``
next to the subscription's own ``error_bound``); each ``result`` push
carries the subscription id plus that subscription's ``cursor`` — its
durable per-subscription delivery offset.  ``attach`` re-binds a
subscription that survived a server restart (sessions are ephemeral;
subscriptions and their cursors are durable) to the calling session.

**Fleet fields.**  Multi-node deployments put the router
(:mod:`.router`) between clients and N key-partitioned worker
servers; the fields that exist for its sake are usable by any client:

* ``attach`` may carry ``from_cursor``; against a server running with
  result retention (``retain_results``), the ack then carries
  ``replayed`` — the serialized outputs at cursor positions
  ``[from_cursor, cursor)``, re-delivered so a delivery stream torn by
  a crash resumes with no gap.  ``from_cursor`` older than the
  retention window is a typed ``plan`` error, never a silent gap.
* The router's own ``hello`` ack adds ``workers`` (fleet width) and
  ``role: "router"``; its ``result`` pushes carry ``seq`` — the
  router-merged global result sequence for that subscription.

Results are serialized segments in continuous mode (``key``,
``t_start``, ``t_end``, ``models`` mapping attribute -> ascending
coefficient list, ``constants``) and plain tuple objects in discrete
mode.  JSON floats round-trip exactly (``repr`` precision), which is
what makes the loopback parity tests bit-exact.

**The finite boundary.**  Python's ``json`` parses the non-standard
``NaN`` / ``Infinity`` / ``-Infinity`` literals into non-finite floats
by default, and a packed column can carry any float64 bit pattern, so
the moment tuples arrive off the wire the replay bug fixed in
:func:`repro.workloads.replay.read_trace` would become remotely
triggerable.  :func:`validate_columns` applies the same rule, one pass
per column (one C-level ``math.isfinite`` sweep for a packed one): a
row holding a non-finite numeric is rejected (code ``nonfinite``), a
row with a missing or non-numeric ``time`` or a nested value is
rejected as malformed (which wins when a row has both faults), each
rejected row is counted, and the engine never sees it.  Faults of the
batch itself (ragged columns, bad base64, a packed length that is not
a multiple of 8 bytes, no ``time`` column) are one typed error naming
the column.  On the way out, :func:`encode` sets ``allow_nan=False`` so a non-finite value can never be *emitted*
silently either — the engine's own guards make that unreachable, and
if they ever regress the server fails loudly instead of shipping
``NaN`` to clients.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from array import array
from typing import Mapping, Sequence

from ..core.errors import PulseError
from ..core.segment import Segment
from ..engine.tuples import ColumnBatch, StreamTuple

#: Bumped when the wire format changes incompatibly.  2: ``ingest``
#: carries ``columns`` in place of row objects.
PROTOCOL_VERSION = 2

SERVER_NAME = "pulse-repro"

#: Every request op the server understands.
OPS = (
    "hello",
    "register",
    "subscribe",
    "unsubscribe",
    "attach",
    "ingest",
    "flush",
    "checkpoint",
    "stats",
)

#: Subscription modes (the two engine paths).
MODES = ("continuous", "discrete")


class ProtocolError(PulseError):
    """A wire message violates the protocol; carries an error ``code``."""

    def __init__(self, message: str, code: str = "protocol"):
        self.code = code
        super().__init__(message)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode(message: Mapping) -> bytes:
    """One message -> one UTF-8 JSON line (strictly finite floats)."""
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """One received line -> message object.

    Non-object payloads and invalid JSON raise :class:`ProtocolError`;
    non-finite float literals *parse* here (stock ``json.loads``
    behaviour) and are rejected per row by :func:`validate_columns`, so
    one poisoned tuple costs one rejection, not the whole batch.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def validate_request(obj: dict) -> str:
    """Check the request envelope; returns the ``op``."""
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request has no 'op' field")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known ops: {list(OPS)}")
    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("'id' must be an integer or string")
    return op


# ----------------------------------------------------------------------
# columns: the ingest boundary
# ----------------------------------------------------------------------
#: JSON scalar types admissible as tuple attribute values.
_SCALARS = (bool, int, float, str)
#: Types of a list column that can hold no non-finite value.
_ALWAYS_FINITE = {str, int, bool, type(None)}
_FLOAT_ONLY = {float}
_BIG_ENDIAN = sys.byteorder == "big"


def pack_columns(columns: Mapping[str, Sequence]) -> dict:
    """Columns in their wire form.

    A column whose values are all exactly ``float`` is packed as
    little-endian float64 bytes in base64 (bit-exact, non-finite bits
    included: the server's finite check rejects those rows); any other
    column goes as a JSON list, ``None`` standing for an absent field.
    """
    wire: dict = {}
    for name, values in columns.items():
        if values and set(map(type, values)) == _FLOAT_ONLY:
            packed = array("d", values)
            if _BIG_ENDIAN:
                packed.byteswap()
            wire[name] = {"f64": base64.b64encode(packed).decode("ascii")}
        else:
            wire[name] = list(values)
    return wire


def _unpack_f64(name: str, column: dict) -> list[float]:
    payload = column.get("f64")
    if len(column) != 1 or not isinstance(payload, str):
        raise ProtocolError(
            f"column {name!r}: a packed column is {{\"f64\": <base64>}}"
        )
    try:
        raw = base64.b64decode(payload, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError(f"column {name!r}: bad base64: {exc}") from exc
    if len(raw) % 8:
        raise ProtocolError(
            f"column {name!r}: {len(raw)} bytes is not a whole number of "
            f"float64 values"
        )
    packed = array("d")
    packed.frombytes(raw)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tolist()


def _nonfinite_message(name: str, value: float) -> str:
    return f"non-finite value {value!r} in field {name!r}"


def validate_columns(
    columns: object,
) -> tuple[ColumnBatch, dict[int, ProtocolError]]:
    """Validate one ingest batch; returns ``(accepted rows, rejections)``.

    ``rejections`` maps each rejected row's index in the batch to its
    typed error.  Per row, enforced before anything reaches the engine:

    * ``time`` is present and numeric (not a boolean) — else malformed;
    * every value is a JSON scalar or ``null`` (absent) — else
      malformed;
    * every float is finite — ``NaN``/``Infinity`` literals that
      ``json.loads`` admits, and such bits in a packed column, are
      rejected with code ``nonfinite``, exactly like the CSV replay path
      rejects ``nan``/``inf`` text.

    A row with both kinds of fault counts as malformed.  Each column is
    checked in one pass: a packed column by one C-level ``math.isfinite``
    sweep (the stdlib, not NumPy, whose fixed cost per call dominates
    the one- and two-row runs a router forwards), a list column of
    strings/integers/booleans not value by value at all.
    Faults of the batch as a whole raise one :class:`ProtocolError`
    naming the column: not a JSON object, a column neither a list nor a
    packed object, bad base64 or a packed length that is not a multiple
    of 8, ragged columns, no ``time`` column.
    """
    if not isinstance(columns, dict):
        raise ProtocolError("'columns' must be a JSON object of columns")
    time_field = StreamTuple.TIME_FIELD
    if time_field not in columns:
        raise ProtocolError(f"ingest batch has no {time_field!r} column")
    decoded: dict[str, list] = {}
    size: int | None = None
    malformed: dict[int, ProtocolError] = {}
    nonfinite: dict[int, ProtocolError] = {}
    for name, column in columns.items():
        packed = isinstance(column, dict)
        if packed:
            values = _unpack_f64(name, column)
        elif isinstance(column, list):
            values = column
        else:
            raise ProtocolError(
                f"column {name!r} must be a list or a packed "
                f"{{\"f64\": ...}} object, got {type(column).__name__}"
            )
        if size is None:
            size = len(values)
        elif len(values) != size:
            raise ProtocolError(
                f"ragged columns: column {name!r} has {len(values)} rows, "
                f"the first column has {size}"
            )
        decoded[name] = values
        if packed:
            # One C-level pass; the rows are found only when it fails.
            if not all(map(math.isfinite, values)):
                for i, value in enumerate(values):
                    if not math.isfinite(value):
                        nonfinite.setdefault(
                            i, ProtocolError(
                                _nonfinite_message(name, value),
                                code="nonfinite",
                            )
                        )
            continue
        is_time = name == time_field
        if not is_time and set(map(type, values)) <= _ALWAYS_FINITE:
            continue
        for i, value in enumerate(values):
            if is_time and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                malformed.setdefault(
                    i, ProtocolError(f"row has no numeric {time_field!r} field")
                )
            elif value is not None and not isinstance(value, _SCALARS):
                malformed.setdefault(
                    i, ProtocolError(
                        f"field {name!r} must be a JSON scalar, got "
                        f"{type(value).__name__}"
                    )
                )
            elif isinstance(value, float) and not math.isfinite(value):
                nonfinite.setdefault(
                    i, ProtocolError(
                        _nonfinite_message(name, value), code="nonfinite"
                    )
                )
    batch = ColumnBatch(decoded, size)
    rejected = {**nonfinite, **malformed}
    if rejected:
        batch = batch.take([i for i in range(size) if i not in rejected])
    return batch, rejected


def validate_ingest(obj: dict) -> tuple[ColumnBatch, dict[int, ProtocolError]]:
    """The ``columns`` of an ``ingest`` request through
    :func:`validate_columns`; the version-1 row form is refused."""
    if "tuples" in obj:
        raise ProtocolError(
            f"row-form 'tuples' is protocol version 1; ingest carries "
            f"'columns' since version 2 (this server speaks version "
            f"{PROTOCOL_VERSION})"
        )
    return validate_columns(obj.get("columns"))


def rejection_fields(rejected: Mapping[int, ProtocolError]) -> dict:
    """The ack's rejection counts, plus the first rejected row (its
    index in the batch, code and reason) when there is one."""
    fields: dict = {
        "rejected": len(rejected),
        "rejected_nonfinite": sum(
            1 for exc in rejected.values() if exc.code == "nonfinite"
        ),
    }
    if rejected:
        row = min(rejected)
        fields["first_rejected"] = {
            "row": row,
            "code": rejected[row].code,
            "error": str(rejected[row]),
        }
    return fields


# ----------------------------------------------------------------------
# results: the emit boundary
# ----------------------------------------------------------------------
def serialize_tuple(tup: Mapping) -> dict:
    """A discrete result tuple as a plain JSON object."""
    return dict(tup)


def serialize_segment(seg: Segment) -> dict:
    """A continuous result segment as a JSON object.

    Model polynomials ship as ascending coefficient lists (the
    :class:`~repro.core.polynomial.Polynomial` constructor's form), so
    a client can reconstruct and evaluate them; ``seg_id``/``lineage``
    are process-local identities and deliberately stay home.
    """
    return {
        "key": list(seg.key),
        "t_start": seg.t_start,
        "t_end": seg.t_end,
        "models": {
            attr: [float(c) for c in poly.coeffs]
            for attr, poly in seg.models.items()
        },
        "constants": dict(seg.constants),
    }


def serialize_results(outputs: list) -> list[dict]:
    """Serialize a drained output batch (segments and/or tuples)."""
    return [
        serialize_segment(out)
        if isinstance(out, Segment)
        else serialize_tuple(out)
        for out in outputs
    ]


def error_response(req_id, exc: Exception) -> dict:
    """Map an exception to an ``error`` response message."""
    if isinstance(exc, ProtocolError):
        code = exc.code
    elif isinstance(exc, PulseError):
        code = "plan"
    else:
        code = "server"
    msg: dict = {"type": "error", "code": code, "error": str(exc)}
    if req_id is not None:
        msg["id"] = req_id
    return msg
