"""Tuples and schemas for the discrete (baseline) stream engine.

The paper evaluates Pulse against a conventional tuple-at-a-time stream
processor (Borealis).  This module provides that engine's datatypes: a
lightweight tuple carrying a timestamp plus named attributes, a
column-wise batch of such tuples (the unit ingest moves in), and a
schema describing a stream's attributes, key fields and temporal fields
(Section II-B's reference/delta attributes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence


class StreamTuple(dict):
    """One stream element: a timestamped bag of named attribute values.

    A plain ``dict`` subclass: attribute access stays dictionary-style
    (``t["price"]``) so predicate evaluation can reuse
    :meth:`Expr.evaluate` directly; the timestamp is the reserved
    ``time`` field.
    """

    __slots__ = ()

    TIME_FIELD = "time"

    @property
    def time(self) -> float:
        return self[self.TIME_FIELD]

    def key(self, key_fields: Iterable[str]) -> tuple:
        """The tuple's key under the given key fields."""
        return tuple(map(self.__getitem__, key_fields))

    def env(self, alias: str | None = None) -> dict[str, object]:
        """An attribute environment for expression evaluation.

        With an alias, attributes are exposed both qualified
        (``S.price``) and bare (``price``).
        """
        if alias is None:
            return dict(self)
        out: dict[str, object] = dict(self)
        for k, v in self.items():
            out[f"{alias}.{k}"] = v
        return out


class ColumnBatch:
    """A batch of stream tuples held column-wise.

    ``columns`` maps each field name to one list holding that field's
    value for every row; ``None`` marks a row that lacks the field.
    This is the form ingest travels in from the wire to the fitting
    builders and into the WAL: a continuous graph reads the columns it
    models directly, and a row becomes a :class:`StreamTuple` only
    where a discrete plan consumes one (:meth:`rows`).
    """

    __slots__ = ("columns", "size")

    def __init__(self, columns: dict[str, list], size: int | None = None):
        self.columns = columns
        if size is None:
            size = len(next(iter(columns.values()), ()))
        self.size = size

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping]) -> "ColumnBatch":
        """Transpose rows once; a field a row lacks (or holds ``None``
        in) is ``None`` in that row's slot.  Columns follow the order in
        which their fields first appear."""
        names = dict.fromkeys(chain.from_iterable(rows))
        return cls(
            {name: [row.get(name) for row in rows] for name in names},
            len(rows),
        )

    def __len__(self) -> int:
        return self.size

    def column(self, name: str) -> list:
        """One field's values; all ``None`` when no row carries it."""
        values = self.columns.get(name)
        return [None] * self.size if values is None else values

    def zipped(self, names: Sequence[str]) -> list[tuple]:
        """Per row, the tuple of the named fields' values (``None``
        where absent; ``()`` for every row when ``names`` is empty)."""
        if not names:
            return [()] * self.size
        return list(zip(*(self.column(name) for name in names)))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """The rows at ``indices``, in that order."""
        return ColumnBatch(
            {
                name: [values[i] for i in indices]
                for name, values in self.columns.items()
            },
            len(indices),
        )

    def rows(self) -> list[StreamTuple]:
        """Every row as a :class:`StreamTuple`, absent fields left out."""
        names = list(self.columns)
        cols = list(self.columns.values())
        if not cols:
            return [StreamTuple() for _ in range(self.size)]
        if any(None in values for values in cols):
            return [
                StreamTuple(
                    (name, value)
                    for name, value in zip(names, values)
                    if value is not None
                )
                for values in zip(*cols)
            ]
        return [StreamTuple(zip(names, values)) for values in zip(*cols)]


@dataclass(frozen=True)
class Schema:
    """Stream schema: attribute names plus key/temporal designations.

    Parameters
    ----------
    attributes:
        All attribute names (including the time field).
    key_fields:
        Discrete, unique attributes identifying entities (Section II-B's
        key attributes), e.g. ``("symbol",)`` or ``("vessel_id",)``.
    time_field:
        The reference timestamp attribute (monotonically increasing,
        globally synchronized).
    """

    attributes: tuple[str, ...]
    key_fields: tuple[str, ...] = ()
    time_field: str = StreamTuple.TIME_FIELD

    def __post_init__(self) -> None:
        missing = [k for k in self.key_fields if k not in self.attributes]
        if missing:
            raise ValueError(f"key fields {missing} not in attributes")
        if self.time_field not in self.attributes:
            raise ValueError(
                f"time field {self.time_field!r} not in attributes"
            )

    @property
    def value_fields(self) -> tuple[str, ...]:
        """Attributes that are neither keys nor the timestamp."""
        special = set(self.key_fields) | {self.time_field}
        return tuple(a for a in self.attributes if a not in special)

    def make_tuple(self, values: Mapping[str, object]) -> StreamTuple:
        """Validate and build a tuple for this schema."""
        missing = [a for a in self.attributes if a not in values]
        if missing:
            raise ValueError(f"tuple missing attributes {missing}")
        return StreamTuple(values)


@dataclass(frozen=True)
class StreamDef:
    """A named stream with its schema (the engine's catalog entry)."""

    name: str
    schema: Schema
