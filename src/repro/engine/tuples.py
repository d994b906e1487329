"""Tuples and schemas for the discrete (baseline) stream engine.

The paper evaluates Pulse against a conventional tuple-at-a-time stream
processor (Borealis).  This module provides that engine's datatypes: a
lightweight tuple carrying a timestamp plus named attributes, and a
schema describing a stream's attributes, key fields and temporal fields
(Section II-B's reference/delta attributes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


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
