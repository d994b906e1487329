"""Hash-based group-by for continuous aggregates (Fig. 3, last row).

``ContinuousGroupBy`` partitions the segment stream by a grouping key and
maintains one aggregate-operator instance per group ("per group state for
f, impl for f per group").  The grouping key defaults to the segments'
key attributes, which matches the paper's functional-dependency property:
modeled attributes are functional dependents of keys throughout the
dataflow (Property 2, Section IV-B).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from ..segment import Key, Segment
from .base import ContinuousOperator


def segment_key(segment: Segment) -> Key:
    """Default grouping key: the segment's own key attributes.

    A module-level function (not a lambda) so plans holding a group-by
    stay picklable for durability snapshots.
    """
    return segment.key


class ContinuousGroupBy(ContinuousOperator):
    """Per-group fan-out of an aggregate operator.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh aggregate operator for a
        new group (e.g. ``lambda: ContinuousSumAggregate("price", 60)``).
    group_key:
        Function extracting the grouping key from a segment; defaults to
        the segment's key attributes.
    having:
        Optional post-aggregation predicate applied to each output
        segment (a callable receiving the output segment and returning
        the filtered list; composed in plans from a ContinuousFilter).
    """

    arity = 1

    def __init__(
        self,
        factory: Callable[[], ContinuousOperator],
        group_key: Callable[[Segment], Key] | None = None,
        name: str = "group-by",
    ):
        self.factory = factory
        self.group_key = group_key or segment_key
        self.name = name
        self._groups: dict[Key, ContinuousOperator] = {}

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def groups(self) -> Mapping[Key, ContinuousOperator]:
        return dict(self._groups)

    def group(self, key: Key) -> ContinuousOperator:
        """The aggregate instance for ``key``, creating it on first use."""
        if key not in self._groups:
            self._groups[key] = self.factory()
        return self._groups[key]

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        key = self.group_key(segment)
        return self.group(key).process(segment, port)

    def flush(self) -> list[Segment]:
        out: list[Segment] = []
        for agg in self._groups.values():
            out.extend(agg.flush())
        return out

    def reset(self) -> None:
        self._groups.clear()

    def iter_group_items(self) -> Iterator[tuple[Key, ContinuousOperator]]:
        return iter(self._groups.items())
