"""Hash-based group-by for continuous aggregates (Fig. 3, last row).

``ContinuousGroupBy`` partitions the segment stream by a grouping key and
maintains one aggregate-operator instance per group ("per group state for
f, impl for f per group").  The grouping key defaults to the segments'
key attributes, which matches the paper's functional-dependency property:
modeled attributes are functional dependents of keys throughout the
dataflow (Property 2, Section IV-B).

Above a swap-invariant self-join the group-by also takes a ``mirror``
(:class:`~repro.core.symmetry.GroupMirror`): a group and its mirror
group (``(a, b)`` and ``(b, a)``) then share one state, kept in the
orientation the pair was first seen in, and a row of the other
orientation goes in mirrored and its outputs come back mirrored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from ..errors import PlanError
from ..segment import Key, Segment
from .base import ContinuousOperator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..symmetry import GroupMirror


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
    mirror:
        A swap-invariant self-join's group mirror, or ``None``.
    """

    arity = 1

    def __init__(
        self,
        factory: Callable[[], ContinuousOperator],
        group_key: Callable[[Segment], Key] | None = None,
        name: str = "group-by",
        mirror: "GroupMirror | None" = None,
    ):
        self.factory = factory
        self.group_key = group_key or segment_key
        self.name = name
        self.mirror = mirror
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
        mirror = self.mirror
        if mirror is None or key in self._groups:
            return self.group(key).process(segment, port)
        twin_key = mirror.twin_key(key)
        twin = self._groups.get(twin_key)
        if twin is None:
            if twin_key == key:
                # Such a group takes both orientations of its rows, so
                # it has no mirror to share a state with.
                raise PlanError(
                    f"group {key!r} of a self-join is its own mirror"
                )
            return self.group(key).process(segment, port)
        outputs = twin.process(mirror.rows.mirror(segment), port)
        return [mirror.outputs.mirror(out) for out in outputs]

    def flush(self) -> list[Segment]:
        out: list[Segment] = []
        for agg in self._groups.values():
            flushed = agg.flush()
            out.extend(flushed)
            if self.mirror is not None:
                out.extend(self.mirror.outputs.mirror(s) for s in flushed)
        return out

    def reset(self) -> None:
        self._groups.clear()

    def iter_group_items(self) -> Iterator[tuple[Key, ContinuousOperator]]:
        return iter(self._groups.items())
