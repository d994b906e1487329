"""Segments: Pulse's first-class datatype.

A segment is one piece of a piecewise polynomial model (Section II-B): a
time range ``[t_start, t_end)`` over which a particular set of polynomial
coefficients is valid, together with the key values identifying the modeled
entity and any unmodeled attributes (constant for the segment's lifespan).

Segments flow through the transformed query plan the way tuples flow
through a discrete plan; every continuous operator consumes segments and
produces segments, which is what keeps the operator set closed
(Section III-C).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import InvalidSegmentError
from .intervals import EPS, Interval
from .polynomial import Polynomial

_segment_ids = itertools.count(1)

Key = tuple

_T_END = attrgetter("t_end")


def segment_id_watermark() -> int:
    """The most recently issued segment id (0 before any segment).

    Durability snapshots record this so a restored process can
    guarantee id uniqueness; reading it burns one id, which is
    harmless — ids only need to be unique, not dense.
    """
    return next(_segment_ids) - 1


def ensure_segment_ids_above(watermark: int) -> None:
    """Advance the global id counter past ``watermark``.

    Called on snapshot restore: restored segments keep their original
    ``seg_id`` (lineage refers to parents by id), so ids issued after
    the restore must start above everything the snapshot carried.
    """
    global _segment_ids
    current = next(_segment_ids)
    _segment_ids = itertools.count(max(current, watermark + 1))


class Segment:
    """One piece of a piecewise polynomial model.

    Parameters
    ----------
    key:
        Tuple of key-attribute values identifying the modeled entity
        (e.g. a vessel id, a stock symbol).  May be empty for keyless
        streams.
    t_start, t_end:
        The half-open valid time range ``[t_start, t_end)``.
    models:
        Mapping from modeled attribute name to its :class:`Polynomial`
        in the time variable ``t`` (absolute time, not segment-relative).
    constants:
        Unmodeled attributes, constant over the segment's lifespan.
    lineage:
        Identifiers of the input segments this segment was derived from;
        maintained for query inversion (Section IV-B).
    """

    __slots__ = (
        "key", "t_start", "t_end", "models", "constants", "seg_id", "lineage",
        "_fold_sig",
    )

    def __init__(
        self,
        key: Key,
        t_start: float,
        t_end: float,
        models: Mapping[str, Polynomial],
        constants: Mapping[str, object] | None = None,
        lineage: tuple[int, ...] = (),
        seg_id: int | None = None,
    ):
        if not t_start < t_end:
            raise InvalidSegmentError(
                f"segment time range must be non-empty, got [{t_start}, {t_end})"
            )
        for name, model in models.items():
            if not isinstance(model, Polynomial):
                raise InvalidSegmentError(
                    f"model for attribute {name!r} must be a Polynomial"
                )
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(self, "t_start", float(t_start))
        object.__setattr__(self, "t_end", float(t_end))
        object.__setattr__(self, "models", MappingProxyType(dict(models)))
        object.__setattr__(
            self, "constants", MappingProxyType(dict(constants or {}))
        )
        object.__setattr__(self, "lineage", tuple(lineage))
        object.__setattr__(
            self, "seg_id", next(_segment_ids) if seg_id is None else seg_id
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Segment is immutable")

    def __reduce__(self):
        """Explicit pickling: the immutable ``__setattr__`` blocks the
        default slots protocol, and ``models``/``constants`` are
        mapping proxies.  Durability snapshots round-trip segments
        through here; ``seg_id`` is preserved so lineage stays valid
        across a restore (see :func:`ensure_segment_ids_above`).  The
        fold signature is derived and recomputed on demand."""
        return (
            Segment,
            (
                self.key,
                self.t_start,
                self.t_end,
                dict(self.models),
                dict(self.constants),
                self.lineage,
                self.seg_id,
            ),
        )

    # ------------------------------------------------------------------
    # fold signature (memo key of the selective operators)
    # ------------------------------------------------------------------
    @property
    def fold_sig(self) -> tuple | None:
        """Discrete-only content key: constants plus model *names*.

        The partial-evaluation fold reads only discrete values and
        name-resolution structure, so this key is exact for a folded
        residual and is shared by every pair an equi-key predicate
        rejects discretely.  ``None`` when a constant is unhashable.
        """
        try:
            return self._fold_sig
        except AttributeError:
            sig = self._signature(tuple(sorted(self.models)))
            object.__setattr__(self, "_fold_sig", sig)
            return sig

    def _signature(self, models_part: tuple) -> tuple | None:
        sig = (tuple(sorted(self.constants.items())), models_part)
        try:
            hash(sig)
        except TypeError:
            return None
        return sig

    # ------------------------------------------------------------------
    # temporal accessors
    # ------------------------------------------------------------------
    @property
    def interval(self) -> Interval:
        return Interval(self.t_start, self.t_end)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def is_point(self) -> bool:
        """Whether the segment's validity has collapsed to (almost) a point.

        Equality predicates reduce segments to instants; we represent an
        instant ``p`` as the sliver ``[p, p + EPS)``.
        """
        return self.duration <= 2 * EPS

    def contains_time(self, t: float) -> bool:
        return self.t_start <= t < self.t_end

    def overlaps(self, other: "Segment") -> bool:
        return self.t_start < other.t_end and other.t_start < self.t_end

    def overlap_range(self, other: "Segment") -> tuple[float, float] | None:
        lo = max(self.t_start, other.t_start)
        hi = min(self.t_end, other.t_end)
        if lo < hi:
            return (lo, hi)
        return None

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model(self, attr: str) -> Polynomial:
        try:
            return self.models[attr]
        except KeyError:
            raise KeyError(
                f"segment has no model for attribute {attr!r}; "
                f"available: {sorted(self.models)}"
            ) from None

    def value_at(self, attr: str, t: float):
        """Evaluate a modeled attribute (or return an unmodeled constant)."""
        if attr in self.models:
            return self.models[attr](t)
        if attr in self.constants:
            return self.constants[attr]
        raise KeyError(f"segment has no attribute {attr!r}")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.models) + tuple(self.constants)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def restrict(self, lo: float, hi: float) -> "Segment":
        """The same models restricted to ``[lo, hi) ∩ [t_start, t_end)``."""
        lo = max(lo, self.t_start)
        hi = min(hi, self.t_end)
        if not lo < hi:
            raise InvalidSegmentError(
                f"restriction [{lo}, {hi}) of {self} is empty"
            )
        return Segment(
            self.key, lo, hi, self.models, self.constants, lineage=self.lineage
        )

    def at_instant(self, t: float) -> "Segment":
        """A point segment capturing this model at instant ``t``."""
        return Segment(
            self.key,
            t,
            t + EPS,
            self.models,
            self.constants,
            lineage=self.lineage,
        )

    def with_models(
        self,
        models: Mapping[str, Polynomial],
        constants: Mapping[str, object] | None = None,
        lineage: tuple[int, ...] | None = None,
    ) -> "Segment":
        return Segment(
            self.key,
            self.t_start,
            self.t_end,
            models,
            self.constants if constants is None else constants,
            lineage=self.lineage if lineage is None else lineage,
        )

    def derive(
        self,
        key: Key,
        lo: float,
        hi: float,
        models: Mapping[str, Polynomial],
        constants: Mapping[str, object] | None = None,
        parents: Iterable["Segment"] = (),
    ) -> "Segment":
        """Build an output segment recording its parents as lineage."""
        lineage = tuple(p.seg_id for p in parents) or (self.seg_id,)
        return Segment(key, lo, hi, models, constants or {}, lineage=lineage)

    def __repr__(self) -> str:
        attrs = ",".join(sorted(self.models))
        return (
            f"Segment(key={self.key}, [{self.t_start:g},{self.t_end:g}), "
            f"models=[{attrs}])"
        )


def resolve_model(segment: Segment, name: str) -> Polynomial:
    """Find a model by exact name, then by unique suffix.

    Post-join segments carry alias-qualified attributes (``s1.x``); plan
    operators configured with bare names (``x``) resolve through the
    suffix when it is unambiguous.
    """
    if name in segment.models:
        return segment.models[name]
    suffix = name.split(".")[-1]
    matches = [a for a in segment.models if a.split(".")[-1] == suffix]
    if len(matches) == 1:
        return segment.models[matches[0]]
    raise KeyError(
        f"cannot resolve model {name!r} among {sorted(segment.models)}"
    )


def resolve_constant(segment: Segment, name: str, default=None):
    """Find an unmodeled attribute by exact name, then unique suffix."""
    if name in segment.constants:
        return segment.constants[name]
    suffix = name.split(".")[-1]
    matches = [a for a in segment.constants if a.split(".")[-1] == suffix]
    if len(matches) == 1:
        return segment.constants[matches[0]]
    if len(matches) > 1:
        values = {segment.constants[m] for m in matches}
        if len(values) == 1:
            return values.pop()
    return default


def apply_update_semantics(
    existing: list[Segment], incoming: Segment
) -> list[Segment]:
    """Apply the paper's successor-overrides-overlap update semantics.

    For two temporally overlapping segments of the same key, the successor
    acts as an update to the predecessor for the overlap: the predecessor
    is trimmed to end where the successor begins (Section II-B).  Returns
    the new segment list sorted by start time; ``existing`` is not mutated.
    """
    out: list[Segment] = []
    for seg in existing:
        if seg.key != incoming.key or not seg.overlaps(incoming):
            out.append(seg)
            continue
        if seg.t_start < incoming.t_start:
            out.append(seg.restrict(seg.t_start, incoming.t_start))
        # Any part of the predecessor at or after the successor's start is
        # overridden (the successor is newer for the whole overlap; a
        # predecessor tail past the successor's end is also dropped since
        # the update semantics order pieces sequentially).
        if seg.t_end > incoming.t_end and incoming.t_start <= seg.t_start:
            # Fully-later predecessor keeps its tail beyond the update.
            out.append(seg.restrict(incoming.t_end, seg.t_end))
    out.append(incoming)
    out.sort(key=lambda s: (s.t_start, s.t_end))
    return out


class SegmentBuffer:
    """Order-based per-key segment state of the continuous join.

    Fig. 3: the join keeps one "order-based segment buffer" per input.
    Per key the stored segments are pairwise disjoint after the update
    rule, so their starts and their ends both increase along the list:
    inserting, probing and evicting each bisect to the part of a key's
    list they change or return — the segment indexing Section VII asks
    for on highly segmented inputs.

    Keys can also be grouped by a *partition* value (the join's equi-key
    values) so that a probe visits one partition's keys only.  A key
    counts towards its partition while every segment it holds was
    inserted under that one value; while any stored key does not, probes
    visit every key, which is always right and merely slower.
    """

    def __init__(self):
        self._by_key: dict[Key, list[Segment]] = {}
        # partition value -> its keys, in ``_by_key`` order (a key joins
        # at its first insert and leaves when it empties, as it does
        # there); and each such key's partition value.
        self._partitions: dict[object, dict[Key, None]] = {}
        self._partition_of: dict[Key, object] = {}
        self._watermark = float("-inf")

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_key.values())

    @property
    def watermark(self) -> float:
        return self._watermark

    def insert(self, segment: Segment, partition: object = None) -> None:
        """Store ``segment``, trimming what it overrides (update semantics).

        ``partition`` is a hashable grouping value, or ``None`` for a
        segment that has none.
        """
        key = segment.key
        segs = self._by_key.get(key)
        if segs is None:
            self._by_key[key] = [segment]
            if partition is not None:
                self._partition_of[key] = partition
                self._partitions.setdefault(partition, {})[key] = None
            return
        if self._partition_of.get(key, partition) != partition:
            self._leave_partition(key)
        # Stored segments ending at or before the arrival's start cannot
        # overlap it; an in-order arrival leaves an empty suffix.
        at = bisect_right(segs, segment.t_start, key=_T_END)
        segs[at:] = apply_update_semantics(segs[at:], segment)

    def _leave_partition(self, key: Key) -> None:
        partition = self._partition_of.pop(key)
        keys = self._partitions[partition]
        del keys[key]
        if not keys:
            del self._partitions[partition]

    def keys(self) -> Iterator[Key]:
        return iter(self._by_key)

    def segments(self, key: Key | None = None) -> Iterator[Segment]:
        if key is not None:
            yield from self._by_key.get(key, [])
            return
        for segs in self._by_key.values():
            yield from segs

    def overlapping(
        self,
        lo: float,
        hi: float,
        key: Key | None = None,
        partition: object = None,
    ) -> Iterator[Segment]:
        """Stored segments overlapping ``[lo, hi)``, key by key in order.

        With ``key``, that key's only; with ``partition``, those of the
        keys inserted under that value plus, possibly, segments of other
        keys (callers still test the pair).
        """
        if key is not None:
            pools = (self._by_key.get(key, ()),)
        elif partition is None or len(self._partition_of) < len(self._by_key):
            pools = self._by_key.values()
        else:
            pools = map(
                self._by_key.__getitem__, self._partitions.get(partition, ())
            )
        for segs in pools:
            for at in range(bisect_right(segs, lo, key=_T_END), len(segs)):
                if not segs[at].t_start < hi:
                    break
                yield segs[at]

    def evict_before(self, watermark: float) -> int:
        """Drop segments entirely before ``watermark``; returns drop count."""
        self._watermark = max(self._watermark, watermark)
        dropped = 0
        stale = [
            key
            for key, segs in self._by_key.items()
            if not segs[0].t_end > watermark
        ]
        for key in stale:
            segs = self._by_key[key]
            gone = bisect_right(segs, watermark, key=_T_END)
            dropped += gone
            if gone < len(segs):
                del segs[:gone]
                continue
            del self._by_key[key]
            if key in self._partition_of:
                self._leave_partition(key)
        return dropped

    def clear(self) -> None:
        self._by_key.clear()
        self._partitions.clear()
        self._partition_of.clear()
        self._watermark = float("-inf")
