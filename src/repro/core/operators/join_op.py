"""Continuous join with order-based segment buffers.

Fig. 3, row 2: segments arriving on either input are aligned with respect
to ``t`` against the opposite buffer's temporally overlapping segments;
for each aligned pair the difference system ``D = [x_i - y_i]`` is
instantiated from the join predicate and solved over the overlap of the
two validity ranges (the paper's "equi-join semantics along the time
dimension").  Solutions become output segments carrying both inputs'
models qualified by their stream aliases.

A join *window* bounds state exactly as in the paper's state table
(``S_x = {([tl, tu), s_x) | tl > t_y}`` generalized by a window width):
segments wholly before the opposite side's high-water mark minus the
window are evicted.

Top-level conjuncts ``<left>.a = <right>.b`` partition both buffers by
those attributes' values, and an arrival probes only the partition its
own values select — the continuous counterpart of
:class:`~repro.engine.operators.hash_join.DiscreteHashJoin`.

:class:`SymmetricSelfJoin` is the one-input form a swap-invariant
self-join lowers to (see :mod:`repro.core.transform`): one buffer, one
probe per arrival, each pair once.
"""

from __future__ import annotations

from ..equation_system import EquationSystem, solve_systems_batch
from ..errors import PlanError
from ..expr import Attr
from ..predicate import And, BoolExpr, Comparison
from ..relation import Rel
from ..segment import Segment, SegmentBuffer
from .base import SelectiveOperator, merged_constants, merged_models


def _pair_sig(left, right):
    """Signature of an aligned pair; ``None`` if either side has none."""
    if left is None or right is None:
        return None
    return (left, right)


def _equi_attrs(
    predicate: BoolExpr, left_alias: str, right_alias: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Per side, the attributes of the top-level ``L.a = R.b`` conjuncts.

    A pair on which one of them is false folds to ``FALSE`` whatever
    the other conjuncts say, so it never needs probing.
    """
    pairs = []
    atoms = predicate.children if isinstance(predicate, And) else (predicate,)
    for atom in atoms:
        if (
            isinstance(atom, Comparison)
            and atom.rel is Rel.EQ
            and isinstance(atom.left, Attr)
            and isinstance(atom.right, Attr)
        ):
            by_alias = dict(
                name.split(".", 1)
                for name in (atom.left.name, atom.right.name)
                if name.count(".") == 1
            )
            if len(by_alias) == 2 and by_alias.keys() == {left_alias, right_alias}:
                pairs.append((by_alias[left_alias], by_alias[right_alias]))
    return tuple(zip(*pairs)) or ((), ())


class ContinuousJoin(SelectiveOperator):
    """Two-input selective operator over aligned segment pairs.

    Parameters
    ----------
    predicate:
        Join predicate; key comparisons (e.g. ``R.id <> S.id`` or the
        equi-key ``S.symbol = L.symbol``) are folded discretely per pair,
        modeled comparisons become equation-system rows.
    left_alias, right_alias:
        Aliases qualifying each side's attributes in the predicate and in
        output segments.
    window:
        State-retention bound (seconds).  ``None`` keeps unbounded state.
    """

    arity = 2

    def __init__(
        self,
        predicate: BoolExpr,
        left_alias: str = "L",
        right_alias: str = "R",
        window: float | None = None,
        name: str = "join",
    ):
        super().__init__(predicate)
        self.left_alias = left_alias
        self.right_alias = right_alias
        self.window = window
        self.name = name
        self._buffers = (SegmentBuffer(), SegmentBuffer())
        self._equi_attrs = _equi_attrs(predicate, left_alias, right_alias)
        # The qualified names the fold resolves those attributes by; a
        # segment carrying one of them literally could shadow a value.
        self._equi_names = frozenset(
            f"{alias}.{attr}"
            for alias, attrs in zip((left_alias, right_alias), self._equi_attrs)
            for attr in attrs
        )
        # Max t_start seen per side: inputs arrive with monotonically
        # increasing reference timestamps (Section II-B), so a side's
        # start watermark bounds where future arrivals can begin.
        self._start_water = [float("-inf"), float("-inf")]
        #: Count of probed pairs whose predicate was discretely false.
        #: Pairs that differ on an equi-key attribute are in different
        #: partitions and never probed, so under an equi-key predicate
        #: this counts only what the *other* discrete atoms reject.
        self.pairs_rejected_discrete = 0

    def reset(self) -> None:
        super().reset()
        for buf in self._buffers:
            buf.clear()
        self._start_water = [float("-inf"), float("-inf")]

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        if port not in (0, 1):
            raise ValueError(f"join has ports 0 and 1, got {port}")
        self._buffers[port].insert(segment, self._partition(segment, port))
        self._start_water[port] = max(self._start_water[port], segment.t_start)
        self._evict(segment)

        # Batch across every candidate pair this probe produced: the
        # pairs' difference rows share one kernel sweep instead of a
        # solver round-trip per partner.
        return self._join_pairs(
            [
                (segment, partner) if port == 0 else (partner, segment)
                for partner in self._partners(segment, port)
            ]
        )

    def _partition(self, segment: Segment, port: int) -> tuple | None:
        """The segment's equi-key values: its partition on its own side,
        the one it probes on the other.

        ``None`` when the predicate has no equi-key conjunct or the fold
        would not read exactly these constants off this segment (one is
        missing, modeled, unhashable or shadowed by a qualified name):
        such a segment is stored unpartitioned and probes every key.
        """
        attrs = self._equi_attrs[port]
        constants, models = segment.constants, segment.models
        if not attrs or not (
            self._equi_names.isdisjoint(constants)
            and self._equi_names.isdisjoint(models)
            and models.keys().isdisjoint(attrs)
        ):
            return None
        try:
            values = tuple(constants[attr] for attr in attrs)
            hash(values)
        except (KeyError, TypeError):
            return None
        return values

    def _partners(self, segment: Segment, port: int) -> list[Segment]:
        """Opposite-side segments ``segment`` aligns with, in buffer order.

        Dict lookup of the partition finds every value that ``==`` finds
        (``1`` and ``1.0`` share a partition; a NaN equals nothing and
        pairs with nothing); each returned pair is still folded.
        """
        return list(
            self._buffers[1 - port].overlapping(
                segment.t_start,
                segment.t_end,
                partition=self._partition(segment, port),
            )
        )

    def _join_pairs(
        self, pairs: list[tuple[Segment, Segment]]
    ) -> list[Segment]:
        """Join many aligned pairs, solving their systems in one batch."""
        jobs: list[tuple[EquationSystem, float, float]] = []
        outputs: list[Segment] = []
        # (left, right, lo, hi, job): job None emits the overlap
        # itself, else the index of the pair's job in the batch.
        emit_plan: list[tuple] = []
        for left, right in pairs:
            overlap = left.overlap_range(right)
            if overlap is None:
                continue
            lo, hi = overlap
            residual, system = self._probe(
                {self.left_alias: left, self.right_alias: right},
                _pair_sig(left.fold_sig, right.fold_sig),
            )
            if system is None:
                if not residual.value:
                    self.pairs_rejected_discrete += 1
                    continue
                emit_plan.append((left, right, lo, hi, None))
            else:
                self.systems_solved += 1
                jobs.append((system, lo, hi))
                emit_plan.append((left, right, lo, hi, len(jobs) - 1))
        solutions = solve_systems_batch(jobs) if jobs else []
        for left, right, lo, hi, job in emit_plan:
            if job is None:
                outputs.append(self._emit(left, right, lo, hi))
                continue
            solution = solutions[job]
            for iv in solution.intervals:
                outputs.append(self._emit(left, right, iv.lo, iv.hi))
            for p in solution.points:
                outputs.append(self._emit_point(left, right, p))
        return outputs

    def _evict(self, arrival: Segment) -> None:
        """Drop state no future arrival can pair with.

        Future arrivals on either side start at or after that side's
        start watermark (monotone reference timestamps), so a stored
        segment ending before ``min(start watermarks) - window`` can
        never overlap one and is safe to evict.  The horizon never
        recedes, so when it has not advanced only ``arrival`` itself
        (a late one, or the predecessor heads it cut) can be behind it.
        """
        if self.window is None:
            return
        horizon = min(self._start_water) - self.window
        if horizon > self._buffers[0].watermark or arrival.t_start <= horizon:
            for buf in self._buffers:
                buf.evict_before(horizon)

    # ------------------------------------------------------------------
    # output construction
    # ------------------------------------------------------------------
    def _merged(self, left: Segment, right: Segment):
        pairs = [(self.left_alias, left), (self.right_alias, right)]
        return merged_models(pairs), merged_constants(pairs)

    def _emit(self, left: Segment, right: Segment, lo: float, hi: float) -> Segment:
        models, constants = self._merged(left, right)
        return Segment(
            key=left.key + right.key,
            t_start=lo,
            t_end=hi,
            models=models,
            constants=constants,
            lineage=(left.seg_id, right.seg_id),
        )

    def _emit_point(self, left: Segment, right: Segment, p: float) -> Segment:
        from ..intervals import EPS

        models, constants = self._merged(left, right)
        return Segment(
            key=left.key + right.key,
            t_start=p,
            t_end=p + EPS,
            models=models,
            constants=constants,
            lineage=(left.seg_id, right.seg_id),
        )

    def slack_system(
        self, segment: Segment, port: int = 0
    ) -> EquationSystem | None:
        """System over the most recent aligned pair, for slack validation."""
        partners = self._partners(segment, port)
        if not partners:
            return None
        partner = partners[-1]
        left, right = (segment, partner) if port == 0 else (partner, segment)
        return self._probe(
            {self.left_alias: left, self.right_alias: right},
            _pair_sig(left.fold_sig, right.fold_sig),
        )[1]

    @property
    def state_size(self) -> int:
        return len(self._buffers[0]) + len(self._buffers[1])


class SymmetricSelfJoin(ContinuousJoin):
    """A swap-invariant self-join: one buffer, each pair probed once.

    The two-input join of a stream with itself buffers every segment
    twice and pairs each arrival with every partner twice, once per
    side.  When the predicate cannot tell the sides apart (the plan
    rewrite checks that), this operator keeps one buffer and emits each
    pair once, oriented with the arrival on the left side: exactly what
    the two-input join emits for the arrival on its left input.  The
    plan's output stage emits the other orientation as mirror twins.

    The arrival is inserted before it probes, so it never pairs with
    the part of its own key's predecessor it overrides; a segment is
    never paired with itself (the rewrite requires a conjunct
    ``<left>.a <> <right>.a``, which rejects that pair).
    """

    arity = 1

    def __init__(
        self,
        predicate: BoolExpr,
        left_alias: str = "L",
        right_alias: str = "R",
        window: float | None = None,
        name: str = "self-join",
    ):
        super().__init__(predicate, left_alias, right_alias, window, name)
        # Both sides read the one buffer, so the inherited probe,
        # eviction and slack paths need no change.
        self._buffers = (self._buffers[0], self._buffers[0])

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        if port != 0:
            raise ValueError(f"self-join has port 0 only, got {port}")
        self._buffers[0].insert(segment, self._partition(segment, 0))
        water = max(self._start_water[0], segment.t_start)
        self._start_water = [water, water]
        self._evict(segment)
        pairs = []
        for partner in self._partners(segment, 0):
            if partner is segment:
                continue
            if len(partner.key) != len(segment.key):
                # The mirror swaps a join key's halves, which needs
                # one key length per stream.
                raise PlanError(
                    f"self-join pairs keys of different lengths: "
                    f"{segment.key!r} and {partner.key!r}"
                )
            pairs.append((segment, partner))
        return self._join_pairs(pairs)

    @property
    def state_size(self) -> int:
        return len(self._buffers[0])
