"""Reference implementations the parity suites compare the engine against.

The engine runs one path: the batched kernel with closed-form
cubic/quartic candidates, fed by every selective operator's probes.
The slower twins it is held equal to live here, as plain functions and context managers for
tests and tools — none of them is reachable from ``src/``:

* **scalar** — :func:`repro.core.roots.real_roots` and
  :func:`repro.core.roots.solve_relation` row by row;
* **companion** — the stacked companion-matrix eigensolve for every
  degree, i.e. the bucket the closed-form kernels fall back to;
* **linear operator state** — the windowed operators' containers as
  plain lists walked end to end on every arrival: what the ordered,
  bisect-indexed sum/avg pieces and ``SegmentBuffer`` replaced, and a
  join that probes every stored key whatever its predicate;
* **segment-at-a-time cascade** — the plan executor calling one
  ``process`` per queue entry instead of handing each operator its
  runs (what ``ContinuousPlan._cascade`` did before runs).
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core import batch_solver, plan as plan_module
from repro.core.equation_system import EquationSystem
from repro.core.intervals import EPS, Interval, TimeSet
from repro.core.operators import ContinuousJoin
from repro.core.operators.aggregate_sum import ContinuousSumAggregate
from repro.core.piecewise import Piece
from repro.core.plan import ContinuousPlan
from repro.core.roots import solve_relation
from repro.core.segment import Key, Segment, apply_update_semantics


# ----------------------------------------------------------------------
# scalar
# ----------------------------------------------------------------------
def scalar_solve_tasks(tasks: Sequence[tuple]) -> list[TimeSet]:
    """``(poly, rel, lo, hi)`` tasks solved one row at a time."""
    return [solve_relation(poly, rel, lo, hi) for poly, rel, lo, hi in tasks]


def scalar_system_solve(
    system: EquationSystem, lo: float, hi: float
) -> TimeSet:
    """``system`` over ``[lo, hi)`` with every row solved by the scalar
    path and combined through the system's own boolean structure."""
    rows = scalar_solve_tasks(
        [(row.poly, row.rel, lo, hi) for row in system.rows]
    )
    return system.evaluate_structure(rows, lo, hi)


# ----------------------------------------------------------------------
# companion eigensolve
# ----------------------------------------------------------------------
def _decline(desc_matrix: np.ndarray):
    """A closed-form kernel that hands every row back (``ok`` all False)."""
    n, length = desc_matrix.shape
    return np.full((n, length - 1), np.nan), np.zeros(n, dtype=bool)


def companion_roots_rows(rows) -> list[list[float]]:
    """:func:`~repro.core.batch_solver.real_roots_rows` with degree-3/4
    rows routed to the companion eigensolve.

    Replaces both closed-form kernels with one that declines every row,
    so the dispatcher takes its own per-row fallback: the rows land in
    the companion bucket exactly as rows of degree >= 5 do.  Takes
    ``(coeffs, lo, hi)`` rows like the function it mirrors.
    """
    saved = batch_solver.cubic_candidates, batch_solver.quartic_candidates
    batch_solver.cubic_candidates = _decline
    batch_solver.quartic_candidates = _decline
    try:
        return batch_solver.real_roots_rows(rows)
    finally:
        batch_solver.cubic_candidates, batch_solver.quartic_candidates = saved


# ----------------------------------------------------------------------
# linear operator state
# ----------------------------------------------------------------------
def linear_piece_containing(cum: Sequence[Piece], t: float) -> Piece | None:
    """First piece of ``cum`` containing ``t``; the last one when ``t``
    is within ``EPS`` of its end."""
    for piece in cum:
        if piece.interval.contains(t):
            return piece
    if cum and abs(t - cum[-1].interval.hi) <= EPS:
        return cum[-1]
    return None


def linear_breakpoints(
    cum: Sequence[Piece], window: float, start: float, end: float
) -> list[float]:
    """``start``, ``end`` and every piece start, plain or shifted by
    ``+window``, strictly between them."""
    breakpoints = {start, end}
    for piece in cum:
        for b in (piece.interval.lo, piece.interval.lo + window):
            if start < b < end:
                breakpoints.add(b)
    return sorted(breakpoints)


class LinearSumAggregate(ContinuousSumAggregate):
    """Sum/avg whose every state operation walks the whole piece list."""

    def _piece_containing(self, t):
        return linear_piece_containing(self._cum, t)

    def _breakpoints(self, start, end):
        return linear_breakpoints(self._cum, self.window, start, end)

    def _truncate_to(self, t):
        kept: list[Piece] = []
        for piece in self._cum:
            if piece.interval.hi <= t + EPS:
                kept.append(piece)
            elif piece.interval.lo < t - EPS:
                kept.append(Piece(Interval(piece.interval.lo, t), piece.poly))
        self._cum = kept
        if kept:
            self._signal_end = kept[-1].interval.hi
        else:
            self._signal_start = t
            self._signal_end = t
        self._emitted_to = min(
            self._emitted_to, max(t, self._signal_start + self.window)
        )

    def _evict(self):
        if math.isinf(self.retention):
            return
        horizon = (
            self._signal_end - self.window - (self.slide or 0.0)
            - self.retention - EPS
        )
        self._cum = [p for p in self._cum if p.interval.hi > horizon]


class LinearSegmentBuffer:
    """Per-key segment lists rebuilt and scanned whole on every call."""

    def __init__(self):
        self._by_key: dict[Key, list[Segment]] = {}
        self._watermark = float("-inf")

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_key.values())

    @property
    def watermark(self) -> float:
        return self._watermark

    def insert(self, segment: Segment, partition: object = None) -> None:
        current = self._by_key.get(segment.key, [])
        self._by_key[segment.key] = apply_update_semantics(current, segment)

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
        pool = (
            self._by_key.get(key, [])
            if key is not None
            else (s for segs in self._by_key.values() for s in segs)
        )
        for seg in pool:
            if seg.t_start < hi and lo < seg.t_end:
                yield seg

    def evict_before(self, watermark: float) -> int:
        self._watermark = max(self._watermark, watermark)
        dropped = 0
        for key in list(self._by_key):
            kept = [s for s in self._by_key[key] if s.t_end > watermark]
            dropped += len(self._by_key[key]) - len(kept)
            if kept:
                self._by_key[key] = kept
            else:
                del self._by_key[key]
        return dropped

    def clear(self) -> None:
        self._by_key.clear()
        self._watermark = float("-inf")


class ScanningJoin(ContinuousJoin):
    """A join that probes every stored key and evicts on every arrival:
    linear buffers, no partitions, whatever the predicate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers = (LinearSegmentBuffer(), LinearSegmentBuffer())

    def _partition(self, segment, port):
        return None

    def _evict(self, arrival):
        if self.window is None:
            return
        horizon = min(self._start_water) - self.window
        if horizon > float("-inf"):
            for buf in self._buffers:
                buf.evict_before(horizon)


# ----------------------------------------------------------------------
# segment-at-a-time cascade
# ----------------------------------------------------------------------
def segment_cascade(self, initial, results) -> None:
    """``ContinuousPlan._cascade`` as it was before runs, verbatim but
    for the module-qualified hook: one ``process`` call per entry."""
    queue: deque[tuple[int, int, Segment]] = deque(initial)
    while queue:
        node_id, port, seg = queue.popleft()
        node = self._nodes[node_id]
        node.segments_in += 1
        hook = plan_module._OPERATOR_TRACE
        if hook is None:
            outputs = node.operator.process(seg, port)
        else:
            with hook(node.label, node_id):
                outputs = node.operator.process(seg, port)
        node.segments_out += len(outputs)
        for observer in self._observers:
            observer(node, seg, outputs)
        for out in outputs:
            if node_id == self._output_id:
                results.append(out)
            for succ_id, succ_port in node.successors:
                queue.append((succ_id, succ_port, out))


@contextmanager
def segment_at_a_time() -> Iterator[None]:
    """Run every plan through :func:`segment_cascade` inside the block."""
    real = ContinuousPlan._cascade
    ContinuousPlan._cascade = segment_cascade
    try:
        yield
    finally:
        ContinuousPlan._cascade = real
