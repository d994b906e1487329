"""Reference implementations the parity suites compare the engine against.

The engine runs one path: the batched kernel with closed-form
cubic/quartic candidates, fed by every selective operator's probes.
The slower twins it is held equal to live here, as plain functions and context managers for
tests and tools — none of them is reachable from ``src/``:

* **Brent** — :func:`brent`, the bracketing finder (Brent 1973) the
  root-finder ablation compares the kernel against (the kernel itself is
  judged by exact arithmetic, :mod:`tests.exact`);
* **companion** — the stacked companion-matrix eigensolve for every
  degree, i.e. the bucket the closed-form kernels fall back to;
* **linear operator state** — the windowed operators' containers as
  plain lists walked end to end on every arrival: what the ordered,
  bisect-indexed sum/avg pieces and ``SegmentBuffer`` replaced, and a
  join that probes every stored key whatever its predicate;
* **segment-at-a-time cascade** — the plan executor calling one
  ``process`` per queue entry instead of handing each operator its
  runs (what ``ContinuousPlan._cascade`` did before runs);
* **per-point polynomial line** — the online segmenter building and
  shifting a :class:`Polynomial` for every point to test its residual
  (what ``OnlineSegmenter`` did before it tested in floats);
* **row validator** — :func:`validate_tuple`, the ingest boundary as
  one check per row object (what the server ran before ingest went
  columnar); the column validator must give each row its verdict.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core import batch_solver, plan as plan_module
from repro.core.errors import SolverError
from repro.core.intervals import EPS, Interval
from repro.core.operators import ContinuousJoin
from repro.core.operators.aggregate_sum import ContinuousSumAggregate
from repro.core.piecewise import Piece
from repro.core.plan import ContinuousPlan
from repro.core.polynomial import Polynomial
from repro.core.segment import Key, Segment, apply_update_semantics
from repro.engine.tuples import StreamTuple
from repro.fitting import SegmentFit, model_builder
from repro.server.protocol import ProtocolError


# ----------------------------------------------------------------------
# Brent
# ----------------------------------------------------------------------
def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> float:
    """Brent's method on a bracketing interval ``[a, b]``.

    Requires ``f(a)`` and ``f(b)`` to have opposite signs.  Combines
    bisection, secant and inverse quadratic interpolation (Brent 1973).
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise SolverError(f"root not bracketed on [{a}, {b}]")
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(abs(b)) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # Secant step.
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # Inverse quadratic interpolation.
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0 else -tol1
        fb = f(b)
    return b



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


# ----------------------------------------------------------------------
# per-point polynomial line
# ----------------------------------------------------------------------
class PolynomialSegmenter:
    """``OnlineSegmenter`` as it was before the float cut test (degree 1
    only): every point's residual is tested against a freshly built and
    shifted :class:`Polynomial`."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.points_consumed = 0
        self._reset_window()

    def _reset_window(self) -> None:
        self._n = 0
        self._t0 = 0.0
        self._first_t = 0.0
        self._first_y = 0.0
        self._last_t = 0.0
        self._sum_t = 0.0
        self._sum_y = 0.0
        self._sum_tt = 0.0
        self._sum_ty = 0.0
        self._max_resid = 0.0

    def _line(self) -> Polynomial:
        if self._n == 1:
            return Polynomial([self._first_y])
        denom = self._n * self._sum_tt - self._sum_t**2
        if abs(denom) < 1e-18:
            return Polynomial([self._sum_y / self._n])
        slope = (self._n * self._sum_ty - self._sum_t * self._sum_y) / denom
        intercept = (self._sum_y - slope * self._sum_t) / self._n
        return Polynomial([intercept, slope]).shift(-self._t0)

    def _ingest(self, t: float, value: float) -> None:
        if self._n == 0:
            self._t0 = t
            self._first_t = t
            self._first_y = value
        rel = t - self._t0
        self._n += 1
        self._last_t = t
        self._sum_t += rel
        self._sum_y += value
        self._sum_tt += rel * rel
        self._sum_ty += rel * value

    def add(self, t: float, value: float) -> SegmentFit | None:
        self.points_consumed += 1
        if self._n < 2:
            self._ingest(t, value)
            return None
        line = self._line()
        resid = abs(value - line(t))
        if resid <= self.tolerance:
            self._ingest(t, value)
            self._max_resid = max(self._max_resid, resid)
            return None
        closed = SegmentFit(self._first_t, t, line, self._max_resid)
        self._reset_window()
        self._ingest(t, value)
        return closed

    def finish(self) -> SegmentFit | None:
        if self._n == 0:
            return None
        line = self._line()
        closed = SegmentFit(
            self._first_t,
            self._last_t + 1e-9 if self._last_t <= self._first_t else self._last_t,
            line,
            self._max_resid,
        )
        self._reset_window()
        return closed


class PolynomialMultiSegmenter(model_builder.MultiAttributeSegmenter):
    """``MultiAttributeSegmenter.add`` as it was, over
    :class:`PolynomialSegmenter`: a fresh ``closed`` dict per point."""

    def __init__(self, attrs: Sequence[str], tolerance: float):
        super().__init__(attrs, tolerance)
        self._segmenters = {a: PolynomialSegmenter(tolerance) for a in attrs}

    def add(self, t, values):
        if self._start is None:
            self._start = t
        self._count += 1
        closed: dict[str, SegmentFit] = {}
        cut = False
        for attr, value in zip(self.attrs, values):
            fit = self._segmenters[attr].add(t, float(value))
            if fit is not None:
                closed[attr] = fit
                cut = True
        if not cut:
            return None
        for attr, value in zip(self.attrs, values):
            if attr not in closed:
                seg = self._segmenters[attr]
                fit = seg.finish()
                seg.add(t, float(value))
                if fit is not None:
                    closed[attr] = fit
        self._start = t
        return closed


@contextmanager
def polynomial_line_fitting() -> Iterator[None]:
    """Every ``StreamModelBuilder`` made inside the block fits with
    :class:`PolynomialMultiSegmenter`."""
    real = model_builder.MultiAttributeSegmenter
    model_builder.MultiAttributeSegmenter = PolynomialMultiSegmenter
    try:
        yield
    finally:
        model_builder.MultiAttributeSegmenter = real


# ----------------------------------------------------------------------
# row validator
# ----------------------------------------------------------------------
#: JSON scalar types admissible as tuple attribute values.
_SCALARS = (bool, int, float, str)


def validate_tuple(obj: object) -> StreamTuple:
    """Validate one ingested row object; returns it as a
    :class:`StreamTuple` with its ``None`` fields dropped (``null``
    means absent).

    * the row is a flat JSON object (no nested containers);
    * it carries a numeric, finite ``time`` field;
    * every numeric value is finite.

    A row with a malformed field and a non-finite one is malformed,
    whatever the fields' order.  Raises :class:`ProtocolError` (code
    ``nonfinite`` for a non-finite value, ``protocol`` otherwise).
    """
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"tuple must be a JSON object, got {type(obj).__name__}"
        )
    time_value = obj.get(StreamTuple.TIME_FIELD)
    if isinstance(time_value, bool) or not isinstance(
        time_value, (int, float)
    ):
        raise ProtocolError("tuple has no numeric 'time' field")
    nonfinite = None
    for field, value in obj.items():
        if value is not None and not isinstance(value, _SCALARS):
            raise ProtocolError(
                f"field {field!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
        if (
            nonfinite is None
            and isinstance(value, float)
            and not math.isfinite(value)
        ):
            nonfinite = ProtocolError(
                f"non-finite value {value!r} in field {field!r}",
                code="nonfinite",
            )
    if nonfinite is not None:
        raise nonfinite
    return StreamTuple(
        (field, value) for field, value in obj.items() if value is not None
    )
