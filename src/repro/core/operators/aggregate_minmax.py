"""Continuous min/max aggregates via envelope state (Section III-B).

The operator maintains, as internal state, a piecewise model ``s(t)`` that
is the lower (min) or upper (max) envelope of all live input models —
Figure 2's "piecewise composition of individual models".  Each arriving
segment ``x`` is compared against the state through the difference
equation ``x(t) - s(t) R 0`` (``R`` is ``<`` for min, ``>`` for max); the
solution time ranges are exactly where the input *updates* the aggregate,
and are spliced into the envelope and emitted as output segments
``{(t, s_i) | D t R 0}`` (Fig. 3, row 3).

Windowed results (the discrete aggregate's per-window value) are obtained
from the envelope with :meth:`windowed_value`: the extremum of ``s`` over
``[c - w, c]`` for a window closing at ``c`` — computed from piece
endpoints and stationary points, never from tuples.
"""

from __future__ import annotations

import math

from ..batch_solver import real_roots_rows, solve_tasks
from ..errors import UnsupportedAggregateError
from ..intervals import EPS, TimeSet
from ..piecewise import PiecewiseFunction
from ..polynomial import Polynomial
from ..relation import Rel
from ..segment import Segment, resolve_model
from .base import ContinuousOperator

_FUNCS = ("min", "max")


class ContinuousExtremumAggregate(ContinuousOperator):
    """Min/max aggregate over a (multi-model) segment stream.

    Parameters
    ----------
    attr:
        The modeled attribute being aggregated.
    func:
        ``"min"`` or ``"max"``.
    output_attr:
        Name of the output model attribute (defaults to ``min_<attr>``).
    window, slide:
        Window specification used by :meth:`windowed_value` /
        :meth:`window_closes` and for state eviction.  ``window=None``
        keeps the full envelope (landmark aggregate).
    """

    arity = 1

    def __init__(
        self,
        attr: str,
        func: str = "min",
        output_attr: str | None = None,
        window: float | None = None,
        slide: float | None = None,
        name: str | None = None,
    ):
        if func not in _FUNCS:
            raise UnsupportedAggregateError(
                f"extremum aggregate supports {_FUNCS}, got {func!r} "
                "(count-like aggregates have no continuous form)"
            )
        self.attr = attr
        self.func = func
        self.output_attr = output_attr or f"{func}_{attr}"
        self.window = window
        self.slide = slide
        self.name = name or f"{func}({attr})"
        self._envelope = PiecewiseFunction.empty()
        self._high_water = -math.inf
        #: Count of equation systems instantiated (benchmark hook).
        self.systems_solved = 0

    @property
    def envelope(self) -> PiecewiseFunction:
        """The current aggregated state model ``s(t)``."""
        return self._envelope

    def reset(self) -> None:
        self._envelope = PiecewiseFunction.empty()
        self._high_water = -math.inf

    # ------------------------------------------------------------------
    # segment processing
    # ------------------------------------------------------------------
    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        poly = resolve_model(segment, self.attr)
        lo, hi = segment.t_start, segment.t_end
        self._high_water = max(self._high_water, hi)

        updated = self._update_ranges(poly, lo, hi)
        outputs: list[Segment] = []
        for iv in updated.intervals:
            self._envelope = self._envelope.splice(iv.lo, iv.hi, poly)
            outputs.append(
                Segment(
                    key=segment.key,
                    t_start=iv.lo,
                    t_end=iv.hi,
                    models={self.output_attr: poly},
                    constants=dict(segment.constants),
                    lineage=(segment.seg_id,),
                )
            )
        self._evict()
        return outputs

    def _update_ranges(self, poly: Polynomial, lo: float, hi: float) -> TimeSet:
        """Where does the new model improve on the current state?

        Uncovered (gap) ranges are trivially updates; covered ranges are
        decided by solving ``x(t) - s(t) R 0`` against every overlapped
        state piece, all rows in one kernel call.
        """
        if lo >= hi:
            return TimeSet.empty()
        rel = Rel.LT if self.func == "min" else Rel.GT
        covered_new = TimeSet.empty()
        covered_any = TimeSet.empty()
        # One row per overlapped state piece: x(t) - s(t) R 0 over the
        # common valid range.
        tasks = []
        for piece in self._envelope.pieces:
            a = max(lo, piece.interval.lo)
            b = min(hi, piece.interval.hi)
            if a >= b:
                continue
            covered_any = covered_any | TimeSet.interval(a, b)
            tasks.append((poly - piece.poly, rel, a, b))
        if tasks:
            self.systems_solved += len(tasks)
            for solution in solve_tasks(tasks):
                covered_new = covered_new | solution
        gaps = covered_any.complement(TimeSet.interval(lo, hi).intervals[0])
        return covered_new | gaps

    def _evict(self) -> None:
        if self.window is None:
            return
        horizon = self._high_water - self.window - (self.slide or 0.0)
        kept = [
            p for p in self._envelope.pieces if p.interval.hi > horizon
        ]
        if len(kept) != len(self._envelope.pieces):
            self._envelope = PiecewiseFunction(kept)

    # ------------------------------------------------------------------
    # windowed evaluation
    # ------------------------------------------------------------------
    def windowed_value(self, close: float) -> float:
        """The aggregate for the window ``[close - w, close]``.

        Requires a window specification; for landmark aggregates use
        :meth:`value_at` on the envelope instead.
        """
        if self.window is None:
            raise ValueError("windowed_value requires a window specification")
        return self.extremum_over(close - self.window, close)

    def extremum_over(self, lo: float, hi: float) -> float:
        """Extremum of the envelope over ``[lo, hi]`` via critical points."""
        best = math.inf if self.func == "min" else -math.inf
        pick = min if self.func == "min" else max
        # Every overlapped piece's endpoints, plus its stationary points
        # (the derivative rows, solved in one kernel call).
        spans = []
        rows = []
        for piece in self._envelope.pieces:
            a = max(lo, piece.interval.lo)
            b = min(hi, piece.interval.hi)
            if a > b:
                continue
            spans.append((piece.poly, [a, b]))
            deriv = piece.poly.derivative()
            if not deriv.is_zero and not piece.poly.is_constant:
                rows.append((len(spans) - 1, (deriv.coeffs, a, b)))
        if not spans:
            raise ValueError(
                f"envelope undefined anywhere in [{lo}, {hi}]"
            )
        if rows:
            solved = real_roots_rows([row for _, row in rows])
            for (k, _), roots in zip(rows, solved):
                spans[k][1].extend(roots)
        for poly, candidates in spans:
            best = pick(best, pick(poly(t) for t in candidates))
        return best

    def value_at(self, t: float) -> float:
        """Instantaneous aggregate value: the envelope at ``t``."""
        return self._envelope(t)

    def window_closes(self, lo: float, hi: float) -> list[float]:
        """Window-close instants in ``[lo, hi)`` implied by the slide.

        The paper infers the aggregate's output rate from the window's
        slide parameter (Section III-C); closes sit on the slide grid.
        """
        if not self.slide:
            raise ValueError("window_closes requires a slide parameter")
        first = math.ceil(lo / self.slide) * self.slide
        closes = []
        c = first
        while c < hi - EPS:
            closes.append(c)
            c += self.slide
        return closes
