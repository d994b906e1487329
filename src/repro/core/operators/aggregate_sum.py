"""Continuous sum/average aggregates via window functions (Section III-B).

The sum aggregate's continuous form is integration.  For a sliding window
of width ``w`` closing at time ``t`` the result is

    wf_sum(t) = integral_{t-w}^{t} x(tau) dtau = A(t) - A(t - w)

where ``A`` is the *cumulative* antiderivative of the (piecewise) input
signal — the integration constants of consecutive pieces are chained so
``A`` is continuous, which is exactly the paper's decomposition into a
head integral (the piece containing ``t``), fully-covered segment
constants ``C``, and a tail integral (the piece containing ``t - w``,
with ``(t - w)^i`` expanded by the binomial theorem; here the expansion
is :meth:`Polynomial.shift`).

Because ``A(t)`` and ``A(t - w)`` are polynomials wherever ``t`` and
``t - w`` stay within single pieces, the window function itself is a
*piecewise polynomial in the window-close timestamp* — so the operator
emits ordinary segments and the operator set stays closed.  The emitted
segment for close-range ``[a, b)`` carries the model
``wf(t) = A_head(t) - A_tail(t - w)`` (divided by ``w`` for averages).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from ..errors import UnsupportedAggregateError
from ..intervals import EPS, Interval
from ..piecewise import Piece, PiecewiseFunction
from ..polynomial import Polynomial
from ..segment import Segment, resolve_model
from .base import ContinuousOperator


class ContinuousSumAggregate(ContinuousOperator):
    """Sum or average over a sliding window, emitted as window functions.

    The operator expects one signal per instance: segments must arrive in
    time order for a single logical entity (use
    :class:`~repro.core.operators.groupby.ContinuousGroupBy` to fan out per
    key).  Overlapping arrivals are trimmed by the successor-overrides
    update semantics; fully out-of-order segments are dropped and counted.

    Parameters
    ----------
    attr:
        The modeled attribute being aggregated.
    window:
        Window width ``w`` (required).
    slide:
        Window slide; used by :meth:`window_closes` to infer the output
        sampling grid (Section III-C) and for state-eviction slack.
    average:
        Emit ``wf_sum / w`` instead of the plain integral.
    retention:
        Extra history (seconds) kept beyond what emission needs, so
        :meth:`window_value` can answer queries about past closes.
        ``math.inf`` disables eviction entirely (historical mode).
    """

    arity = 1

    def __init__(
        self,
        attr: str,
        window: float,
        slide: float | None = None,
        average: bool = False,
        output_attr: str | None = None,
        retention: float = 0.0,
        name: str | None = None,
    ):
        if window <= 0:
            raise ValueError("window width must be positive")
        self.attr = attr
        self.window = float(window)
        self.slide = slide
        self.average = average
        self.retention = retention
        default = f"{'avg' if average else 'sum'}_{attr}"
        self.output_attr = output_attr or default
        self.name = name or f"{'avg' if average else 'sum'}({attr})"
        # Cumulative antiderivative pieces of the input signal; continuous
        # by construction (each piece's constant chains the previous
        # piece's closing value — the paper's cached segment integrals C).
        # Pieces are disjoint and in time order (a new piece starts at or
        # after the last one's end), so their starts — kept beside them,
        # plain and shifted by +window — are sorted and every lookup is a
        # bisect.  Both lists are derived: rebuilt on unpickle, not stored.
        self._cum: list[Piece] = []
        self._starts: list[float] = []
        self._shifted: list[float] = []
        self._signal_start = math.nan
        self._signal_end = math.nan
        self._emitted_to = math.nan
        #: Count of revisions: arrivals overriding previously seen signal
        #: (predictive re-modeling revises the future, Section II-B's
        #: successor-overrides-overlap update semantics).
        self.revisions = 0
        #: Count of gap-filled (zero-signal) spans between segments.
        self.gaps_filled = 0
        #: Count of window-function pieces not emitted because their head
        #: or tail instant fell into a sub-``EPS`` hole between pieces.
        self.windows_skipped = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_starts"], state["_shifted"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._starts = [p.interval.lo for p in self._cum]
        self._shifted = [lo + self.window for lo in self._starts]

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def signal_range(self) -> tuple[float, float] | None:
        if math.isnan(self._signal_start):
            return None
        return (self._signal_start, self._signal_end)

    def cumulative(self, t: float) -> float:
        """``A(t)``: the integral of the signal from its start to ``t``."""
        piece = self._piece_containing(t)
        if piece is None:
            raise ValueError(f"t={t} outside the aggregated signal range")
        return piece.poly(t)

    def _piece_containing(self, t: float) -> Piece | None:
        # Disjoint pieces: only the last one starting at or before ``t``
        # can contain it.
        i = bisect_right(self._starts, t)
        if i and self._cum[i - 1].interval.contains(t):
            return self._cum[i - 1]
        if self._cum and abs(t - self._cum[-1].interval.hi) <= EPS:
            return self._cum[-1]
        return None

    def reset(self) -> None:
        self._cum.clear()
        self._starts.clear()
        self._shifted.clear()
        self._signal_start = math.nan
        self._signal_end = math.nan
        self._emitted_to = math.nan

    # ------------------------------------------------------------------
    # segment processing
    # ------------------------------------------------------------------
    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        poly = resolve_model(segment, self.attr)
        lo, hi = segment.t_start, segment.t_end

        if math.isnan(self._signal_start):
            self._signal_start = lo
            self._signal_end = lo
            self._emitted_to = lo + self.window

        if lo < self._signal_end - EPS:
            # Successor-overrides-overlap (Section II-B): the newer model
            # replaces the signal from its own start onward — this is how
            # predictive re-modeling revises the precomputed future.
            self.revisions += 1
            self._truncate_to(lo)
        elif lo > self._signal_end + EPS and self._cum:
            # Gap: the signal is unknown; integrate it as zero so window
            # functions remain defined (counted for diagnostics).
            self.gaps_filled += 1
            self._append_piece(self._signal_end, lo, Polynomial.zero())

        self._append_piece(max(lo, self._signal_end if self._cum else lo), hi, poly)
        outputs = self._emit_window_functions(segment)
        self._evict()
        return outputs

    def _truncate_to(self, t: float) -> None:
        """Discard the signal (and emission progress) from ``t`` onward."""
        # Ends are monotone: every piece before the last one starting
        # within ``t + EPS`` ends there too and is kept whole; that one
        # is kept whole, cut at ``t`` or dropped; the rest go.
        keep = bisect_right(self._starts, t + EPS)
        if keep and self._cum[keep - 1].interval.hi > t + EPS:
            lo = self._starts[keep - 1]
            if lo < t - EPS:
                self._cum[keep - 1] = Piece(
                    Interval(lo, t), self._cum[keep - 1].poly
                )
            else:
                keep -= 1
        del self._cum[keep:], self._starts[keep:], self._shifted[keep:]
        if self._cum:
            self._signal_end = self._cum[-1].interval.hi
        else:
            # The revision starts before any retained history.
            self._signal_start = t
            self._signal_end = t
        self._emitted_to = min(self._emitted_to, max(t, self._signal_start + self.window))

    def _append_piece(self, lo: float, hi: float, poly: Polynomial) -> None:
        if hi - lo <= EPS:
            return
        anti = poly.antiderivative()
        if self._cum:
            prev = self._cum[-1]
            offset = prev.poly(prev.interval.hi) - anti(lo)
        else:
            offset = -anti(lo)
        self._cum.append(Piece(Interval(lo, hi), anti + offset))
        self._starts.append(lo)
        self._shifted.append(lo + self.window)
        self._signal_end = hi

    def _emit_window_functions(self, cause: Segment) -> list[Segment]:
        """Emit wf segments for the close-times newly covered by the signal.

        A close ``c`` is computable once the signal covers ``[c - w, c]``;
        the newly covered closes form ``[emitted_to, signal_end)``.
        Within that range, wf is a single polynomial wherever ``c`` stays
        in one cumulative piece and ``c - w`` in another — breakpoints are
        the piece boundaries and the piece boundaries shifted by ``+w``.
        """
        start = self._emitted_to
        end = self._signal_end
        if end <= start + EPS:
            return []
        ordered = self._breakpoints(start, end)
        outputs: list[Segment] = []
        for a, b in zip(ordered[:-1], ordered[1:]):
            if b - a <= EPS:
                continue
            mid = 0.5 * (a + b)
            head = self._piece_containing(mid)
            tail = self._piece_containing(mid - self.window)
            if head is None or tail is None:
                from ...engine.metrics import get_counter

                self.windows_skipped += 1
                get_counter("aggregate.windows_skipped").bump()
                continue
            wf = head.poly - tail.poly.shift(-self.window)
            if self.average:
                wf = wf / self.window
            outputs.append(
                Segment(
                    key=cause.key,
                    t_start=a,
                    t_end=b,
                    models={self.output_attr: wf},
                    constants=dict(cause.constants),
                    lineage=(cause.seg_id,),
                )
            )
        self._emitted_to = end
        return outputs

    def _breakpoints(self, start: float, end: float) -> list[float]:
        """``start``, ``end`` and, strictly between them, every piece
        start and every piece start shifted by ``+window``, ascending."""
        breakpoints = {start, end}
        for bounds in (self._starts, self._shifted):
            breakpoints.update(
                bounds[bisect_right(bounds, start):bisect_left(bounds, end)]
            )
        return sorted(breakpoints)

    def _evict(self) -> None:
        if math.isinf(self.retention):
            return
        horizon = (
            self._signal_end - self.window - (self.slide or 0.0)
            - self.retention - EPS
        )
        # Ends are monotone, so what falls behind the horizon is a prefix.
        cum, drop = self._cum, 0
        while drop < len(cum) and not cum[drop].interval.hi > horizon:
            drop += 1
        if drop:
            del cum[:drop], self._starts[:drop], self._shifted[:drop]

    # ------------------------------------------------------------------
    # direct evaluation
    # ------------------------------------------------------------------
    def window_value(self, close: float) -> float:
        """Evaluate the window function directly: ``A(c) - A(c - w)``."""
        value = self.cumulative(close) - self.cumulative(close - self.window)
        if self.average:
            value /= self.window
        return value

    def window_closes(self, lo: float, hi: float) -> list[float]:
        """Close instants on the slide grid within ``[lo, hi)``."""
        if not self.slide:
            raise ValueError("window_closes requires a slide parameter")
        first = math.ceil(lo / self.slide) * self.slide
        closes = []
        c = first
        while c < hi - EPS:
            closes.append(c)
            c += self.slide
        return closes


def make_aggregate(
    func: str,
    attr: str,
    window: float | None = None,
    slide: float | None = None,
    output_attr: str | None = None,
) -> ContinuousOperator:
    """Factory dispatching on the aggregate function name.

    Frequency-based aggregates (``count`` and friends) raise
    :class:`UnsupportedAggregateError`, mirroring the paper's
    transformation limitations.
    """
    from .aggregate_minmax import ContinuousExtremumAggregate

    func = func.lower()
    if func in ("min", "max"):
        return ContinuousExtremumAggregate(
            attr, func=func, window=window, slide=slide, output_attr=output_attr
        )
    if func in ("sum", "avg"):
        if window is None:
            raise ValueError(f"{func} aggregate requires a window")
        return ContinuousSumAggregate(
            attr,
            window=window,
            slide=slide,
            average=(func == "avg"),
            output_attr=output_attr,
        )
    raise UnsupportedAggregateError(
        f"aggregate {func!r} is frequency-based or unknown; the continuous "
        "transform supports min, max, sum, avg"
    )
