"""Online time-series segmentation: points → piecewise linear models.

The paper's historical processing fits models "via an online
segmentation-based algorithm [13]" — Keogh, Chu, Hart & Pazzani's "An
online algorithm for segmenting time series" (ICDM 2001).  Of the
strategies that paper defines, Pulse runs the online one, the
**sliding window**: grow a segment until the fit error exceeds the
tolerance, then cut.  :class:`OnlineSegmenter` is that algorithm for one
attribute of one key; it returns :class:`SegmentFit` pieces, with
tolerance the maximum absolute residual, matching Pulse's absolute
error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.polynomial import Polynomial


@dataclass(frozen=True)
class SegmentFit:
    """One fitted piece: ``[t_start, t_end)`` with its model and error."""

    t_start: float
    t_end: float
    poly: Polynomial
    max_error: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class OnlineSegmenter:
    """Streaming sliding-window segmenter (one attribute, one key).

    Feed points with :meth:`add`; completed pieces are returned as they
    close.  :meth:`finish` flushes the trailing open piece.

    The linear (degree-1) path is O(1) per point and builds no
    :class:`Polynomial` until a piece closes: the least-squares line is
    maintained from running sums, and the cut test checks the incoming
    point's residual against the current line in plain floats — the
    standard online approximation of the sliding-window algorithm, which
    is what makes model fitting viable at the stream rates of Fig. 8.
    """

    def __init__(self, tolerance: float, degree: int = 1):
        if degree != 1:
            raise ValueError("OnlineSegmenter is the O(1)-per-point linear fitter")
        self.tolerance = tolerance
        self.degree = degree
        #: Points consumed (throughput accounting for Fig. 8's inset).
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

    def _coeffs(self) -> tuple[float, float]:
        """Current least-squares line ``c0 + c1*t`` from the running sums.

        ``c1 == 0.0`` means a constant.  The sums are relative to ``_t0``
        for conditioning; the line is shifted back to absolute time with
        exactly the float operations of
        ``Polynomial([intercept, slope]).shift(-t0)`` — zero coefficients
        skipped, ``delta == 0`` a no-op — so the line a point is tested
        against and the model a closed piece carries are that polynomial,
        bit for bit.
        """
        n = self._n
        if n == 1:
            return self._first_y, 0.0
        sum_t = self._sum_t
        sum_y = self._sum_y
        denom = n * self._sum_tt - sum_t**2
        if abs(denom) < 1e-18:
            return sum_y / n, 0.0
        slope = (n * self._sum_ty - sum_t * sum_y) / denom
        intercept = (sum_y - slope * sum_t) / n
        delta = -self._t0
        if delta == 0.0:
            return intercept, slope
        c0 = intercept if intercept != 0.0 else 0.0
        if slope == 0.0:
            return c0, 0.0
        return c0 + slope * delta, slope

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
        """Add a point; returns a completed piece when one closes."""
        self.points_consumed += 1
        if self._n < 2:
            self._ingest(t, value)
            return None
        c0, c1 = self._coeffs()
        # Evaluated as Polynomial((c0, c1))(t) would: Horner, or
        # ``c0 + 0.0 * t`` for a constant.
        resid = abs(value - (c1 * t + c0 if c1 else c0 + 0.0 * t))
        if resid <= self.tolerance:
            self._ingest(t, value)
            if resid > self._max_resid:
                self._max_resid = resid
            return None
        closed = SegmentFit(self._first_t, t, Polynomial((c0, c1)), self._max_resid)
        self._reset_window()
        self._ingest(t, value)
        return closed

    def finish(self) -> SegmentFit | None:
        """Close and return the trailing piece, if any."""
        if self._n == 0:
            return None
        closed = SegmentFit(
            self._first_t,
            self._last_t + 1e-9 if self._last_t <= self._first_t else self._last_t,
            Polynomial(self._coeffs()),
            self._max_resid,
        )
        self._reset_window()
        return closed
