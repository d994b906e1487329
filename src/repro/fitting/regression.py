"""Least-squares polynomial regression for model fitting.

Pulse's historical mode computes continuous-time models of recorded
streams; the primitive underneath every segmentation algorithm is "fit
the best degree-d polynomial to these points and report the residual".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.polynomial import Polynomial


@dataclass(frozen=True)
class FitResult:
    """A fitted polynomial with its residual statistics."""

    poly: Polynomial
    max_error: float
    rms_error: float

    def within(self, tolerance: float) -> bool:
        return self.max_error <= tolerance


def fit_polynomial(
    times: Sequence[float],
    values: Sequence[float],
    degree: int = 1,
) -> FitResult:
    """Least-squares fit of ``values`` over ``times``.

    Degenerate inputs are handled explicitly: a single point fits a
    constant; ``degree`` is clamped to ``len(points) - 1``.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size == 0:
        raise ValueError("cannot fit an empty point set")
    if t.size == 1:
        poly = Polynomial([float(y[0])])
        return FitResult(poly, 0.0, 0.0)
    degree = min(degree, t.size - 1)
    # Shift times so the normal equations stay well conditioned for
    # large absolute timestamps, then shift the polynomial back.
    t0 = float(t[0])
    coeffs = np.polynomial.polynomial.polyfit(t - t0, y, degree)
    poly = Polynomial(coeffs.tolist()).shift(-t0)
    residuals = y - poly(t)
    max_err = float(np.max(np.abs(residuals)))
    rms = float(np.sqrt(np.mean(residuals**2)))
    return FitResult(poly, max_err, rms)
