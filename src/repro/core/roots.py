"""Root-finding primitives the batched solver kernel is built from.

The selective-operator transform (Section III-A) reduces predicate
evaluation to locating where a difference polynomial ``(x - y)(t)``
crosses zero inside a segment's valid time range.  The one root solver,
:mod:`repro.core.batch_solver`, shares these pieces: the coefficient
guardrail, the tolerances, deflation of numerically meaningless leading
terms and the cancellation-free quadratic formula.  The kernel is held
to exact rational arithmetic (``tests/exact.py``) by
``tests/property/test_batch_solver_parity.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import SolverFailure

#: Tolerance below which an imaginary eigenvalue part is treated as zero.
IMAG_TOL = 1e-8

#: Coefficients beyond this magnitude cannot come from a sane model fit
#: and destroy companion-matrix conditioning (squaring one overflows a
#: double); the guardrail rejects the row instead of solving garbage.
COEFF_MAX = 1e150


def check_coefficients(coeffs: Sequence[float]) -> None:
    """Guardrail: reject coefficient rows no root finder can answer for.

    Raises :class:`SolverFailure` (reason ``"invalid-coefficients"``) on
    NaN/inf entries — the signature of a failed model fit — and on
    absurd magnitudes beyond :data:`COEFF_MAX`.
    """
    # Fast path: one C-level pass each for finiteness and magnitude.
    # This runs per solve row, so the per-element Python loop below is
    # reserved for the failing case (it names the offending value).
    if all(map(math.isfinite, coeffs)) and (
        not coeffs or max(map(abs, coeffs)) <= COEFF_MAX
    ):
        return
    for c in coeffs:
        if not math.isfinite(c):
            raise SolverFailure(
                "invalid-coefficients", f"non-finite coefficient {c!r}"
            )
        if abs(c) > COEFF_MAX:
            raise SolverFailure(
                "invalid-coefficients",
                f"coefficient magnitude {abs(c):.3g} exceeds {COEFF_MAX:g}",
            )


def _deflate(
    coeffs: tuple[float, ...],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> tuple[float, ...]:
    """Drop numerically meaningless leading coefficients.

    A row whose largest coefficient is below 1e-150 is first scaled up
    by a power of two, which is exact, so the formulas' products cannot
    underflow (``1e-308 * (1 + t^2)`` would report a root at 0).  Two
    guards follow, both numeric rather than value-based trimming:

    * a leading coefficient more than 1e290 below the row's largest
      would produce infs when the companion matrix divides by it;
    * over a *finite* solving domain, a leading term whose maximum
      contribution ``|c_n| T^n`` (``T`` the domain's magnitude bound)
      sits below double-precision resolution of the other terms'
      contributions cannot move any root inside the domain, but it
      wrecks the companion matrix's conditioning (e.g. ``1 - 2 t^2 +
      1e-191 t^3``: the spurious eigenvalue at ~1e191 destroys the
      accuracy of the finite roots).
    """
    scale = max(abs(v) for v in coeffs)
    if 0.0 < scale < 1e-150:
        shift = -math.frexp(scale)[1]
        coeffs = tuple(math.ldexp(v, shift) for v in coeffs)
        scale = math.ldexp(scale, shift)
    threshold = scale * 1e-290
    end = len(coeffs)
    while end > 1 and abs(coeffs[end - 1]) < threshold:
        end -= 1
    if math.isfinite(lo) and math.isfinite(hi):
        span = max(abs(lo), abs(hi), 1.0)
        contributions = [abs(c) * span**i for i, c in enumerate(coeffs[:end])]
        cmax = max(contributions)
        while end > 1 and contributions[end - 1] < 1e-14 * cmax:
            end -= 1
    return coeffs[:end]


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[float]:
    """Numerically stable real roots of ``c2 t^2 + c1 t + c0``."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-c1 / (2.0 * c2)]
    sq = math.sqrt(disc)
    # Avoid catastrophic cancellation: compute the larger-magnitude root
    # first, then the other via the product of roots.
    q = -0.5 * (c1 + math.copysign(sq, c1))
    roots = [q / c2]
    if q != 0.0:
        roots.append(c0 / q)
    else:
        roots.append(0.0)
    return roots
