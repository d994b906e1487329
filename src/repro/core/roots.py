"""Root finding and sign tests for difference polynomials.

The selective-operator transform (Section III-A) reduces predicate
evaluation to locating where a difference polynomial ``(x - y)(t)``
crosses zero inside a segment's valid time range, then running sign tests
between consecutive roots to recover the satisfying time ranges.

The paper names Newton's method and Brent's method [3] as the root-finding
workhorses; both are implemented here from scratch.  For polynomials we
additionally use the closed forms for degrees one and two and the
companion-matrix eigenvalue method (via numpy) for higher degrees, with a
Newton polish step for accuracy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import SolverError, SolverFailure
from .intervals import EPS, Interval, TimeSet
from .polynomial import Polynomial
from .relation import Rel

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


def _root_budget() -> int:
    """The configured per-row root-count budget (lazy import: no cycle)."""
    from .batch_solver import SOLVER_CONFIG

    return SOLVER_CONFIG.max_roots_per_row

#: Tolerance for deduplicating nearby roots.
ROOT_MERGE_TOL = 1e-9

#: Values of |p(root)| above this (relative to coefficient scale) are rejected.
RESIDUAL_TOL = 1e-6


def newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> float | None:
    """Newton–Raphson iteration; returns ``None`` on non-convergence."""
    x = x0
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) < tol:
            return x
        d = fprime(x)
        if d == 0.0 or not math.isfinite(d):
            return None
        step = fx / d
        x -= step
        if not math.isfinite(x):
            return None
        if abs(step) < tol * max(1.0, abs(x)):
            return x
    return x if abs(f(x)) < math.sqrt(tol) else None


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


def _deflate(
    coeffs: tuple[float, ...],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> tuple[float, ...]:
    """Drop numerically meaningless leading coefficients.

    Two guards, both numeric rather than value-based trimming:

    * denormal leading coefficients would produce infs when the
      companion matrix divides by them;
    * over a *finite* solving domain, a leading term whose maximum
      contribution ``|c_n| T^n`` (``T`` the domain's magnitude bound)
      sits below double-precision resolution of the other terms'
      contributions cannot move any root inside the domain, but it
      wrecks the companion matrix's conditioning (e.g. ``1 - 2 t^2 +
      1e-191 t^3``: the spurious eigenvalue at ~1e191 destroys the
      accuracy of the finite roots).
    """
    scale = max(abs(v) for v in coeffs)
    threshold = max(scale * 1e-290, 5e-308)
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


def real_roots(
    poly: Polynomial, lo: float = -math.inf, hi: float = math.inf
) -> list[float]:
    """All real roots of ``poly`` within ``[lo, hi]``, sorted ascending.

    Roots are deduplicated; a root of even multiplicity appears once.  The
    zero polynomial has uncountably many roots and raises ``SolverError`` —
    callers must special-case it (the predicate holds everywhere).
    """
    if poly.is_zero:
        raise SolverFailure(
            "zero-polynomial", "the zero polynomial has no discrete root set"
        )
    check_coefficients(poly.coeffs)
    if poly.degree > _root_budget():
        raise SolverFailure(
            "root-budget",
            f"degree {poly.degree} exceeds the root budget {_root_budget()}",
        )
    c = _deflate(poly.coeffs, lo, hi)
    if len(c) == 1:
        return []
    # Exact low-order zero coefficients factor out as roots at t = 0,
    # so the kernel a row lands on is decided by the *inner* length
    # after that popping (mirrors the batched bucketing).
    lead_zeros = 0
    while lead_zeros < len(c) - 1 and c[lead_zeros] == 0.0:
        lead_zeros += 1
    if len(c) - lead_zeros in (4, 5):
        # Cubics and quartics funnel through the batched kernel as a
        # one-row batch (closed-form Cardano/Ferrari, with its per-row
        # companion fallback).  Every kernel step there is
        # an elementwise ufunc, so a one-row batch computes exactly
        # what the same row computes inside any larger batch — scalar
        # and batched solves stay bit-identical by construction.
        from .batch_solver import real_roots_rows

        return real_roots_rows([(poly.coeffs, lo, hi)])[0]
    if len(c) == 2:
        roots = [-c[0] / c[1]]
    elif len(c) == 3:
        roots = _quadratic_roots(c[0], c[1], c[2])
    else:
        roots = _companion_roots(Polynomial(c))
    roots = [r for r in roots if math.isfinite(r)]
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > ROOT_MERGE_TOL * max(1.0, abs(r)):
            merged.append(r)
    span = max((abs(r) for r in merged), default=1.0)
    pad = EPS * max(1.0, span)
    return [r for r in merged if lo - pad <= r <= hi + pad]


def _companion_roots(poly: Polynomial) -> list[float]:
    """Roots of a degree >= 3 polynomial via companion-matrix eigenvalues,
    polished with a Newton step."""
    # numpy.roots expects descending coefficients.
    try:
        eigen = np.roots(list(reversed(poly.coeffs)))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverFailure(
            "eigvals", f"companion eigensolve failed: {exc}"
        ) from exc
    scale = max(abs(v) for v in poly.coeffs)
    deriv = poly.derivative()
    out: list[float] = []
    for z in eigen:
        if abs(z.imag) > IMAG_TOL * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        polished = newton(poly, deriv, x)
        if polished is not None:
            x = polished
        if abs(poly(x)) <= RESIDUAL_TOL * max(1.0, scale):
            out.append(x)
    return out


def solve_relation(
    poly: Polynomial, rel: Rel, lo: float, hi: float
) -> TimeSet:
    """Solve ``poly(t) R 0`` for ``t`` in the half-open domain ``[lo, hi)``.

    Returns a :class:`TimeSet`: intervals where an inequality holds, and
    isolated points for equality predicates (this is how selective
    operators with ``=`` comparisons reduce segments to instants,
    Section III-C).
    """
    if lo >= hi:
        return TimeSet.empty()
    # Guardrail before the cheap branches: a NaN "constant" would
    # otherwise silently evaluate to an empty solution instead of
    # flagging the broken model to the caller.
    check_coefficients(poly.coeffs)
    if poly.is_zero:
        if rel.includes_equality:
            return TimeSet.interval(lo, hi)
        return TimeSet.empty()
    if poly.is_constant:
        if rel.holds(poly.coeffs[0]):
            return TimeSet.interval(lo, hi)
        return TimeSet.empty()

    roots = real_roots(poly, lo, hi)
    interior = [r for r in roots if lo < r < hi]

    if rel is Rel.EQ:
        points = [r for r in roots if lo - EPS <= r < hi]
        return TimeSet.from_points(points)
    # NE and the inequalities share the sign-test machinery: NE's
    # solution is the full domain minus the measure-zero roots, i.e.
    # exactly the subintervals between roots that the sign tests keep.
    return _sign_intervals(poly, rel, lo, hi, interior)


def _sign_intervals(
    poly: Polynomial,
    rel: Rel,
    lo: float,
    hi: float,
    interior_roots: Sequence[float],
) -> TimeSet:
    """Sign-test the subintervals delimited by the interior roots."""
    boundaries = [lo, *interior_roots, hi]
    intervals: list[Interval] = []
    points: list[float] = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if b - a <= EPS:
            continue
        mid = 0.5 * (a + b)
        if rel.holds(poly(mid)):
            intervals.append(Interval(a, b))
    if rel.includes_equality and rel is not Rel.EQ:
        # LE / GE additionally hold exactly at the roots; isolated roots not
        # adjacent to a satisfying interval must be kept as points.
        solution = TimeSet(intervals=intervals)
        for r in interior_roots:
            if not solution.contains(r, tol=EPS):
                points.append(r)
    return TimeSet(intervals=intervals, points=points)
