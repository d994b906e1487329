"""One-row calls into the shipped batched root kernel, and the check that
holds its answers to exact arithmetic.

The behaviour tests of root finding and sign solving exercise the path
the engine runs, :mod:`repro.core.batch_solver`, one row at a time.
:func:`assert_matches_exact` and :func:`assert_roots_match_exact` compare
what it returns with :mod:`tests.exact` up to the error floats cannot
avoid:

* a solution's intervals may differ from the exact ones by a measure of
  at most ``DELTA`` times the row's time scale (the largest finite
  magnitude among the domain's and both sets' ends, at least 1); so no
  exact interval longer than that is missed;
* a reported root or point must lie that close to a root of ``p``, or
  to a root of ``p'`` where ``p`` is double-rooted as far as floats can
  tell (:func:`_double`); an exact root, or an exact isolated point (a root where
  ``=``, ``<=`` or ``>=`` holds), may be missed only that close to a
  root of ``p'`` or to the domain's ends: a pair of roots closer than
  float evaluation resolves is a double root to it, whether the pair is
  real or complex, and is reported once at its vertex or not at all.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.core.batch_solver import real_roots_batch, solve_relation_batch
from repro.core.intervals import TimeSet
from tests import exact

#: Relative width of an exact root enclosure: far below any float error.
W = 2.0**-60
#: Relative measure by which the kernel's set may differ from the exact
#: one: the ~sqrt(eps) that a double root's conditioning costs, with room.
DELTA = 1e-6


def kernel_real_roots(poly, lo=-math.inf, hi=math.inf):
    (roots,) = real_roots_batch([(poly, lo, hi)])
    return roots


def kernel_solve_relation(poly, rel, lo, hi):
    (solution,) = solve_relation_batch([(poly, rel, lo, hi)])
    return solution


def scale_of(lo, hi, *interval_lists) -> float:
    ends = [lo, hi] + [x for ivs in interval_lists for pair in ivs for x in pair]
    return max([1.0] + [abs(float(x)) for x in ends if not math.isinf(x)])


def _critical(poly, lo, hi, tol) -> list:
    """Exact roots of ``poly'`` within ``tol`` of the domain."""
    return exact.roots(poly.derivative().coeffs, lo - tol, hi + tol, W)


def assert_matches_exact(got: TimeSet, poly, rel, lo, hi) -> None:
    """``got`` is the set where ``poly rel 0`` on ``[lo, hi)``."""
    want, want_points = exact.solve(poly.coeffs, rel, lo, hi, W)
    mine = [(iv.lo, iv.hi) for iv in got.intervals]
    points = [(x, x) for x in [*got.points, *want_points]]
    tol = DELTA * scale_of(lo, hi, mine, want, points)
    assert exact.symmetric_difference(mine, want) <= tol, (mine, want)
    _assert_points(list(got.points), want_points, got, poly, lo, hi, tol)


def assert_roots_match_exact(roots, poly, lo, hi) -> None:
    """``roots`` are the distinct real roots of ``poly`` in ``[lo, hi]``."""
    want = exact.roots(poly.coeffs, lo, hi, W)
    tol = DELTA * scale_of(lo, hi, [(x, x) for x in [*roots, *want]])
    _assert_points(roots, want, TimeSet.empty(), poly, lo, hi, tol)
    assert roots == sorted(set(roots))


def _double(coeffs, c, tol, roots) -> bool:
    """Whether ``p`` is double-rooted at the critical point ``c`` as far
    as floats can tell: ``|p(c)|`` is within ``DELTA**2`` of the row's
    size there, ``sum |c_i| max(1, |c|)**i``, or an exact root lies
    within ``tol``."""
    m = max(1, abs(c))
    value = sum(Fraction(a) * c**i for i, a in enumerate(coeffs))
    size = sum(abs(Fraction(a)) * m**i for i, a in enumerate(coeffs))
    return abs(value) <= DELTA**2 * size or any(abs(c - r) <= tol for r in roots)


def _assert_points(found, want, got, poly, lo, hi, tol) -> None:
    near = exact.roots(poly.coeffs, lo - tol, hi + tol, W)
    critical = [
        c for c in _critical(poly, lo, hi, tol) if _double(poly.coeffs, c, tol, near)
    ]
    excused = [lo, hi, *critical]
    for r in want:
        assert got.contains(float(r), tol=tol) or any(
            abs(r - x) <= tol for x in [*found, *excused]
        ), (float(r), found, poly.coeffs)
    for x in found:
        assert any(abs(x - r) <= tol for r in near + critical), (x, poly.coeffs)
