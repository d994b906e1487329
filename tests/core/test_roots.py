"""Tests for root finding and sign-test solving.

The root and relation tests drive the shipped kernel with one-row
batches; Brent is the bracketing finder the root-finder ablation
compares the kernel against.
"""

import math

import pytest

from repro.core.errors import SolverError
from repro.core.polynomial import Polynomial
from repro.core.relation import Rel
from tests.kernel import kernel_real_roots, kernel_solve_relation
from tests.oracles import brent


class TestBrent:
    def test_simple_root(self):
        root = brent(lambda x: x * x - 2, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_endpoint_roots(self):
        assert brent(lambda x: x, 0.0, 1.0) == 0.0
        assert brent(lambda x: x - 1, 0.0, 1.0) == 1.0

    def test_requires_bracket(self):
        with pytest.raises(SolverError):
            brent(lambda x: x * x + 1, -1.0, 1.0)

    def test_nasty_flat_function(self):
        # f has a very flat region; Brent still converges.
        f = lambda x: (x - 0.3) ** 3
        assert brent(f, 0.0, 1.0) == pytest.approx(0.3, abs=1e-4)


class TestRealRoots:
    def test_constant_has_no_roots(self):
        assert kernel_real_roots(Polynomial([5.0])) == []

    def test_zero_polynomial_raises(self):
        with pytest.raises(SolverError):
            kernel_real_roots(Polynomial([0.0]))

    def test_linear(self):
        assert kernel_real_roots(Polynomial([-2.0, 1.0])) == [pytest.approx(2.0)]

    def test_quadratic_two_roots(self):
        # (t-1)(t-3) = 3 - 4t + t^2
        roots = kernel_real_roots(Polynomial([3.0, -4.0, 1.0]))
        assert roots == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_quadratic_no_real_roots(self):
        assert kernel_real_roots(Polynomial([1.0, 0.0, 1.0])) == []

    def test_quadratic_double_root_deduplicated(self):
        # (t-2)^2
        roots = kernel_real_roots(Polynomial([4.0, -4.0, 1.0]))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0)

    def test_quadratic_cancellation_stability(self):
        # Roots 1e-8 and 1e8: classic cancellation case.
        p = Polynomial([1.0, -(1e8 + 1e-8), 1.0])
        roots = kernel_real_roots(p)
        assert roots[0] == pytest.approx(1e-8, rel=1e-6)
        assert roots[1] == pytest.approx(1e8, rel=1e-9)

    def test_cubic(self):
        # (t+1)t(t-2) = t^3 - t^2 - 2t
        roots = kernel_real_roots(Polynomial([0.0, -2.0, -1.0, 1.0]))
        assert roots == [
            pytest.approx(-1.0),
            pytest.approx(0.0, abs=1e-9),
            pytest.approx(2.0),
        ]

    def test_quintic_mixed_roots(self):
        # (t^2+1)(t-1)(t-2)(t-3): only three real roots.
        p = (
            Polynomial([1.0, 0.0, 1.0])
            * Polynomial([-1.0, 1.0])
            * Polynomial([-2.0, 1.0])
            * Polynomial([-3.0, 1.0])
        )
        roots = kernel_real_roots(p)
        assert len(roots) == 3
        for got, want in zip(roots, [1.0, 2.0, 3.0]):
            assert got == pytest.approx(want, abs=1e-7)

    def test_domain_filtering(self):
        p = Polynomial([3.0, -4.0, 1.0])  # roots 1, 3
        assert kernel_real_roots(p, 0.0, 2.0) == [pytest.approx(1.0)]
        assert kernel_real_roots(p, 2.0, 4.0) == [pytest.approx(3.0)]
        assert kernel_real_roots(p, 1.5, 2.5) == []


class TestSolveRelation:
    def test_linear_lt(self):
        # t - 5 < 0 on [0, 10) -> [0, 5)
        sol = kernel_solve_relation(Polynomial([-5.0, 1.0]), Rel.LT, 0.0, 10.0)
        assert len(sol.intervals) == 1
        assert sol.intervals[0].lo == pytest.approx(0.0)
        assert sol.intervals[0].hi == pytest.approx(5.0)

    def test_linear_gt(self):
        sol = kernel_solve_relation(Polynomial([-5.0, 1.0]), Rel.GT, 0.0, 10.0)
        assert sol.intervals[0].lo == pytest.approx(5.0)
        assert sol.intervals[0].hi == pytest.approx(10.0)

    def test_equality_gives_points(self):
        sol = kernel_solve_relation(Polynomial([-5.0, 1.0]), Rel.EQ, 0.0, 10.0)
        assert sol.intervals == ()
        assert sol.points == (pytest.approx(5.0),)

    def test_equality_no_solution(self):
        sol = kernel_solve_relation(Polynomial([1.0, 0.0, 1.0]), Rel.EQ, -10, 10)
        assert sol.is_empty

    def test_zero_polynomial_le_everywhere(self):
        sol = kernel_solve_relation(Polynomial([0.0]), Rel.LE, 0.0, 1.0)
        assert sol.measure == pytest.approx(1.0)

    def test_zero_polynomial_lt_nowhere(self):
        assert kernel_solve_relation(Polynomial([0.0]), Rel.LT, 0.0, 1.0).is_empty

    def test_constant_polynomial(self):
        assert kernel_solve_relation(Polynomial([3.0]), Rel.GT, 0, 1).measure == 1.0
        assert kernel_solve_relation(Polynomial([3.0]), Rel.LT, 0, 1).is_empty

    def test_quadratic_between_roots(self):
        # (t-1)(t-3) < 0 on (1, 3)
        sol = kernel_solve_relation(Polynomial([3.0, -4.0, 1.0]), Rel.LT, 0.0, 10.0)
        assert len(sol.intervals) == 1
        assert sol.intervals[0].lo == pytest.approx(1.0)
        assert sol.intervals[0].hi == pytest.approx(3.0)

    def test_quadratic_outside_roots(self):
        sol = kernel_solve_relation(Polynomial([3.0, -4.0, 1.0]), Rel.GT, 0.0, 10.0)
        assert len(sol.intervals) == 2

    def test_le_touching_point_kept(self):
        # (t-2)^2 <= 0 holds only at t=2: an isolated point.
        sol = kernel_solve_relation(Polynomial([4.0, -4.0, 1.0]), Rel.LE, 0.0, 10.0)
        assert sol.intervals == ()
        assert sol.points == (pytest.approx(2.0),)

    @pytest.mark.parametrize("sign, rel", [(1.0, Rel.LE), (-1.0, Rel.GE)])
    def test_touching_root_at_domain_start_kept(self, sign, rel):
        # t^2 <= 0 (and -t^2 >= 0) on [0, 1) holds only at t = 0, the
        # domain's closed end: the same point t^2 = 0 gives.
        p = Polynomial([0.0, 0.0, sign])
        sol = kernel_solve_relation(p, rel, 0.0, 1.0)
        eq = kernel_solve_relation(p, Rel.EQ, 0.0, 1.0)
        assert sol.intervals == ()
        assert sol.points == eq.points == (0.0,)

    @pytest.mark.parametrize("rel", [Rel.LE, Rel.EQ])
    def test_touching_root_at_domain_end_excluded(self, rel):
        # (t-1)^2 <= 0 on [0, 1): the root is the open end, outside.
        sol = kernel_solve_relation(Polynomial([1.0, -2.0, 1.0]), rel, 0.0, 1.0)
        assert sol.is_empty

    def test_lt_strict_empty_at_touching_point(self):
        sol = kernel_solve_relation(Polynomial([4.0, -4.0, 1.0]), Rel.LT, 0.0, 10.0)
        assert sol.is_empty

    def test_ne_has_full_measure(self):
        sol = kernel_solve_relation(Polynomial([-5.0, 1.0]), Rel.NE, 0.0, 10.0)
        assert sol.measure == pytest.approx(10.0)

    def test_empty_domain(self):
        assert kernel_solve_relation(Polynomial([1.0, 1.0]), Rel.LT, 5.0, 5.0).is_empty

    def test_solution_clipped_to_domain(self):
        # t > 0 solved on [2, 4) is all of [2, 4).
        sol = kernel_solve_relation(Polynomial([0.0, 1.0]), Rel.GT, 2.0, 4.0)
        assert sol.intervals[0].lo == pytest.approx(2.0)
        assert sol.intervals[0].hi == pytest.approx(4.0)

    def test_sign_consistency_random_samples(self):
        # Every midpoint of the solution must satisfy the relation.
        p = Polynomial([0.5, -2.0, 0.0, 1.0])
        for rel in (Rel.LT, Rel.GT, Rel.LE, Rel.GE):
            sol = kernel_solve_relation(p, rel, -3.0, 3.0)
            for iv in sol.intervals:
                assert rel.holds(p(iv.midpoint))
