"""Tests for simultaneous equation systems (Equation (1) of the paper)."""

import numpy as np
import pytest

from repro.core.equation_system import DifferenceRow, EquationSystem
from repro.core.expr import Attr, Const
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison, Not, Or
from repro.core.relation import Rel

# Figure 1's example: A.x = A.x0 + A.v t, B.y = B.v t + B.a t^2.
FIG1_MODELS = {
    "A.x": Polynomial([4.0, 1.0]),        # 4 + t
    "B.y": Polynomial([0.0, 2.0, 0.5]),   # 2t + 0.5t^2
}


def resolve(name):
    return FIG1_MODELS[name]


def system(pred):
    return EquationSystem.from_predicate(pred, resolve)


class TestConstruction:
    def test_figure1_difference_row(self):
        # A.x < B.y  ->  (A.x - B.y)(t) < 0  ->  4 + t - 2t - 0.5t^2 < 0.
        sys = system(Comparison(Attr("A.x"), Rel.LT, Attr("B.y")))
        assert len(sys.rows) == 1
        assert sys.rows[0].poly.coeffs == pytest.approx((4.0, -1.0, -0.5))
        assert sys.rows[0].rel is Rel.LT

    def test_conjunction_builds_multiple_rows(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.LT, Attr("B.y")),
            Comparison(Attr("A.x"), Rel.GT, Const(0.0)),
        )
        sys = system(pred)
        assert len(sys.rows) == 2
        assert sys.is_conjunctive

    def test_coefficient_matrix_shape(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.LT, Attr("B.y")),
            Comparison(Attr("A.x"), Rel.GT, Const(0.0)),
        )
        D = system(pred).coefficient_matrix()
        assert D.shape == (2, 3)
        # Row evaluation through the matrix equals row polynomial evaluation.
        t = 1.7
        tv = np.array([1.0, t, t * t])
        vals = D @ tv
        sys = system(pred)
        assert vals[0] == pytest.approx(sys.rows[0].poly(t))
        assert vals[1] == pytest.approx(sys.rows[1].poly(t))

    def test_disjunction_not_conjunctive(self):
        pred = Or(
            Comparison(Attr("A.x"), Rel.LT, Const(0.0)),
            Comparison(Attr("A.x"), Rel.GT, Const(10.0)),
        )
        assert not system(pred).is_conjunctive


class TestSolving:
    def test_figure1_solution(self):
        # 4 - t - 0.5 t^2 < 0: positive root at t = (-1 + sqrt(33)) / 1... solve:
        # 0.5t^2 + t - 4 = 0 -> t = (-1 + 3) / 1 = 2.  So solution is (2, 10).
        sys = system(Comparison(Attr("A.x"), Rel.LT, Attr("B.y")))
        sol = sys.solve(0.0, 10.0)
        assert len(sol.intervals) == 1
        assert sol.intervals[0].lo == pytest.approx(2.0)
        assert sol.intervals[0].hi == pytest.approx(10.0)

    def test_conjunction_intersects(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.LT, Attr("B.y")),   # t > 2
            Comparison(Attr("B.y"), Rel.LT, Const(16.0)),   # 0.5t^2+2t-16<0: t<4
        )
        sol = system(pred).solve(0.0, 10.0)
        assert len(sol.intervals) == 1
        assert sol.intervals[0].lo == pytest.approx(2.0)
        assert sol.intervals[0].hi == pytest.approx(4.0)

    def test_disjunction_unions(self):
        pred = Or(
            Comparison(Attr("A.x"), Rel.LT, Const(5.0)),  # 4+t<5: t<1
            Comparison(Attr("A.x"), Rel.GT, Const(7.0)),  # t>3
        )
        sol = system(pred).solve(0.0, 10.0)
        assert len(sol.intervals) == 2

    def test_negation_complements(self):
        pred = Not(Comparison(Attr("A.x"), Rel.LT, Const(5.0)))
        sol = system(pred).solve(0.0, 10.0)
        assert len(sol.intervals) == 1
        assert sol.intervals[0].lo == pytest.approx(1.0)

    def test_empty_solution_means_no_output(self):
        pred = Comparison(Attr("A.x"), Rel.LT, Const(0.0))  # 4 + t < 0 never on [0,10)
        assert system(pred).solve(0.0, 10.0).is_empty

    def test_equality_yields_point(self):
        pred = Comparison(Attr("A.x"), Rel.EQ, Const(6.0))  # t = 2
        sol = system(pred).solve(0.0, 10.0)
        assert sol.points == (pytest.approx(2.0),)

    def test_empty_domain(self):
        pred = Comparison(Attr("A.x"), Rel.LT, Attr("B.y"))
        assert system(pred).solve(5.0, 5.0).is_empty

    def test_holds_at_matches_solution(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.LT, Attr("B.y")),
            Comparison(Attr("B.y"), Rel.LT, Const(16.0)),
        )
        sys = system(pred)
        sol = sys.solve(0.0, 10.0)
        for t in np.linspace(0.05, 9.95, 67):
            assert sys.holds_at(t) == sol.contains(t), t


class TestEqualitySystem:
    def _system(self, models, *attrs):
        pred = None
        for attr in attrs:
            cmp = Comparison(Attr(attr), Rel.EQ, Const(0.0))
            pred = cmp if pred is None else And(pred, cmp)
        return EquationSystem.from_predicate(pred, models.__getitem__)

    def test_consistent_system_solved(self):
        # Two equations sharing root t = 2: (t - 2) = 0 and (t^2 - 4) = 0.
        models = {"p1": Polynomial([-2.0, 1.0]), "p2": Polynomial([-4.0, 0.0, 1.0])}
        sol = self._system(models, "p1", "p2").solve(0.0, 10.0)
        assert sol.points == (pytest.approx(2.0),)

    def test_inconsistent_system_empty(self):
        # t - 2 = 0 and t - 3 = 0 cannot hold simultaneously.
        models = {"p1": Polynomial([-2.0, 1.0]), "p2": Polynomial([-3.0, 1.0])}
        assert self._system(models, "p1", "p2").solve(0.0, 10.0).is_empty

    def test_identical_rows_degenerate(self):
        models = {"p1": Polynomial([-2.0, 1.0]), "p2": Polynomial([-2.0, 1.0])}
        sol = self._system(models, "p1", "p2").solve(0.0, 10.0)
        assert sol.points == (pytest.approx(2.0),)

    def test_all_zero_rows_hold_everywhere(self):
        models = {"p": Polynomial([0.0])}
        sys = self._system(models, "p", "p")
        assert sys.solve(0.0, 1.0).measure == pytest.approx(1.0)

    def test_three_row_overdetermined(self):
        # (t-2), (t^2-4), (t^3-8): all share root 2 only.
        models = {
            "p1": Polynomial([-2.0, 1.0]),
            "p2": Polynomial([-4.0, 0.0, 1.0]),
            "p3": Polynomial([-8.0, 0.0, 0.0, 1.0]),
        }
        sol = self._system(models, "p1", "p2", "p3").solve(-10.0, 10.0)
        assert len(sol.points) == 1
        assert sol.points[0] == pytest.approx(2.0)

    def test_all_equalities_flag(self):
        models = {"p": Polynomial([-2.0, 1.0])}
        eq = Comparison(Attr("p"), Rel.EQ, Const(0.0))
        lt = Comparison(Attr("p"), Rel.LT, Const(0.0))
        assert EquationSystem.from_predicate(eq, models.__getitem__).all_equalities
        assert not EquationSystem.from_predicate(lt, models.__getitem__).all_equalities

    def test_pure_constant_row_is_inconsistent(self):
        # A row "5 = 0" row-reduces to a constant: the pre-analysis must
        # report inconsistency without any root finding.
        models = {"c": Polynomial([5.0]), "p": Polynomial([-2.0, 1.0])}
        assert self._system(models, "c", "p").solve(-10.0, 10.0).is_empty

    def test_scale_invariance(self):
        # The same system at wildly different coefficient scales: huge
        # or tiny coefficients must not break the reduction or root
        # accuracy.
        for scale in (1e-6, 1.0, 1e6):
            models = {
                "p1": Polynomial([-2.0 * scale, scale]),
                "p2": Polynomial([-4.0 * scale, 0.0, scale]),
            }
            sol = self._system(models, "p1", "p2").solve(0.0, 10.0)
            assert sol.points == (pytest.approx(2.0),), scale

    def test_candidates_verified_against_all_rows(self):
        # p2's roots are ±2 but p1 only vanishes at 2: the shared
        # solution must reject -2 even when the minimal-degree candidate
        # row contains it.
        models = {
            "p1": Polynomial([-2.0, 1.0]),
            "p2": Polynomial([-4.0, 0.0, 1.0]),
        }
        sol = self._system(models, "p1", "p2").solve(-10.0, 10.0)
        assert sol.points == (pytest.approx(2.0),)

    def test_rank_deficient_duplicates_keep_all_roots(self):
        # Three copies of (t^2 - 4): rank 1, both roots survive.
        p = Polynomial([-4.0, 0.0, 1.0])
        models = {"a": p, "b": p, "c": p}
        sol = self._system(models, "a", "b", "c").solve(-10.0, 10.0)
        assert len(sol.points) == 2
        assert sol.points[0] == pytest.approx(-2.0)
        assert sol.points[1] == pytest.approx(2.0)


class TestSlack:
    def test_slack_zero_when_solution_touched(self):
        # Row value hits zero inside the range.
        sys = EquationSystem(
            [DifferenceRow(Polynomial([-2.0, 1.0]), Rel.LT)], None
        )
        sys2 = system(Comparison(Attr("A.x"), Rel.EQ, Const(6.0)))
        assert sys2.slack(0.0, 10.0) == pytest.approx(0.0, abs=1e-6)

    def test_slack_positive_when_far(self):
        # A.x = 4 + t vs constant 100: closest approach at t=10 is 86.
        sys = system(Comparison(Attr("A.x"), Rel.EQ, Const(100.0)))
        slack = sys.slack(0.0, 10.0)
        assert slack == pytest.approx(86.0, rel=1e-3)

    def test_slack_uses_max_norm_across_rows(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.EQ, Const(100.0)),  # |4+t-100|: min 86
            Comparison(Attr("A.x"), Rel.EQ, Const(4.0)),    # |t|: min 0 at t=0
        )
        # At any t the norm is the max of the two; min over t of max is
        # attained where the curves balance - never below 86 here... at t=0:
        # max(96, 0)=96; at t=10: max(86,10)=86. So slack = 86.
        slack = system(pred).slack(0.0, 10.0)
        assert slack == pytest.approx(86.0, rel=1e-3)

    def test_slack_refines_interior_minimum(self):
        # |t^2 - 2t| over [0, 3] has minima 0 at t=0 and t=2 exactly.
        models = {"p": Polynomial([0.0, -2.0, 1.0])}
        sys = EquationSystem.from_predicate(
            Comparison(Attr("p"), Rel.EQ, Const(0.0)), models.__getitem__
        )
        assert sys.slack(0.5, 3.0) == pytest.approx(0.0, abs=1e-5)

    def test_slack_empty_rows(self):
        sys = EquationSystem([], None)
        assert sys.slack(0.0, 1.0) == 0.0
