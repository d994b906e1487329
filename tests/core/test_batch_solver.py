"""Unit tests for the batched companion-matrix solver kernel."""

import math

import numpy as np
import pytest

from repro.core.batch_solver import (
    derivative_matrix,
    horner_rows,
    pad_coefficient_matrix,
    real_roots_batch,
    solve_relation_batch,
    vandermonde_values,
)
from repro.core.equation_system import EquationSystem, solve_systems_batch
from repro.core.expr import Attr, Const
from repro.core.polynomial import Polynomial
from repro.core.predicate import Comparison
from repro.core.relation import Rel
from repro.core.roots import _deflate
from repro.engine.metrics import get_counter, reset_counters
from tests.kernel import assert_matches_exact, assert_roots_match_exact
from tests.oracles import companion_roots_rows


class TestPaddedEvaluation:
    def test_pad_shapes_and_zero_fill(self):
        m = pad_coefficient_matrix([(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)])
        assert m.shape == (3, 3)
        assert m[0].tolist() == [1.0, 2.0, 0.0]
        assert m[1].tolist() == [3.0, 0.0, 0.0]

    def test_horner_rows_bit_identical_to_scalar(self):
        # horner_rows evaluates row i at ts[i] — one point per row.
        polys = [
            Polynomial([1.0, -2.0, 0.25]),
            Polynomial([-3.0, 1e-3]),
            Polynomial([7.0, 0.0, 0.0, -1.0]),
            Polynomial([0.5, 0.5]),
        ]
        ts = np.array([-2.5, 0.0, 0.3, 1e6])
        m = pad_coefficient_matrix([p.coeffs for p in polys])
        values = horner_rows(m, ts)
        for i, (p, t) in enumerate(zip(polys, ts)):
            assert values[i] == p(t)  # exact, not approx

    def test_derivative_matrix_matches_polynomial_derivative(self):
        p = Polynomial([5.0, -1.0, 2.0, 0.5])
        m = derivative_matrix(pad_coefficient_matrix([p.coeffs]))
        d = p.derivative()
        for t in (-1.0, 0.0, 2.0):
            assert horner_rows(m, np.array([t]))[0] == pytest.approx(d(t))

    def test_vandermonde_grid_matches_scalar_evaluation(self):
        # vandermonde_values is the full rows x sample-grid product.
        polys = [Polynomial([1.0, 2.0, 3.0]), Polynomial([0.0, -1.0])]
        ts = np.array([0.0, 0.5, 2.0])
        m = pad_coefficient_matrix([p.coeffs for p in polys])
        grid = vandermonde_values(m, ts)
        assert grid.shape == (2, 3)
        for i, p in enumerate(polys):
            for j, t in enumerate(ts):
                assert grid[i, j] == pytest.approx(p(t))


class TestDeflate:
    def test_denormal_leading_coefficient_dropped(self):
        c = _deflate((1.0, -2.0, 1e-300))
        assert c == (1.0, -2.0)

    def test_finite_domain_trims_negligible_leading_term(self):
        # 1 - 2 t^2 + 1e-191 t^3: over [-10, 10] the cubic term cannot
        # move any root, but it wrecks companion conditioning.
        c = _deflate((1.0, 0.0, -2.0, 1e-191), -10.0, 10.0)
        assert c == (1.0, 0.0, -2.0)

    def test_infinite_domain_keeps_small_leading_term(self):
        # Over an unbounded domain the tiny cubic term owns a genuine
        # root near 2e190 — value-based trimming must not drop it.
        c = _deflate((1.0, 0.0, -2.0, 1e-191))
        assert len(c) == 4

    def test_never_trims_to_empty(self):
        # A tiny row is scaled up by a power of two, never trimmed away:
        # 1e-320 t keeps its root at 0.
        assert _deflate((1e-320,)) == (math.ldexp(1e-320, 1063),)
        assert _deflate((0.0, 1e-320), -1.0, 1.0) == (0.0, math.ldexp(1e-320, 1063))

    def test_roots_respect_finite_domain_trim(self):
        p = Polynomial([1.0, 0.0, -2.0, 1e-191])
        [roots] = real_roots_batch([(p, -10.0, 10.0)])
        assert len(roots) == 2
        for r in roots:
            assert abs(p(r)) < 1e-9

    def test_trim_edges_match_exact(self):
        items = [
            (Polynomial([1.0, 0.0, -2.0, 1e-191]), -10.0, 10.0),
            (Polynomial([1.0, -2.0, 1e-300]), -10.0, 10.0),
            (Polynomial([0.0, 0.0, 1.0, 0.0, 1.0]), -5.0, 5.0),
        ]
        batched = real_roots_batch(items)
        for (p, lo, hi), roots in zip(items, batched):
            assert_roots_match_exact(roots, p, lo, hi)


class TestTrailingZeroRoots:
    def test_exact_zero_roots_from_trailing_zeros(self):
        # t^2 (t - 3): np.roots-style trailing-zero stripping appends
        # exact 0.0 candidates.
        p = Polynomial([0.0, 0.0, -3.0, 1.0])
        [roots] = real_roots_batch([(p, -10.0, 10.0)])
        assert_roots_match_exact(roots, p, -10.0, 10.0)
        assert 0.0 in roots and any(abs(r - 3.0) < 1e-9 for r in roots)


class TestEigvalCandidates:
    def test_complex_eigenvalue_is_not_a_seed(self):
        """``IMAG_TOL``'s example: through the companion eigensolve, the
        real part 3.5e-5 of a complex eigenvalue of this small-scale row
        passes Newton's absolute ``|p(x)| < 1e-12`` stop at once, so
        without the imaginary-part filter it is reported as a root."""
        c = (0.0, 0.0, -0.0003057915631137995, -0.001474984270697301, 0.0,
             -0.0010071829747918426)
        [roots] = companion_roots_rows([(c, -10.0, 10.0)])
        assert_roots_match_exact(roots, Polynomial(list(c)), -10.0, 10.0)


class TestRowSolveCounter:
    def test_counter_bumps_per_row(self):
        reset_counters("equation_system.row_solves")
        counter = get_counter("equation_system.row_solves")
        models = {"p": Polynomial([-1.0, 1.0])}
        system = EquationSystem.from_predicate(
            Comparison(Attr("p"), Rel.LT, Const(0.0)), models.__getitem__
        )
        system.solve(0.0, 10.0)
        assert counter.value == 1
        system.solve(0.0, 10.0)
        assert counter.value == 2
        reset_counters("equation_system.row_solves")
        assert counter.value == 0


class TestInfiniteDomainMidpoints:
    def test_unbounded_sign_tests_match_scalar(self):
        # Midpoints at +/-inf take the scalar evaluation fallback; a
        # root-free whole line is tested at 0 (its midpoint is NaN).
        tasks = [
            (Polynomial([-4.0, 0.0, 1.0]), Rel.GT, -math.inf, math.inf),
            (Polynomial([1.0, 1.0]), Rel.LE, -math.inf, 0.0),
            (Polynomial([1.0, 0.0, 1.0]), Rel.GE, 0.0, math.inf),
            (Polynomial([1.0, 0.0, 1.0]), Rel.GT, -math.inf, math.inf),
        ]
        for task, got in zip(tasks, solve_relation_batch(tasks)):
            assert_matches_exact(got, *task)
        assert solve_relation_batch(tasks[-1:])[0].measure == math.inf


class TestSolveSystemsBatch:
    def test_batched_system_jobs_match_individual_solves(self):
        models = {
            "a": Polynomial([-2.0, 1.0]),
            "b": Polynomial([4.0, -1.0]),
        }
        lt = Comparison(Attr("a"), Rel.LT, Const(0.0))
        gt = Comparison(Attr("b"), Rel.GT, Const(0.0))
        sys_a = EquationSystem.from_predicate(lt, models.__getitem__)
        sys_b = EquationSystem.from_predicate(gt, models.__getitem__)
        jobs = [(sys_a, 0.0, 10.0), (sys_b, 0.0, 10.0), (sys_a, -5.0, 5.0)]
        batched = solve_systems_batch(jobs)
        assert batched == [s.solve(lo, hi) for s, lo, hi in jobs]

    def test_empty_job_list(self):
        assert solve_systems_batch([]) == []
