"""The fault injectors themselves: rates, determinism, restoration."""

import math

import pytest

from repro.core import batch_solver
from repro.core.errors import SolverFailure
from repro.core.operators import ContinuousExtremumAggregate
from repro.core.polynomial import Polynomial
from repro.core.relation import Rel
from repro.core.batch_solver import real_roots_batch, solve_tasks
from repro.core.segment import Segment
from repro.engine.tuples import StreamTuple
from repro.testing import (
    corrupt_tuples,
    force_eigvals_failures,
    inject_solver_faults,
)
from tests.kernel import assert_roots_match_exact

pytestmark = pytest.mark.resilience


def tasks(n, lo=0.0, hi=10.0):
    """Distinct linear tasks, one root each."""
    return [
        (Polynomial([-(i + 1.0), 1.0]), Rel.GT, lo, hi) for i in range(n)
    ]


def quintics(n):
    """Distinct quintics with real roots (degree >= 5 hits the
    eigensolver; degrees 1-4 take closed forms and never touch it)."""
    return [
        (Polynomial([-(i + 1.0), 0.0, 0.0, 0.0, 0.0, 1.0]), -100.0, 100.0)
        for i in range(n)
    ]


class TestSolverFaultInjector:
    def test_raise_kind_records_typed_failures(self):
        failures = {}
        with inject_solver_faults(rate=1.0, kind="raise") as stats:
            results = solve_tasks(tasks(8), failures)
        assert stats.calls == 8
        assert stats.injected == 8
        assert set(failures) == set(range(8))
        for exc in failures.values():
            assert isinstance(exc, SolverFailure)
            assert exc.reason == "injected"
        assert all(r.is_empty for r in results)

    def test_raise_kind_propagates_without_failures_dict(self):
        with inject_solver_faults(rate=1.0, kind="raise"):
            with pytest.raises(SolverFailure) as info:
                solve_tasks(tasks(1))
        assert info.value.reason == "injected"

    def test_min_max_envelope_solves_see_the_hook(self):
        """A min aggregate's ``x(t) - s(t) < 0`` rows go through the
        same funnel as filter and join rows, so injection reaches it."""
        agg = ContinuousExtremumAggregate("x", "min")
        agg.process(Segment(("k",), 0.0, 10.0, {"x": Polynomial([5.0])}))
        arrival = Segment(("k",), 2.0, 8.0, {"x": Polynomial([9.0, -1.0])})
        with inject_solver_faults(rate=1.0, kind="raise") as stats:
            with pytest.raises(SolverFailure) as info:
                agg.process(arrival)
        assert info.value.reason == "injected"
        assert stats.calls == 1

    def test_nan_kind_exercises_coefficient_guardrails(self):
        failures = {}
        with inject_solver_faults(rate=1.0, kind="nan"):
            solve_tasks(tasks(4), failures)
        assert set(failures) == set(range(4))
        for exc in failures.values():
            assert exc.reason == "invalid-coefficients"

    def test_timeout_kind(self):
        failures = {}
        with inject_solver_faults(rate=1.0, kind="timeout", delay=0.0):
            solve_tasks(tasks(3), failures)
        assert {exc.reason for exc in failures.values()} == {"timeout"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            with inject_solver_faults(kind="segfault"):
                pass  # pragma: no cover

    def test_partial_rate_leaves_healthy_rows_correct(self):
        ts = tasks(200, hi=1000.0)
        failures = {}
        with inject_solver_faults(rate=0.25, seed=3) as stats:
            results = solve_tasks(ts, failures)
        assert 0.10 < stats.observed_rate < 0.45
        assert 0 < len(failures) < len(ts)
        for i, (poly, rel, lo, hi) in enumerate(ts):
            if i in failures:
                assert results[i].is_empty
            else:
                # Healthy rows are untouched by their poisoned neighbours.
                assert results[i].contains((i + 1.0) + 0.5)
                assert not results[i].contains((i + 1.0) - 0.5)

    def test_same_seed_same_victims(self):
        first, second = {}, {}
        with inject_solver_faults(rate=0.3, seed=11):
            solve_tasks(tasks(50), first)
        with inject_solver_faults(rate=0.3, seed=11):
            solve_tasks(tasks(50), second)
        assert set(first) == set(second)

    def test_hook_restored_on_exit(self):
        assert batch_solver.fault_hook() is None
        with inject_solver_faults(rate=1.0):
            assert batch_solver.fault_hook() is not None
            with inject_solver_faults(rate=0.0):
                pass
            # Nesting restores the outer hook, not None.
            assert batch_solver.fault_hook() is not None
        assert batch_solver.fault_hook() is None

    def test_hook_restored_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with inject_solver_faults(rate=1.0):
                raise RuntimeError("boom")
        assert batch_solver.fault_hook() is None


class TestEigvalsFaultInjector:
    def test_total_failure_yields_typed_eigvals_failures(self):
        failures = {}
        with force_eigvals_failures(rate=1.0) as stats:
            results = real_roots_batch(quintics(4), failures)
        assert stats.injected > 0
        assert set(failures) == set(range(4))
        for exc in failures.values():
            assert isinstance(exc, SolverFailure)
            assert exc.reason == "eigvals"
        assert all(r == [] for r in results)

    def test_stacked_only_failure_falls_back_row_by_row(self):
        """One poisoned stacked call cannot sink its degree bucket."""
        items = quintics(6)
        failures = {}
        with force_eigvals_failures(rate=1.0, only_stacked=True) as stats:
            results = real_roots_batch(items, failures)
        assert stats.injected > 0  # the stacked call did fail
        assert failures == {}      # ...but every row was rescued
        for (poly, lo, hi), roots in zip(items, results):
            assert_roots_match_exact(roots, poly, lo, hi)

    def test_patch_restored_on_exit(self):
        original = batch_solver._stacked_companion_eigvals
        with force_eigvals_failures(rate=1.0):
            assert batch_solver._stacked_companion_eigvals is not original
        assert batch_solver._stacked_companion_eigvals is original


class TestTupleCorruption:
    def tuples(self, n):
        return [
            StreamTuple({"time": float(i), "x": 1.0 + i, "id": "a"})
            for i in range(n)
        ]

    def test_rate_zero_is_identity(self):
        src = self.tuples(20)
        out = list(corrupt_tuples(src, rate=0.0))
        assert out == src

    def test_observed_rate_and_damage(self):
        from repro.testing import InjectionStats

        stats = InjectionStats()
        out = list(
            corrupt_tuples(self.tuples(500), rate=0.2, seed=5, stats=stats)
        )
        assert len(out) == 500
        assert 0.1 < stats.observed_rate < 0.35
        damaged = [
            t
            for t in out
            if "x" not in t or not math.isfinite(t["x"]) or abs(t["x"]) > 1e6
        ]
        assert len(damaged) == stats.injected

    def test_time_field_never_corrupted_by_default(self):
        out = list(corrupt_tuples(self.tuples(200), rate=1.0, seed=1))
        for t in out:
            assert math.isfinite(t["time"])

    def test_explicit_fields_and_modes(self):
        out = list(
            corrupt_tuples(
                self.tuples(50), rate=1.0, modes=("nan",), fields=("x",)
            )
        )
        assert all(math.isnan(t["x"]) for t in out)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            list(corrupt_tuples(self.tuples(1), modes=("bitflip",)))

    def test_deterministic_by_seed(self):
        a = list(corrupt_tuples(self.tuples(100), rate=0.3, seed=9))
        b = list(corrupt_tuples(self.tuples(100), rate=0.3, seed=9))
        assert a == b
