"""A bare numerical error in a solve surfaces as ``SolverFailure("internal")``.

The guardrail contract of :meth:`EquationSystem.solve` — no
``LinAlgError``/``ZeroDivisionError``/... escapes a solve — holds for
the pooled :func:`solve_systems_batch` too, whether the error breaks
the shared kernel sweep or one job's boolean combination, and so for
every operator that solves through it: a filter run and a join probe.
With a ``failures`` dict only the offending job is charged.
"""

import numpy as np
import pytest

from repro.core import batch_solver
from repro.core.equation_system import EquationSystem, solve_systems_batch
from repro.core.errors import SolverFailure
from repro.core.expr import Attr, Const
from repro.core.intervals import TimeSet
from repro.core.operators import ContinuousFilter, ContinuousJoin
from repro.core.polynomial import Polynomial
from repro.core.predicate import Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment

#: Leading coefficient that makes the patched kernel raise.
MARKER = 7.25


@pytest.fixture
def broken_kernel(monkeypatch):
    """The batched kernel raises ``LinAlgError`` on any batch holding a
    marked row (as LAPACK would on a pathological matrix)."""
    real = batch_solver.solve_relation_batch

    def kernel(tasks, failures=None):
        if any(task[0].coeffs[-1] == MARKER for task in tasks):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(tasks, failures)

    monkeypatch.setattr(batch_solver, "solve_relation_batch", kernel)
    yield


def _system(lead: float) -> EquationSystem:
    models = {"x": Polynomial([-5.0, lead])}
    return EquationSystem.from_predicate(
        Comparison(Attr("x"), Rel.GT, Const(0.0)), models.__getitem__
    )


def _assert_internal(info):
    assert info.value.reason == "internal"
    assert "LinAlgError" in str(info.value) or "ZeroDivision" in str(
        info.value
    )


class TestKernelError:
    def test_system_solve(self, broken_kernel):
        with pytest.raises(SolverFailure) as info:
            _system(MARKER).solve(0.0, 10.0)
        _assert_internal(info)

    def test_batch_without_failures(self, broken_kernel):
        with pytest.raises(SolverFailure) as info:
            solve_systems_batch([(_system(MARKER), 0.0, 10.0)])
        _assert_internal(info)

    def test_batch_with_failures_charges_only_the_offender(
        self, broken_kernel
    ):
        jobs = [(_system(lead), 0.0, 10.0) for lead in (1.0, MARKER, 2.0)]
        failures: dict = {}
        results = solve_systems_batch(jobs, failures)
        assert list(failures) == [1]
        assert failures[1].reason == "internal"
        assert results[1] == TimeSet.empty()
        for ji in (0, 2):
            system, lo, hi = jobs[ji]
            assert results[ji] == system.solve(lo, hi)
            assert not results[ji].is_empty

    def test_filter_run_fails_at_the_offending_input(self, broken_kernel):
        f = ContinuousFilter(Comparison(Attr("x"), Rel.GT, Const(0.0)))
        run = [
            Segment(("k",), 0.0, 10.0, {"x": Polynomial([-5.0, lead])})
            for lead in (1.0, MARKER, 2.0)
        ]
        steps = f.process_run(run)
        first = next(steps)
        assert [(s.t_start, s.t_end) for s in first] == [(5.0, 10.0)]
        with pytest.raises(SolverFailure) as info:
            next(steps)
        _assert_internal(info)
        assert f.systems_solved == 2

    def test_join_probe(self, broken_kernel):
        j = ContinuousJoin(Comparison(Attr("L.x"), Rel.GT, Attr("R.x")))
        j.process(Segment(("a",), 0.0, 10.0, {"x": Polynomial([5.0])}), 0)
        right = Segment(("b",), 0.0, 10.0, {"x": Polynomial([0.0, -MARKER])})
        with pytest.raises(SolverFailure) as info:
            j.process(right, 1)
        _assert_internal(info)


class TestStructureError:
    """An error while combining a job's solved rows is that job's alone."""

    @pytest.fixture
    def broken(self, monkeypatch):
        system = _system(3.0)

        def evaluate_structure(row_sets, lo, hi):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(system, "evaluate_structure", evaluate_structure)
        return system

    def test_system_solve(self, broken):
        with pytest.raises(SolverFailure) as info:
            broken.solve(0.0, 10.0)
        _assert_internal(info)

    def test_batch_without_failures(self, broken):
        with pytest.raises(SolverFailure) as info:
            solve_systems_batch(
                [(_system(1.0), 0.0, 10.0), (broken, 0.0, 10.0)]
            )
        _assert_internal(info)

    def test_batch_with_failures(self, broken):
        failures: dict = {}
        results = solve_systems_batch(
            [(broken, 0.0, 10.0), (_system(1.0), 0.0, 10.0)], failures
        )
        assert list(failures) == [0]
        assert failures[0].reason == "internal"
        assert results[1] == _system(1.0).solve(0.0, 10.0)
