"""Batched-kernel / scalar-path parity (the acceptance property).

The batched solver must be *bit-identical* to the scalar per-row path:
identical ``TimeSet`` objects, not merely approximately equal.  These
properties enforce that, feeding mixed-degree polynomials, all six
relations, finite and infinite domains through both paths.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.batch_solver import (
    real_roots_batch,
    solve_relation_batch,
    solve_tasks,
)
from repro.core.errors import SolverError, SolverFailure
from repro.core.expr import Attr, Const
from repro.core.equation_system import EquationSystem
from repro.core.intervals import TimeSet
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison, Not, Or
from repro.core.relation import Rel
from tests.oracles import (
    real_roots,
    scalar_solve_tasks,
    scalar_system_solve,
    solve_relation,
)

coeff = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
polys = st.lists(coeff, min_size=1, max_size=7).map(Polynomial)
all_rels = st.sampled_from(list(Rel))

DOMAIN = (-10.0, 10.0)

domains = st.one_of(
    st.tuples(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    ).map(lambda ab: (min(ab), max(ab))),
    st.just((-math.inf, math.inf)),
    st.just((0.0, math.inf)),
    st.just((-math.inf, 0.0)),
)


@given(st.lists(st.tuples(polys, all_rels), min_size=1, max_size=12), domains)
@settings(max_examples=200)
def test_solve_relation_batch_matches_scalar(items, domain):
    lo, hi = domain
    tasks = [(p, rel, lo, hi) for p, rel in items]
    batched = solve_relation_batch(tasks)
    scalar = [solve_relation(p, rel, lo, hi) for p, rel in items]
    # Exact TimeSet equality — the kernel reuses the scalar arithmetic
    # bit for bit, so no tolerance is needed or allowed.
    assert batched == scalar


@given(st.lists(polys, min_size=1, max_size=12))
@settings(max_examples=200)
def test_real_roots_batch_matches_scalar(ps):
    ps = [p for p in ps if not p.is_zero]
    assume(ps)
    batched = real_roots_batch([(p, *DOMAIN) for p in ps])
    for p, roots in zip(ps, batched):
        assert roots == real_roots(p, *DOMAIN)


@given(st.lists(st.tuples(polys, all_rels), min_size=1, max_size=8), domains)
@settings(max_examples=100)
def test_solve_tasks_matches_scalar(items, domain):
    """The funnel every row solve goes through equals the scalar path."""
    lo, hi = domain
    tasks = [(p, rel, lo, hi) for p, rel in items]
    assert solve_tasks(tasks) == scalar_solve_tasks(tasks)


@given(
    st.lists(coeff, min_size=2, max_size=4).map(Polynomial),
    st.lists(coeff, min_size=2, max_size=4).map(Polynomial),
    all_rels,
    all_rels,
)
@settings(max_examples=150)
def test_equation_system_solve_parity(p1, p2, rel1, rel2):
    """Full-system solve: the engine and the scalar oracle emit identical
    TimeSets."""
    models = {"p1": p1, "p2": p2}
    pred = Or(
        And(
            Comparison(Attr("p1"), rel1, Const(0.0)),
            Comparison(Attr("p2"), rel2, Const(0.0)),
        ),
        Not(Comparison(Attr("p1"), rel2, Const(0.0))),
    )
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    assert system.solve(*DOMAIN) == scalar_system_solve(system, *DOMAIN)


@given(st.lists(coeff, min_size=2, max_size=5).map(Polynomial), all_rels)
@settings(max_examples=150)
def test_single_row_system_parity(p, rel):
    models = {"p": p}
    pred = Comparison(Attr("p"), rel, Const(0.0))
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    assert system.solve(*DOMAIN) == scalar_system_solve(system, *DOMAIN)


# ----------------------------------------------------------------------
# failure parity: both paths fail the same way, with the same types
# ----------------------------------------------------------------------
def _failure(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except SolverFailure as exc:
        return exc.reason
    raise AssertionError(f"{fn.__name__} did not raise SolverFailure")


@given(all_rels)
def test_zero_polynomial_failure_parity(rel):
    zero = Polynomial([0.0])
    scalar_reason = _failure(real_roots, zero, *DOMAIN)
    batch_reason = _failure(real_roots_batch, [(zero, *DOMAIN)])
    assert scalar_reason == batch_reason == "zero-polynomial"
    # Both failures are SolverError subclasses (legacy catch sites hold).
    with pytest.raises(SolverError):
        real_roots_batch([(zero, *DOMAIN)])


@given(all_rels, st.integers(min_value=1, max_value=5))
def test_nan_coefficient_failure_parity(rel, degree):
    bad = Polynomial([math.nan] + [1.0] * degree)
    scalar_reason = _failure(real_roots, bad, *DOMAIN)
    batch_reason = _failure(real_roots_batch, [(bad, *DOMAIN)])
    assert scalar_reason == batch_reason == "invalid-coefficients"
    scalar_reason = _failure(solve_relation, bad, rel, *DOMAIN)
    batch_reason = _failure(solve_relation_batch, [(bad, rel, *DOMAIN)])
    assert scalar_reason == batch_reason == "invalid-coefficients"


@given(st.lists(polys, min_size=1, max_size=8), all_rels)
@settings(max_examples=100)
def test_failures_dict_isolates_poisoned_rows(ps, rel):
    """One poisoned row fails alone; healthy rows still match scalar."""
    ps = [p for p in ps if not p.is_zero]
    assume(ps)
    bad = Polynomial([math.nan, 1.0])
    mixed = ps + [bad]
    failures = {}
    batched = real_roots_batch([(p, *DOMAIN) for p in mixed], failures)
    assert set(failures) == {len(ps)}
    assert isinstance(failures[len(ps)], SolverFailure)
    assert failures[len(ps)].reason == "invalid-coefficients"
    for p, roots in zip(ps, batched):
        assert roots == real_roots(p, *DOMAIN)

    failures = {}
    tasks = [(p, rel, *DOMAIN) for p in mixed]
    sols = solve_relation_batch(tasks, failures)
    assert set(failures) == {len(ps)}
    assert sols[len(ps)] == TimeSet.empty()
    for p, sol in zip(ps, sols):
        assert sol == solve_relation(p, rel, *DOMAIN)


@given(
    st.lists(st.tuples(polys, all_rels), min_size=2, max_size=6),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100)
def test_batch_solutions_pointwise_consistent(items, t):
    """Batched solutions still agree with direct evaluation off-root."""
    sols = solve_relation_batch([(p, rel, *DOMAIN) for p, rel in items])
    for (p, rel), sol in zip(items, sols):
        if p.is_zero:
            continue
        scale = max(abs(c) for c in p.coeffs)
        value = p(t)
        if abs(value) <= 1e-6 * max(1.0, scale) or not (-10.0 < t < 10.0):
            continue
        assert sol.contains(t) == rel.holds(value)
