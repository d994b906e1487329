"""The root kernel against exact arithmetic (the acceptance property).

Every entry point that solves difference rows -- ``solve_relation_batch``,
the ``solve_tasks`` funnel and ``EquationSystem.solve`` -- must return,
for each row ``p(t) R 0`` over ``[lo, hi)``, the set :mod:`tests.exact`
computes in rational arithmetic, up to the error floats cannot avoid:

* the intervals may differ from the exact ones by a measure of at most
  ``DELTA`` times the row's time scale; so no exact interval longer than
  that is missed;
* an exact isolated point (a root where ``=``, ``<=`` or ``>=`` holds)
  may be missed only within that distance of the domain's ends, and a
  reported point must lie that close to a root of ``p``, or to a root
  of ``p'`` where ``|p|`` is within ``DELTA**2`` of the row's size (a
  near-tangent pair whose roots float evaluation cannot separate).

Rows have degree <= 4 with a double, clustered or near-tangent pair
among separated simple roots, or degree <= 6 with random coefficients.
Sliver domains (two ulps wide) are included: the measure bound holds
there even where the kernel drops the sliver, which
``test_sliver_domain_is_solved`` pins.
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
from tests import exact
from tests.kernel import (
    DELTA,
    W,
    assert_matches_exact,
    assert_roots_match_exact,
    scale_of,
)

all_rels = st.sampled_from(list(Rel))
root_sites = st.floats(min_value=-10.0, max_value=0.0)
scales = st.sampled_from([1.0, -1.0, 1e-3, 7.5, -300.0])


@st.composite
def featured_rows(draw):
    """Degree <= 4: one double, clustered (1e-3..1e-12 apart) or
    near-tangent pair, or a simple root, plus up to two simple roots, all
    at least 0.05 apart so no root has multiplicity above two."""
    sites = [draw(root_sites)]
    for gap in draw(st.lists(st.floats(0.05, 6.0), max_size=2)):
        sites.append(sites[-1] + gap)
    r = sites.pop(draw(st.integers(0, len(sites) - 1)))
    k = draw(st.integers(3, 14))
    p = draw(
        st.sampled_from(
            [
                Polynomial([-r, 1.0]) * Polynomial([-r, 1.0]),
                Polynomial([-r, 1.0]) * Polynomial([-(r + 10.0**-k), 1.0]),
                Polynomial([r * r + 10.0**-k, -2.0 * r, 1.0]),
                Polynomial([r * r - 10.0**-k, -2.0 * r, 1.0]),
                Polynomial([-r, 1.0]),
            ]
        )
    )
    for s in sites:
        p = p * Polynomial([-s, 1.0])
    return p * draw(scales)


coeff = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1e-3),
)
random_rows = st.lists(coeff, min_size=1, max_size=7).map(Polynomial)

finite = st.tuples(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
).map(lambda ab: (min(ab), max(ab)))
slivers = st.floats(min_value=-50.0, max_value=50.0).map(
    lambda a: (a, math.nextafter(math.nextafter(a, math.inf), math.inf))
)
unbounded = st.sampled_from(
    [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0)]
)
# Random coefficients put roots as far out as 1e5 (a 1e-3 leading
# term); those rows are held on bounded domains.
rows = st.one_of(
    st.tuples(featured_rows(), all_rels, st.one_of(finite, slivers, unbounded)),
    st.tuples(random_rows, all_rels, st.one_of(finite, slivers)),
).map(lambda t: (t[0], t[1], *t[2]))


@given(st.lists(rows, min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_solve_relation_batch_matches_exact(tasks):
    for (poly, rel, lo, hi), got in zip(tasks, solve_relation_batch(tasks)):
        assert_matches_exact(got, poly, rel, lo, hi)


@given(st.lists(rows, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_solve_relation_batch_matches_scalar(tasks):
    """A batch gives each row what it gets solved alone, one task per
    call, bit for bit: rows share no arithmetic."""
    alone = [solve_relation_batch([task])[0] for task in tasks]
    assert solve_relation_batch(tasks) == alone


@given(st.lists(rows, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_solve_tasks_matches_scalar(tasks):
    """The funnel every row solve goes through: exact per row, and the
    same as one task per call."""
    solved = solve_tasks(tasks)
    for (poly, rel, lo, hi), got in zip(tasks, solved):
        assert_matches_exact(got, poly, rel, lo, hi)
    assert solved == [solve_tasks([task])[0] for task in tasks]


@given(rows)
@settings(max_examples=150, deadline=None)
def test_single_row_system_parity(task):
    """A one-row system is exact, and solves its row as the batch does."""
    poly, rel, lo, hi = task
    system = EquationSystem.from_predicate(
        Comparison(Attr("p"), rel, Const(0.0)), {"p": poly}.__getitem__
    )
    got = system.solve(lo, hi)
    assert_matches_exact(got, poly, rel, lo, hi)
    assert got == solve_relation_batch([task])[0]


@given(
    st.lists(
        st.one_of(
            st.tuples(featured_rows(), st.one_of(finite, unbounded)),
            st.tuples(random_rows.filter(lambda p: not p.is_zero), finite),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_real_roots_batch_matches_exact(items):
    """Every exact root is found, and every root found is a root of
    ``p``, or a double root to floats (see the module docstring); the
    random rows reach the companion eigensolve at degree 5 and 6."""
    found = real_roots_batch([(p, lo, hi) for p, (lo, hi) in items])
    for (p, (lo, hi)), roots in zip(items, found):
        assert_roots_match_exact(roots, p, lo, hi)


def _combine(sets, formula, lo, hi):
    """Exact ``(start, end)`` lists combined by a boolean ``formula`` of
    membership, one elementary piece of ``[lo, hi)`` at a time."""
    cuts = sorted({lo, hi} | {x for ivs in sets for pair in ivs for x in pair})
    out = []
    for u, v in zip(cuts, cuts[1:]):
        if formula(*(any(s <= u < e for s, e in ivs) for ivs in sets)):
            if out and out[-1][1] == u:
                out[-1] = (out[-1][0], v)
            else:
                out.append((u, v))
    return out


@given(
    st.tuples(featured_rows(), all_rels),
    st.tuples(featured_rows(), all_rels),
    all_rels,
    st.one_of(finite, slivers),
)
@settings(max_examples=150, deadline=None)
def test_equation_system_solve_parity(row1, row2, rel3, domain):
    """A conjunction, disjunction and negation of rows: the system's set
    is the exact rows' sets combined the same way."""
    (p1, rel1), (p2, rel2) = row1, row2
    lo, hi = domain
    models = {"p1": p1, "p2": p2}
    pred = Or(
        And(
            Comparison(Attr("p1"), rel1, Const(0.0)),
            Comparison(Attr("p2"), rel2, Const(0.0)),
        ),
        Not(Comparison(Attr("p1"), rel3, Const(0.0))),
    )
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    a, b, c = (
        exact.solve(p.coeffs, rel, lo, hi, W)[0]
        for p, rel in ((p1, rel1), (p2, rel2), (p1, rel3))
    )
    want = _combine([a, b, c], lambda x, y, z: (x and y) or not z, lo, hi)
    mine = [(iv.lo, iv.hi) for iv in system.solve(lo, hi).intervals]
    tol = DELTA * scale_of(lo, hi, mine, want)
    assert exact.symmetric_difference(mine, want) <= tol, (mine, want)


# ----------------------------------------------------------------------
# failures: typed, and the same through both entry points
# ----------------------------------------------------------------------
DOMAIN = (-10.0, 10.0)


def _failure(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except SolverFailure as exc:
        return exc.reason
    raise AssertionError(f"{fn.__name__} did not raise SolverFailure")


@given(all_rels)
def test_zero_polynomial_failure_parity(rel):
    zero = Polynomial([0.0])
    assert _failure(real_roots_batch, [(zero, *DOMAIN)]) == "zero-polynomial"
    # A SolverError subclass, so legacy catch sites hold.
    with pytest.raises(SolverError):
        real_roots_batch([(zero, *DOMAIN)])


@given(all_rels, st.integers(min_value=1, max_value=5))
def test_nan_coefficient_failure_parity(rel, degree):
    bad = Polynomial([math.nan] + [1.0] * degree)
    roots_reason = _failure(real_roots_batch, [(bad, *DOMAIN)])
    solve_reason = _failure(solve_relation_batch, [(bad, rel, *DOMAIN)])
    assert roots_reason == solve_reason == "invalid-coefficients"


@given(st.lists(random_rows, min_size=1, max_size=8), all_rels)
@settings(max_examples=100)
def test_failures_dict_isolates_poisoned_rows(ps, rel):
    """One poisoned row fails alone; the healthy rows get what they get
    without it."""
    ps = [p for p in ps if not p.is_zero]
    assume(ps)
    bad = Polynomial([math.nan, 1.0])
    mixed = ps + [bad]
    failures = {}
    batched = real_roots_batch([(p, *DOMAIN) for p in mixed], failures)
    assert set(failures) == {len(ps)}
    assert isinstance(failures[len(ps)], SolverFailure)
    assert failures[len(ps)].reason == "invalid-coefficients"
    assert batched[:-1] == real_roots_batch([(p, *DOMAIN) for p in ps])

    failures = {}
    tasks = [(p, rel, *DOMAIN) for p in mixed]
    sols = solve_relation_batch(tasks, failures)
    assert set(failures) == {len(ps)}
    assert sols[len(ps)] == TimeSet.empty()
    assert sols[:-1] == solve_relation_batch(tasks[:-1])


@given(
    st.lists(st.tuples(random_rows, all_rels), min_size=2, max_size=6),
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


# ----------------------------------------------------------------------
# named examples
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="the sign test skips gaps of width <= intervals.EPS; the "
    "time-origin item stops the join emitting one-ulp overlaps",
)
def test_sliver_domain_is_solved():
    """A ``macd_churn`` filter row (``reference_results``, seed 11) on a
    one-ulp domain: the exact answer is the whole sliver."""
    poly = Polynomial([26.270709541659386, -3.6163333333323218, 0.12499999999996553])
    lo, hi = 14.597999999999999, 14.598
    (got,) = solve_relation_batch([(poly, Rel.GT, lo, hi)])
    want, _ = exact.solve(poly.coeffs, Rel.GT, lo, hi, W)
    assert want == [(lo, hi)]
    assert [(iv.lo, iv.hi) for iv in got.intervals] == want


def test_near_tangent_pair_reports_no_root():
    """``(t^2 + 1e-11)(t - 1)(t - 2)`` has no root near 0.  Ferrari's
    clamp seeds the pair's vertex and Newton cannot converge there; a
    seed is kept only at rounding-error level (``batch_solver._NOISE``),
    where an absolute residual bound kept a root at -4.2e-6."""
    p = Polynomial([2e-11, -3e-11, 2.0, -3.0, 1.0])
    (roots,) = real_roots_batch([(p, -math.inf, math.inf)])
    assert_roots_match_exact(roots, p, -math.inf, math.inf)
    assert all(abs(r) > 0.5 for r in roots)
