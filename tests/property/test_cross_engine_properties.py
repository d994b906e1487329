"""Property-based cross-engine equivalence.

The deepest invariant in the reproduction: for any models and predicate,
the continuous solution's membership function agrees with discrete
evaluation of the same models at (almost) every instant — the two
processing paths compute the same query, they just walk time
differently.  Disagreement is allowed only within numeric tolerance of
predicate boundaries (the paper's Section IV-A false positives /
negatives).
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.core.batch_solver import solve_relation_batch
from repro.core.equation_system import EquationSystem
from repro.core.expr import Attr, Const
from repro.core.operators import ContinuousFilter, ContinuousJoin
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison, Or
from repro.core.relation import Rel
from repro.core.segment import Segment

coeff = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
poly2 = st.lists(coeff, min_size=1, max_size=3).map(Polynomial)
rels = st.sampled_from([Rel.LT, Rel.LE, Rel.GT, Rel.GE])

DOMAIN = (0.0, 10.0)
PROBES = [DOMAIN[0] + (DOMAIN[1] - DOMAIN[0]) * (i + 0.5) / 37 for i in range(37)]


def _boundary_tolerant_check(solution, predicate_value_fn, rel):
    """Solution membership matches sign evaluation away from boundaries."""
    for t in PROBES:
        value = predicate_value_fn(t)
        if abs(value) < 1e-6:
            continue  # boundary: either answer is acceptable
        assert solution.contains(t) == rel.holds(value), t


@given(poly2, poly2, rels)
@settings(max_examples=100)
def test_two_model_system_matches_pointwise(px, py, rel):
    models = {"x": px, "y": py}
    pred = Comparison(Attr("x"), rel, Attr("y"))
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    sol = system.solve(*DOMAIN)
    diff = px - py
    _boundary_tolerant_check(sol, diff, rel)


@given(poly2, poly2, coeff, rels, rels)
@settings(max_examples=100)
def test_conjunction_matches_pointwise(px, py, c, rel1, rel2):
    models = {"x": px, "y": py}
    pred = And(
        Comparison(Attr("x"), rel1, Attr("y")),
        Comparison(Attr("x"), rel2, Const(c)),
    )
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    sol = system.solve(*DOMAIN)
    d1 = px - py
    d2 = px - c
    for t in PROBES:
        v1, v2 = d1(t), d2(t)
        if min(abs(v1), abs(v2)) < 1e-6:
            continue
        expected = rel1.holds(v1) and rel2.holds(v2)
        assert sol.contains(t) == expected, t


@given(poly2, coeff, coeff, rels, rels)
@settings(max_examples=100)
def test_disjunction_matches_pointwise(px, c1, c2, rel1, rel2):
    models = {"x": px}
    pred = Or(
        Comparison(Attr("x"), rel1, Const(c1)),
        Comparison(Attr("x"), rel2, Const(c2)),
    )
    system = EquationSystem.from_predicate(pred, models.__getitem__)
    sol = system.solve(*DOMAIN)
    for t in PROBES:
        v1 = px(t) - c1
        v2 = px(t) - c2
        if min(abs(v1), abs(v2)) < 1e-6:
            continue
        expected = rel1.holds(v1) or rel2.holds(v2)
        assert sol.contains(t) == expected, t


@given(poly2, coeff, rels)
@settings(max_examples=100)
def test_filter_operator_matches_direct_solution(px, c, rel):
    """The filter's emitted segments cover exactly the solution set."""
    seg = Segment(("k",), *DOMAIN, {"x": px})
    f = ContinuousFilter(Comparison(Attr("x"), rel, Const(c)))
    outputs = f.process(seg)
    covered = sum(o.duration for o in outputs if not o.is_point)
    (sol,) = solve_relation_batch([(px - c, rel, *DOMAIN)])
    assert math.isclose(covered, sol.measure, abs_tol=1e-6)


@given(poly2, poly2, rels)
@settings(max_examples=60, deadline=None)
def test_join_pair_matches_pointwise(px, py, rel):
    """One aligned join pair agrees with pointwise discrete comparison."""
    j = ContinuousJoin(Comparison(Attr("L.x"), rel, Attr("R.y")))
    left = Segment(("a",), *DOMAIN, {"x": px})
    right = Segment(("b",), *DOMAIN, {"y": py})
    j.process(left, port=0)
    outputs = j.process(right, port=1)
    diff = px - py
    for t in PROBES:
        value = diff(t)
        if abs(value) < 1e-6:
            continue
        in_output = any(o.contains_time(t) for o in outputs if not o.is_point)
        assert in_output == rel.holds(value), t
