"""Property-based tests for root finding, sign solving and operators.

Roots and relations are solved by the shipped kernel, one row a call,
and held to exact arithmetic where a reference is needed.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.polynomial import Polynomial
from repro.core.relation import Rel
from tests.kernel import (
    assert_matches_exact,
    assert_roots_match_exact,
    kernel_real_roots,
    kernel_solve_relation,
)

coeff = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
polys = st.lists(coeff, min_size=2, max_size=5).map(Polynomial)
rels = st.sampled_from([Rel.LT, Rel.LE, Rel.GT, Rel.GE])

DOMAIN = (-10.0, 10.0)


@given(polys)
@settings(deadline=None)
def test_roots_actually_vanish(p):
    """The roots are the exact ones (``tests/kernel.py``)."""
    assume(not p.is_zero)
    assert_roots_match_exact(kernel_real_roots(p, *DOMAIN), p, *DOMAIN)


@given(polys)
def test_roots_sorted_and_unique(p):
    assume(not p.is_zero)
    roots = kernel_real_roots(p, *DOMAIN)
    for a, b in zip(roots[:-1], roots[1:]):
        assert a < b


@given(polys, rels)
@settings(deadline=None)
def test_solution_interiors_satisfy_relation(p, rel):
    """The solution is the exact one, so off a measure of ``DELTA`` its
    interiors satisfy ``rel`` and its complement's violate it."""
    assume(not p.is_zero)
    assert_matches_exact(kernel_solve_relation(p, rel, *DOMAIN), p, rel, *DOMAIN)


@given(polys, rels)
@settings(deadline=None)
def test_complement_interiors_violate_relation(p, rel):
    assume(not p.is_zero)
    neg = kernel_solve_relation(p, rel.negate(), *DOMAIN)
    assert_matches_exact(neg, p, rel.negate(), *DOMAIN)


@given(polys, rels)
def test_relation_and_negation_partition_domain(p, rel):
    assume(not p.is_zero)
    sol = kernel_solve_relation(p, rel, *DOMAIN)
    neg = kernel_solve_relation(p, rel.negate(), *DOMAIN)
    total = sol.measure + neg.measure
    assert abs(total - (DOMAIN[1] - DOMAIN[0])) < 1e-5


@given(polys)
def test_eq_and_ne_complementary(p):
    assume(not p.is_zero)
    eq = kernel_solve_relation(p, Rel.EQ, *DOMAIN)
    ne = kernel_solve_relation(p, Rel.NE, *DOMAIN)
    # EQ has measure zero; NE has (almost) full measure.
    assert eq.measure == 0.0
    assert ne.measure > (DOMAIN[1] - DOMAIN[0]) - 1e-6


@given(polys, rels, st.floats(min_value=-9.0, max_value=9.0, allow_nan=False))
def test_pointwise_consistency(p, rel, t):
    """solve_relation agrees with direct evaluation away from roots."""
    assume(not p.is_zero)
    scale = max(abs(c) for c in p.coeffs)
    value = p(t)
    assume(abs(value) > 1e-6 * max(1.0, scale))
    sol = kernel_solve_relation(p, rel, *DOMAIN)
    assert sol.contains(t) == rel.holds(value)


# ----------------------------------------------------------------------
# Filter operator: output invariants under arbitrary linear models.
# ----------------------------------------------------------------------
from repro.core.expr import Attr, Const
from repro.core.operators import ContinuousFilter
from repro.core.predicate import Comparison
from repro.core.segment import Segment

linear_models = st.tuples(coeff, coeff).map(lambda c: Polynomial(list(c)))


@given(linear_models, coeff, rels)
def test_filter_outputs_within_input_range(model, threshold, rel):
    seg = Segment(("k",), 0.0, 10.0, {"x": model})
    f = ContinuousFilter(Comparison(Attr("x"), rel, Const(threshold)))
    for out in f.process(seg):
        assert out.t_start >= seg.t_start - 1e-9
        assert out.t_end <= seg.t_end + 1e-9


@given(linear_models, coeff, rels)
def test_filter_output_midpoints_satisfy_predicate(model, threshold, rel):
    # Evaluate through the difference polynomial the operator solves —
    # evaluating model(mid) - threshold separately can absorb tiny slope
    # terms into the constant (the paper's false-positive semantics).
    seg = Segment(("k",), 0.0, 10.0, {"x": model})
    f = ContinuousFilter(Comparison(Attr("x"), rel, Const(threshold)))
    diff = model - threshold
    for out in f.process(seg):
        if not out.is_point:
            mid = 0.5 * (out.t_start + out.t_end)
            assert rel.holds(diff(mid))


@given(linear_models, coeff)
def test_filter_partitions_time(model, threshold):
    """LT and GE outputs tile the input segment exactly."""
    seg = Segment(("k",), 0.0, 10.0, {"x": model})
    lt = ContinuousFilter(Comparison(Attr("x"), Rel.LT, Const(threshold)))
    ge = ContinuousFilter(Comparison(Attr("x"), Rel.GE, Const(threshold)))
    covered = sum(o.duration for o in lt.process(seg) if not o.is_point)
    covered += sum(o.duration for o in ge.process(seg) if not o.is_point)
    assert abs(covered - seg.duration) < 1e-6
