"""Ordered operator state vs the linear containers it replaced.

The sum/avg piece chain, the join's ``SegmentBuffer`` and the join's
equi-key partitions answer every arrival from a bisected slice of their
state.  The containers they replaced — plain lists walked end to end,
a join that probes every stored key — live on in ``tests/oracles.py``,
and this suite holds the two equal *exactly*: stored state, lookup
results in order, eviction counts and every emitted segment (bounds,
coefficients, constants, ids and lineage), over Hypothesis-drawn arrival
sequences with in-order runs, overlapping revisions, gaps, abutments
within ``EPS``, sub-``EPS`` slivers, fully out-of-order arrivals,
several keys that die and come back, and segments whose equi-key
constant is missing, modeled, unhashable, NaN or ``1`` against ``1.0``.
"""

import itertools
import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import segment as segment_module
from repro.core.expr import Attr
from repro.core.intervals import EPS
from repro.core.operators import ContinuousJoin
from repro.core.operators.aggregate_sum import ContinuousSumAggregate
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment, SegmentBuffer
from tests.oracles import (
    LinearSegmentBuffer,
    LinearSumAggregate,
    ScanningJoin,
)

NAN = float("nan")


@contextmanager
def pinned_segment_ids():
    """Issue segment ids from 1 inside the block: two runs that build
    and derive the same segments in the same order then agree on every
    ``seg_id`` and lineage, and any divergence shows up in them."""
    saved = segment_module._segment_ids
    segment_module._segment_ids = itertools.count(1)
    try:
        yield
    finally:
        segment_module._segment_ids = saved


# ----------------------------------------------------------------------
# arrival scripts
# ----------------------------------------------------------------------
#: Where an arrival starts relative to its key's latest end.
_STARTS = st.sampled_from(
    [0.0] * 4                                   # in order, exact abutment
    + [0.4 * EPS, EPS, -0.4 * EPS, -EPS]        # abutment within EPS
    + [2 * EPS, -2 * EPS]                       # just outside EPS
    + [0.5, 3.0]                                # gaps
    + [-0.25, -1.0, -2.5]                       # overlapping revisions
    + [-40.0]                                   # fully out of order
)
_WIDTHS = st.sampled_from(
    [0.5, 1.0, 1.0, 1.5, 4.0] + [0.6 * EPS, EPS, 2 * EPS]  # and slivers
)
_COEFF = st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])

#: (key index, start offset, width, model coefficients, flavour)
_STEP = st.tuples(
    st.integers(0, 3), _STARTS, _WIDTHS, st.tuples(_COEFF, _COEFF),
    st.integers(0, 9),
)
_SCRIPT = st.lists(_STEP, min_size=1, max_size=40)


def _bounds(script):
    """Absolute ``(key index, lo, hi)`` per step, tracking each key's end."""
    ends: dict[int, float] = {}
    latest = 0.0
    for k, offset, width, _, _ in script:
        lo = max(0.0, ends.get(k, latest) + offset)
        hi = lo + width
        if not lo < hi:  # a sliver lost to rounding at large lo
            hi = lo + 1.0
        ends[k] = max(ends.get(k, hi), hi)
        latest = max(latest, hi)
        yield k, lo, hi


def _describe(seg: Segment) -> tuple:
    return (
        seg.seg_id,
        seg.key,
        seg.t_start,
        seg.t_end,
        {a: p.coeffs for a, p in seg.models.items()},
        dict(seg.constants),
        seg.lineage,
    )


# ----------------------------------------------------------------------
# SegmentBuffer
# ----------------------------------------------------------------------
_BUFFER_OP = st.one_of(
    st.tuples(st.just("insert"), _STEP),
    st.tuples(
        st.just("overlapping"),
        st.tuples(st.floats(0, 30), st.sampled_from([-1.0, 0.0, EPS, 0.7, 5.0]),
                  st.sampled_from([None, 0, 1, 2])),
    ),
    st.tuples(st.just("evict"), st.floats(0, 30)),
)


def _run_buffer(buffer, ops):
    trace = []
    ends: dict[int, float] = {}
    with pinned_segment_ids():
        for op, arg in ops:
            if op == "insert":
                k, offset, width, coeffs, flavour = arg
                lo = max(0.0, ends.get(k, 0.0) + offset)
                ends[k] = max(ends.get(k, 0.0), lo + width)
                # mostly one partition per key; sometimes another one
                # under a live key, sometimes none
                partition = {5: (k + 1) % 2, 9: None}.get(flavour, k % 2)
                buffer.insert(
                    Segment((k,), lo, lo + width, {"x": Polynomial(coeffs)},
                            constants={"p": partition}),
                    partition=partition,
                )
            elif op == "overlapping":
                lo, width, k = arg
                key = None if k is None else (k,)
                trace.append(
                    [_describe(s) for s in
                     buffer.overlapping(lo, lo + width, key=key)]
                )
            else:
                trace.append(("dropped", buffer.evict_before(arg)))
            trace.append(
                (len(buffer), buffer.watermark, list(buffer.keys()),
                 [_describe(s) for s in buffer.segments()])
            )
    return trace


@given(st.lists(_BUFFER_OP, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_segment_buffer_equals_linear_buffer(ops):
    buffer = SegmentBuffer()
    assert _run_buffer(buffer, ops) == _run_buffer(LinearSegmentBuffer(), ops)
    # The invariant every bisect rests on: per key, stored segments are
    # disjoint, so starts and ends both increase along the list.
    for key in buffer.keys():
        segs = list(buffer.segments(key))
        for a, b in zip(segs, segs[1:]):
            assert a.t_start < a.t_end <= b.t_start < b.t_end


@given(st.lists(_BUFFER_OP, min_size=1, max_size=60), st.floats(0, 30),
       st.sampled_from([0.0, 0.7, 5.0, 40.0]))
@settings(max_examples=100, deadline=None)
def test_partition_probe_sits_between_its_keys_and_the_full_scan(ops, lo, width):
    """``overlapping(partition=p)`` returns, in the full scan's order, at
    least every segment inserted under ``p`` and nothing the full scan
    does not."""
    buffer = SegmentBuffer()
    _run_buffer(buffer, ops)
    full = [s.seg_id for s in buffer.overlapping(lo, lo + width)]
    for p in (0, 1):
        got = [s.seg_id for s in buffer.overlapping(lo, lo + width, partition=p)]
        own = [s.seg_id for s in buffer.overlapping(lo, lo + width)
               if s.constants["p"] == p]
        assert _is_subsequence(own, got) and _is_subsequence(got, full)


def _is_subsequence(small, big) -> bool:
    it = iter(big)
    return all(x in it for x in small)


# ----------------------------------------------------------------------
# sum / avg
# ----------------------------------------------------------------------
def _run_sum(cls, script, window, slide, retention, average, repickle_at):
    trace = []
    with pinned_segment_ids():
        agg = cls("x", window=window, slide=slide, average=average,
                  retention=retention)
        for i, ((_, lo, hi), step) in enumerate(zip(_bounds(script), script)):
            if i == repickle_at:
                agg = pickle.loads(pickle.dumps(agg))
            seg = Segment(("k",), lo, hi, {"x": Polynomial(step[3])},
                          constants={"sym": "k"})
            trace.append([_describe(s) for s in agg.process(seg)])
            pieces = [(p.interval.lo, p.interval.hi, p.poly.coeffs)
                      for p in agg._cum]
            trace.append(
                (pieces, agg.signal_range, agg._emitted_to, agg.revisions,
                 agg.gaps_filled, agg.windows_skipped)
            )
            # lookups at, beside and between every piece boundary
            edges = sorted({b for p in pieces for b in p[:2]})
            probes = [e + d for e in edges
                      for d in (-0.3, -EPS, -0.4 * EPS, 0.0, 0.4 * EPS, EPS)]
            trace.append([
                found and found.interval.lo
                for found in map(agg._piece_containing, probes)
            ])
            trace.append([
                agg._breakpoints(a, b)
                for a, b in zip(probes, probes[7:])
            ])
    return trace, agg


@given(
    # one signal: every step on key 0
    _SCRIPT.map(lambda steps: [(0, *s[1:]) for s in steps]),
    st.sampled_from([0.75, 2.0, 6.0]),
    st.sampled_from([None, 1.0]),
    st.sampled_from([0.0, 3.0, float("inf")]),
    st.booleans(),
    st.integers(0, 40),
)
@settings(max_examples=200, deadline=None)
def test_sum_aggregate_equals_linear_state(
    script, window, slide, retention, average, repickle_at
):
    args = (script, window, slide, retention, average)
    got, agg = _run_sum(ContinuousSumAggregate, *args, repickle_at)
    want, _ = _run_sum(LinearSumAggregate, *args, -1)
    assert got == want
    assert agg._starts == [p.interval.lo for p in agg._cum]
    assert agg._shifted == [lo + agg.window for lo in agg._starts]


# ----------------------------------------------------------------------
# join, with and without equi-key partitions
# ----------------------------------------------------------------------
def _eq(a, b):
    return Comparison(Attr(a), Rel.EQ, Attr(b))


_PREDICATES = {
    "equi": _eq("L.k", "R.k"),
    "equi_reversed_and_model": And(
        _eq("R.k", "L.k"), Comparison(Attr("L.x"), Rel.LT, Attr("R.x"))
    ),
    "two_equi": And(
        _eq("L.k", "R.k"), _eq("L.z", "R.z"),
        Comparison(Attr("L.x"), Rel.GT, Attr("R.x")),
    ),
    "not_equi": And(
        Comparison(Attr("L.k"), Rel.NE, Attr("R.k")),
        Comparison(Attr("L.x"), Rel.LT, Attr("R.x")),
    ),
    "model_only": Comparison(Attr("L.x"), Rel.LT, Attr("R.x")),
}


def _join_segment(k, lo, hi, coeffs, flavour):
    """A segment of key ``k`` whose equi-key constant is, by flavour:
    the key's own number (mostly), shadowed by a qualified name, also
    a model, that number as a float, a value that changes under a live
    key, NaN, unhashable, modeled only, or missing."""
    models = {"x": Polynomial(coeffs)}
    constants: dict = {"k": k % 3, "z": k % 2}
    if flavour == 2:
        # a constant named like the other side's qualified attribute:
        # the fold reads it in place of that side's own value
        constants.update({"L.k": (k + 1) % 3, "R.k": (k + 1) % 3})
    elif flavour == 3:
        models["k"] = Polynomial([float(k % 3)])  # constant and model
    elif flavour == 4:
        constants["k"] = float(k % 3)
    elif flavour == 5:
        constants["k"] = (k + 1) % 3
    elif flavour == 6:
        constants["k"] = NAN
    elif flavour == 7:
        constants["k"] = [k % 3]
    elif flavour == 8:
        del constants["k"]
        models["k"] = Polynomial([float(k % 3)])
    elif flavour == 9:
        del constants["k"]
    return Segment((k,), lo, hi, models, constants)


def _run_join(cls, predicate, window, script, ports):
    trace = []
    with pinned_segment_ids():
        join = cls(predicate, window=window)
        steps = zip(_bounds(script), script, itertools.cycle(ports))
        for (k, lo, hi), (_, _, _, coeffs, flavour), port in steps:
            seg = _join_segment(k, lo, hi, coeffs, flavour)
            try:
                outputs = [_describe(s) for s in join.process(seg, port)]
            except Exception as exc:  # both joins must fail alike
                outputs = (type(exc), str(exc))
            trace.append(outputs)
            trace.append(
                (join.state_size,
                 [[_describe(s) for s in buf.segments()]
                  for buf in join._buffers])
            )
    return trace


@pytest.mark.parametrize("name", sorted(_PREDICATES))
@given(
    script=_SCRIPT,
    window=st.sampled_from([None, 0.0, 0.5, 3.0]),
    ports=st.lists(st.integers(0, 1), min_size=1, max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_partitioned_join_equals_scanning_join(name, script, window, ports):
    args = (_PREDICATES[name], window, script, ports)
    assert _run_join(ContinuousJoin, *args) == _run_join(ScanningJoin, *args)


def test_constant_named_like_a_qualified_attribute_pairs_as_the_fold_says():
    """The fold resolves ``L.k`` by name, and a *right* segment carrying
    a constant literally named ``L.k`` answers for it: such a segment
    matches whatever it equals, not what its own ``k`` selects."""

    def run(cls):
        with pinned_segment_ids():
            join = cls(_PREDICATES["equi"])
            x = {"x": Polynomial([1.0])}
            join.process(Segment(("a",), 0, 10, x, {"k": 0}), 0)
            shadowed = Segment(("b",), 0, 10, x, {"k": 1, "L.k": 1})
            return [_describe(s) for s in join.process(shadowed, 1)]

    assert len(run(ScanningJoin)) == 1
    assert run(ContinuousJoin) == run(ScanningJoin)


def test_only_the_equi_predicates_partition():
    partitioned = {
        name: ContinuousJoin(pred)._equi_attrs
        for name, pred in _PREDICATES.items()
    }
    assert partitioned == {
        "equi": (("k",), ("k",)),
        "equi_reversed_and_model": (("k",), ("k",)),
        "two_equi": (("k", "z"), ("k", "z")),
        "not_equi": ((), ()),
        "model_only": ((), ()),
    }


def test_join_over_many_short_segments_equals_scanning_join():
    """120 arrivals over 6 keys, ``L.x < R.x``, window 5: the workload
    the deleted interval-index test ran, now held to exact order."""
    rng = random.Random(8)
    script, t = [], 0.0
    for i in range(120):
        t += rng.uniform(0.1, 0.5)
        script.append((i % 6, t, rng.uniform(0.5, 3.0), rng.uniform(-10, 10)))

    def run(cls):
        with pinned_segment_ids():
            join = cls(_PREDICATES["model_only"], window=5.0)
            return [
                [_describe(s) for s in join.process(
                    Segment((f"k{k}",), lo, lo + width,
                            {"x": Polynomial([value])}), i % 2)]
                for i, (k, lo, width, value) in enumerate(script)
            ]

    got = run(ContinuousJoin)
    assert got == run(ScanningJoin)
    assert sum(map(len, got)) > 50
