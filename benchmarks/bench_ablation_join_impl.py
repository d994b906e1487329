"""Ablation — join implementation: nested-loop vs hash vs Pulse.

Section V-A's conjecture: "We plan on investigating this result with
other join implementations, such as a hash join or indexed join, but
believe the result will still hold due to the low overhead of validation
compared to the join predicate evaluation."

We test it: an equi-key proximity join runs as (a) the nested-loop
baseline, (b) a hash join bucketed on the key, and (c) Pulse on segments
with validation.  Pulse's own buffers are ordered and partitioned on the
equi-key (Section VII's segment indexing is the default buffer, not an
arm of this ablation).  The paper's conjecture holds if Pulse still wins
against the hash join.
"""

from __future__ import annotations

import time

from repro.bench import (
    MICRO_PRECISION,
    best_of,
    fast_validate_loop,
    model_table,
)
from repro.core.expr import Attr
from repro.core.operators import ContinuousJoin
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.engine import DiscreteHashJoin, DiscreteNestedLoopJoin
from repro.fitting import build_segments
from repro.workloads import MovingObjectConfig, MovingObjectGenerator

WINDOW = 0.1
N_TUPLES = 3000

#: Join pairs same-group objects whose x-positions are ordered.
RESIDUAL = Comparison(Attr("L.x"), Rel.LT, Attr("R.x"))
FULL_PRED = And(
    Comparison(Attr("L.grp"), Rel.EQ, Attr("R.grp")), RESIDUAL
)


def _workload():
    gen = MovingObjectGenerator(
        MovingObjectConfig(num_objects=8, rate=2000.0,
                           tuples_per_segment=100, seed=55)
    )
    tuples = list(gen.tuples(N_TUPLES))
    # Assign a group key so hash bucketing has selectivity; adjacent
    # object pairs share a group, so each group spans both join sides.
    for t in tuples:
        t["grp"] = (int(t["id"][3:]) // 2) % 2
    left = [t for t in tuples if int(t["id"][3:]) % 2 == 0]
    right = [t for t in tuples if int(t["id"][3:]) % 2 == 1]
    seg_kw = dict(
        attrs=("x",), tolerance=1e-6, key_fields=("id",),
        constants=("id", "grp"),
    )
    return left, right, build_segments(left, **seg_kw), build_segments(right, **seg_kw)


def _interleave(a, b, key):
    merged = sorted(
        [(key(x), 0, x) for x in a] + [(key(x), 1, x) for x in b],
        key=lambda e: (e[0], e[1]),
    )
    return [(port, item) for _, port, item in merged]


def _run_discrete(op_factory, left, right) -> float:
    op = op_factory()
    feed = _interleave(left, right, lambda t: t.time)
    start = time.perf_counter()
    for port, item in feed:
        op.process(item, port)
    return time.perf_counter() - start


def _run_pulse(left, right, seg_l, seg_r) -> float:
    op = ContinuousJoin(FULL_PRED, window=WINDOW)
    feed = _interleave(seg_l, seg_r, lambda s: s.t_start)
    bound_abs = MICRO_PRECISION * 1000.0
    start = time.perf_counter()
    for port, item in feed:
        op.process(item, port)
    fast_validate_loop(left, model_table(seg_l, "x"), "x", bound_abs)
    fast_validate_loop(right, model_table(seg_r, "x"), "x", bound_abs)
    return time.perf_counter() - start


def run_experiment():
    left, right, seg_l, seg_r = _workload()
    n = len(left) + len(right)
    throughputs = {
        "nested-loop": n / best_of(
            lambda: _run_discrete(
                lambda: DiscreteNestedLoopJoin(FULL_PRED, window=WINDOW),
                left, right,
            ),
            repeats=2,
        ),
        "hash": n / best_of(
            lambda: _run_discrete(
                lambda: DiscreteHashJoin(
                    "grp", "grp", residual=RESIDUAL, window=WINDOW
                ),
                left, right,
            ),
            repeats=2,
        ),
        "pulse": n / best_of(
            lambda: _run_pulse(left, right, seg_l, seg_r),
            repeats=2,
        ),
    }
    return throughputs


def test_ablation_join_implementations(benchmark, report):
    throughputs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = [
        f"{name:>12}: {tps:>10,.0f} t/s" for name, tps in throughputs.items()
    ]
    report("ablation_join_impl", "\n".join(lines))
    benchmark.extra_info["throughputs"] = throughputs

    # Hash join beats nested-loop, as expected of the better baseline.
    assert throughputs["hash"] > throughputs["nested-loop"]
    # The paper's conjecture: Pulse still wins against the hash join.
    assert throughputs["pulse"] > throughputs["hash"]
