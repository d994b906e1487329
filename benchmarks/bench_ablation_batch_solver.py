"""Ablation — batched companion-matrix kernel and solution reuse.

Two measurements:

* **kernel**: a mixed-degree batch of difference rows solved through the
  stacked companion-matrix kernel (``solve_relation_batch``: one
  ``eigvals`` call per degree bucket, vectorized Newton polish, matrix
  sign tests) versus the scalar reference, a ``solve_relation`` loop.
  Both are called directly, uncached.  Output parity is exact — the
  kernel must emit *identical* TimeSets, so the speedup is free of
  semantic drift.
* **reuse**: a repeated-join workload (the same segment pairs realign
  round after round, as in the paper's what-if sweeps and periodic
  predictive models).  Every round after the first probes content the
  join's solution store already holds over the same domain; the share
  of probes it answers is the measurement, and the row-level solve
  cache behind it must see the first round only.

``REPRO_BENCH_SMOKE=1`` shrinks the batch for CI smoke runs (parity and
reuse assertions still hold; the 2x speedup floor is only asserted at
full size, where the kernel's fixed costs amortize).
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from harness import record_result  # noqa: E402

from repro.core.batch_solver import solve_relation_batch
from repro.core.expr import Attr
from repro.core.operators.join_op import ContinuousJoin
from repro.core.polynomial import Polynomial
from repro.core.predicate import Comparison
from repro.core.relation import Rel
from repro.core.roots import solve_relation
from repro.core.segment import Segment
from repro.core.solve_cache import reset_global_solve_cache
from repro.engine.metrics import counter_snapshot, reset_counters

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

DOMAIN = (0.0, 10.0)
N_ROWS = 64 if SMOKE else 256
TIMING_REPEATS = 2 if SMOKE else 5
JOIN_PARTNERS = 8
JOIN_ROUNDS = 25

REUSE_COUNTERS = (
    "solve_cache.hits",
    "solve_cache.misses",
    "delta.store.hits",
    "delta.store.misses",
)


def _mixed_degree_tasks(seed: int = 17):
    """A >= 64-row batch of degree 3-6 rows across all six relations."""
    rng = np.random.default_rng(seed)
    rels = list(Rel)
    tasks = []
    for i in range(N_ROWS):
        degree = int(rng.integers(3, 7))
        coeffs = rng.normal(0.0, 1.0, degree + 1)
        p = Polynomial(coeffs.tolist())
        # Center so sign changes land inside the domain.
        p = p - p(5.0) + float(rng.normal(0.0, 0.3))
        tasks.append((p, rels[i % len(rels)], *DOMAIN))
    return tasks


def scalar_solve(tasks):
    return [solve_relation(*task) for task in tasks]


def _time_solves(solve, tasks) -> tuple[float, list]:
    best = float("inf")
    results = None
    solve(tasks)  # warm-up: numpy gufunc setup stays untimed
    gc.disable()
    try:
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            results = solve(tasks)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best, results


def _repeated_join_workload() -> dict:
    """Drive the continuous join over realigning segment pairs.

    One probe side repeatedly re-announces the same predictive models
    over the same horizon (periodic re-instantiation), so every round
    re-probes byte-identical difference systems — the reuse target.
    """
    reset_counters(*REUSE_COUNTERS)
    reset_global_solve_cache()
    rng = np.random.default_rng(5)
    join = ContinuousJoin(
        Comparison(Attr("L.x"), Rel.LT, Attr("R.y")), window=None
    )
    for k in range(JOIN_PARTNERS):
        model = Polynomial(rng.normal(0.0, 1.0, 3).tolist())
        join.process(
            Segment((f"r{k}",), *DOMAIN, {"y": model}), port=1
        )
    probe_model = Polynomial([0.0, 1.0])
    outputs = 0
    start = time.perf_counter()
    for _ in range(JOIN_ROUNDS):
        outputs += len(
            join.process(
                Segment(("l",), *DOMAIN, {"x": probe_model}), port=0
            )
        )
    elapsed = time.perf_counter() - start
    counters = counter_snapshot()
    hits = counters.get("delta.store.hits", 0)
    misses = counters.get("delta.store.misses", 0)
    return {
        "store_hits": hits,
        "store_misses": misses,
        "store_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache_lookups": counters.get("solve_cache.hits", 0)
        + counters.get("solve_cache.misses", 0),
        "outputs": outputs,
        "seconds": elapsed,
        "systems_solved": join.systems_solved,
    }


def run_experiment():
    tasks = _mixed_degree_tasks()
    scalar_time, scalar_results = _time_solves(scalar_solve, tasks)
    batch_time, batch_results = _time_solves(solve_relation_batch, tasks)
    identical = batch_results == scalar_results
    reuse = _repeated_join_workload()
    return {
        "rows": len(tasks),
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "speedup": scalar_time / batch_time,
        "identical_output": identical,
        "store_hits": reuse["store_hits"],
        "store_misses": reuse["store_misses"],
        "store_hit_rate": reuse["store_hit_rate"],
        "cache_lookups": reuse["cache_lookups"],
        "join_outputs": reuse["outputs"],
        "join_systems": reuse["systems_solved"],
        "join_seconds": reuse["seconds"],
    }


def test_ablation_batch_solver(benchmark, report):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(
        "ablation_batch_solver",
        (
            f"kernel ({r['rows']}-row mixed-degree batch"
            f"{', smoke' if SMOKE else ''}):\n"
            f"  scalar per-row loop: {r['scalar_seconds']*1e3:8.2f} ms\n"
            f"  batched kernel:      {r['batch_seconds']*1e3:8.2f} ms\n"
            f"  speedup:             {r['speedup']:8.2f}x\n"
            f"  identical TimeSets:  {r['identical_output']}\n"
            f"reuse (repeated join, {JOIN_PARTNERS} partners x "
            f"{JOIN_ROUNDS} rounds):\n"
            f"  store hits/misses:   {r['store_hits']}/{r['store_misses']}\n"
            f"  store hit rate:      {r['store_hit_rate']*100:8.1f} %\n"
            f"  systems solved:      {r['join_systems']}\n"
            f"  solve-cache lookups: {r['cache_lookups']}\n"
            f"  join outputs:        {r['join_outputs']}"
        ),
    )
    benchmark.extra_info.update(r)
    record_result(
        "ablation_batch_solver",
        {
            **r,
            "wall_time_s": r["batch_seconds"],
            "throughput_items_per_s": r["rows"] / r["batch_seconds"],
            "smoke": SMOKE,
        },
    )

    # Parity is enforced, not sampled: the batch must produce the exact
    # TimeSet objects the scalar path produces.
    assert r["identical_output"]
    # Every round re-probes identical content: only the first solves,
    # and only the first reaches the row-level cache.
    assert r["store_hit_rate"] >= 0.90
    assert r["join_systems"] == JOIN_PARTNERS
    assert r["cache_lookups"] == JOIN_PARTNERS
    assert r["join_outputs"] > 0
    if not SMOKE:
        assert r["speedup"] >= 2.0
    else:
        assert r["speedup"] > 0.0
