"""Ablation — the batched companion-matrix kernel.

A mixed-degree batch of difference rows solved through the stacked
companion-matrix kernel (``solve_relation_batch``: one ``eigvals`` call
per degree bucket, vectorized Newton polish, matrix sign tests) versus
the same kernel called one row at a time (one task per
``solve_relation_batch`` call), so the ratio measures batching alone.
Output parity is exact — a row's result does not depend on the batch it
rides in, so both must emit *identical* TimeSets.

``REPRO_BENCH_SMOKE=1`` shrinks the batch for CI smoke runs (the parity
assertion still holds; the 2x speedup floor is only asserted at full
size, where the kernel's fixed costs amortize).
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent)]
from harness import record_result  # noqa: E402

from repro.core.batch_solver import solve_relation_batch
from repro.core.polynomial import Polynomial
from repro.core.relation import Rel

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

DOMAIN = (0.0, 10.0)
N_ROWS = 64 if SMOKE else 256
TIMING_REPEATS = 2 if SMOKE else 5


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
    return [solve_relation_batch([task])[0] for task in tasks]


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


def run_experiment():
    tasks = _mixed_degree_tasks()
    scalar_time, scalar_results = _time_solves(scalar_solve, tasks)
    batch_time, batch_results = _time_solves(solve_relation_batch, tasks)
    return {
        "rows": len(tasks),
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "speedup": scalar_time / batch_time,
        "identical_output": batch_results == scalar_results,
    }


def test_ablation_batch_solver(benchmark, report):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(
        "ablation_batch_solver",
        (
            f"kernel ({r['rows']}-row mixed-degree batch"
            f"{', smoke' if SMOKE else ''}):\n"
            f"  one row per call:    {r['scalar_seconds']*1e3:8.2f} ms\n"
            f"  batched kernel:      {r['batch_seconds']*1e3:8.2f} ms\n"
            f"  speedup:             {r['speedup']:8.2f}x\n"
            f"  identical TimeSets:  {r['identical_output']}"
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
    if not SMOKE:
        assert r["speedup"] >= 2.0
    else:
        assert r["speedup"] > 0.0
