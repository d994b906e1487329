#!/usr/bin/env python
"""Profile one benchmark workload's engine path under ``cProfile``.

Runs ``benchmarks/e2e/reference.py::reference_results`` — parse, plan,
fit, every operator, serialize: the path a single engine takes without
sockets, threads or queues — over the first ``--tuples`` tuples of a
``benchmarks/e2e/workloads.py`` input, and prints the hottest functions
plus the result digest (compare it across commits before trusting a
timing).  Both benchmark modules are imported read-only.

    python tools/profile_workload.py macd_churn --tuples 20000 --seed 11

``cProfile`` taxes every Python call but not the work inside native
code, so the proportions lean towards call-heavy code: use this to find
candidates, then measure with ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]


def main(argv: list[str] | None = None) -> int:
    from reference import reference_results, result_digest
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--tuples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--sort", choices=("tottime", "cumulative"), default="cumulative"
    )
    parser.add_argument("--top", type=int, default=40, help="rows printed")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tuples, input_digest = workload.generate(args.seed, args.tuples)

    started = time.perf_counter()
    rows, _ = reference_results(workload, tuples, flush=False)
    plain_s = time.perf_counter() - started

    profile = cProfile.Profile()
    profile.enable()
    reference_results(workload, tuples, flush=False)
    profile.disable()

    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(
        f"{args.workload}: {len(tuples)} tuples (seed {args.seed}, input "
        f"{input_digest[:12]}) -> {len(rows)} rows, result_digest "
        f"{result_digest(rows)[:12]}; {plain_s:.2f} s unprofiled, "
        f"{stats.total_tt:.2f} s profiled"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
