#!/usr/bin/env python
"""Profile one benchmark workload's engine path under ``cProfile``.

Runs ``benchmarks/e2e/reference.py::reference_results`` — parse, plan,
fit, every operator, serialize: the path a single engine takes without
sockets, threads or queues — over a ``benchmarks/e2e/workloads.py``
input, and prints the hottest functions plus the result digest (compare
it across commits before trusting a timing).  Both benchmark modules
are imported read-only.

    python tools/profile_workload.py macd_churn --tuples 20000 --seed 11
    python tools/profile_workload.py following_churn --window saturate

``--window head`` (the default) profiles the first ``--tuples`` tuples
(20,000 unless given).  ``--window saturate`` profiles what the
benchmark measures: the input of a 12 s run (``Workload.offsets(12)``)
is replayed through one engine, the warm-up and paced part unprofiled,
and only the saturate slice (its first ``--tuples`` tuples, if given)
is profiled — windows full and state grown, as in the measured phase.

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

#: Run length whose phase offsets ``--window saturate`` replays: the
#: benchmark's default ``--seconds``.
RUN_SECONDS = 12


class _Measured(list):
    """``reference_results`` input that marks where measuring starts.

    ``reference_results`` walks its input once, in order; when the walk
    reaches index ``start`` this list notes the time and enables
    ``profile`` (if any), so everything before runs unmeasured.
    """

    def __init__(self, tuples, start: int, profile=None):
        super().__init__(tuples)
        self.start = start
        self.profile = profile
        self.t0 = 0.0

    def __iter__(self):
        for i, tup in enumerate(super().__iter__()):
            if i == self.start:
                self.t0 = time.perf_counter()
                if self.profile is not None:
                    self.profile.enable()
            yield tup


def main(argv: list[str] | None = None) -> int:
    from reference import reference_results, result_digest
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--window", choices=("head", "saturate"), default="head",
        help="profile the first tuples, or the benchmark's saturate slice",
    )
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--sort", choices=("tottime", "cumulative"), default="cumulative"
    )
    parser.add_argument("--top", type=int, default=40, help="rows printed")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.window == "head":
        start = 0
        tuples, input_digest = workload.generate(
            args.seed, 20_000 if args.tuples is None else args.tuples
        )
    else:
        # the benchmark's own input, cut after the profiled part
        _, start, end = workload.offsets(RUN_SECONDS)
        tuples, input_digest = workload.generate(args.seed, end)
        if args.tuples is not None:
            tuples = tuples[: start + args.tuples]

    plain = _Measured(tuples, start)
    rows, _ = reference_results(workload, plain, flush=False)
    plain_s = time.perf_counter() - plain.t0

    profile = cProfile.Profile()
    reference_results(workload, _Measured(tuples, start, profile), False)
    profile.disable()

    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(
        f"{args.workload}: tuples {start}-{len(tuples)} profiled of "
        f"{len(tuples)} (seed {args.seed}, input {input_digest[:12]}) -> "
        f"{len(rows)} rows, result_digest {result_digest(rows)[:12]}; "
        f"{plain_s:.2f} s unprofiled, {stats.total_tt:.2f} s profiled"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
