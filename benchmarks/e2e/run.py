"""Socket-to-subscriber benchmark of record.

All workloads, untraced then (with ``--traced``) traced, one report::

    python benchmarks/e2e/run.py --seed 11 --out report.json [--traced]

One workload, one pass, result as the last line of stdout (the form
``BENCHMARK.json`` names)::

    python benchmarks/e2e/run.py --workload macd_churn --seed 11 \
        --seconds 12 --trace 0

``src/`` is put on ``sys.path`` from this file's own location; the
server subprocess gets it through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

sys.path.insert(0, str(loadgen.SRC))

#: name -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "throughput_tps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

DEFAULT_SECONDS = 12


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    from repro.server.client import PulseClient

    paced_at, saturate_at, end = workload.offsets(seconds)
    tuples, input_digest = workload.generate(seed, end)
    loadgen.quiet_heap()
    tally = loadgen.Tally()
    shm_before = loadgen.shm_names()
    workroot = loadgen.OUT / "tmp" / f"{workload.name}-{os.getpid()}"
    detail: dict = {"input_digest": input_digest, "input_tuples": len(tuples)}
    stopping: list[loadgen.ServerProcess] = []
    server = client = None
    results: list[dict] = []
    try:
        # setup: five cold starts, the run continues on the fifth
        setups = []
        for i in range(loadgen.COLD_STARTS):
            if server is not None:
                client.close()
                server.interrupt()
                try:
                    server.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass  # a router idles 5 s in stop(); reaped below
                stopping.append(server)
            elapsed, server, client, sub = loadgen.cold_start(
                workload, workroot / f"start{i}", tuples[0], PulseClient
            )
            setups.append(elapsed)
        tally.ack(1, {})
        detail["setup_samples_s"] = setups

        loadgen.warmup_phase(client, workload, tuples[1:paced_at], tally)
        # Discarded routers sit out their 5 s stop() idle; they are
        # reaped here, after the untimed warm-up and before any timing.
        for old in stopping:
            if not old.wait_stopped():
                tally.notes.append("a discarded server needed SIGKILL")
        stopping.clear()
        detail.update(loadgen.paced_phase(
            client, workload, tuples[paced_at:saturate_at], tally))
        detail.update(loadgen.saturate_phase(
            client, workload, tuples[saturate_at:], tally))
        results = client.drain_results(sub)
        for notice in client.drain_notices():
            lost = int(notice.get("dropped_results", 0))
            lost += int(notice.get("shed", 0)) + int(notice.get("dropped", 0))
            tally.lost_tuples += lost
            tally.notes.append(f"notice: {notice}")
        stats = client.stats()
        if workload.fleet_workers:
            detail["spread"] = [w["sent"] for w in stats["workers"]]
        detail["peak_rss_mb"] = server.peak_rss_mb()
    except Exception as exc:
        tally.notes.append(f"run abandoned: {exc!r}")
    finally:
        t0 = time.perf_counter()
        if client is not None:
            client.close()
        running = stopping + ([server] if server else [])
        for proc in running:
            proc.interrupt()
        for proc in running:
            if not proc.wait_stopped():
                tally.notes.append("server needed SIGKILL")
        detail["teardown_s"] = time.perf_counter() - t0
        shutil.rmtree(workroot, ignore_errors=True)
        gc.enable()

    detail.update(reference.check(workload, tuples, results, tally))

    metrics = {}
    if "throughput_tps" in detail and "peak_rss_mb" in detail:
        detail["setup_s"] = statistics.median(detail["setup_samples_s"])
        metrics = {
            name: {"value": detail[name], "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
        }
    return tally.result(metrics, detail, loadgen.leftovers(shm_before))


def provenance() -> dict:
    import numpy

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=loadgen.REPO, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    # tracked files only: a report of the commit that adds the benchmark
    # is measured while the benchmark's own files are still untracked
    status = git("status", "--porcelain", "--untracked-files=no", "--",
                 "src", "benchmarks/e2e")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def result_line(result: dict) -> str:
    return json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced pass")
    parser.add_argument("--out", help="write the full report here")
    args = parser.parse_args(argv)
    if not (loadgen.SRC / "repro").is_dir():
        print(f"no program to measure: {loadgen.SRC}/repro is missing",
              file=sys.stderr)
        return 2

    report = {
        "provenance": provenance(), "seed": args.seed,
        "seconds": args.seconds, "workloads": {}, "traced": {},
    }

    def run(workload, traced):
        if traced:
            import spans

            result = spans.run_traced(workload, args.seed, args.seconds)
        else:
            result = run_untraced(workload, args.seed, args.seconds)
        report["traced" if traced else "workloads"][workload.name] = result
        return result

    if args.workload:
        result = run(WORKLOADS[args.workload], bool(args.trace))
        for note in result["notes"]:
            print(f"note: {note}", file=sys.stderr)
        print(json.dumps(result["detail"], indent=1, default=str),
              file=sys.stderr)
        ok = result["correct"]
        last = result_line(result)
    else:
        ok = True
        for workload in WORKLOADS.values():
            for traced in (False, True) if args.traced else (False,):
                result = run(workload, traced)
                ok = ok and result["correct"]
                shown = {k: round(v["value"], 4)
                         for k, v in result["metrics"].items()
                         if not traced or (k.endswith("_ms_per_ktuple")
                                           and v["value"])}
                print(f"{workload.name}{' [traced]' if traced else ''}: "
                      f"correct={result['correct']} "
                      f"failed_share={result['failed_share']:.6f} {shown}",
                      flush=True)
                for note in result["notes"]:
                    print(f"  note: {note}")
        pair = [report["workloads"][n]["detail"]["result_digest"]
                for n in ("wire_filter_discrete", "wire_filter_discrete_wal")]
        if pair[0] != pair[1]:
            ok = False
            print("wire_filter_discrete and _wal result digests differ")
        last = json.dumps({"correct": ok})
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, default=str))
    print(last)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
