"""Compare two sets of benchmark reports, one row per (workload, metric).

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py --a A1.json A2.json A3.json \
                                     --b B1.json B2.json B3.json

Each file is a report written by ``run.py --out``.  A side with several
files is a *set*: the row compares the sets' medians and shows their
quartiles.  ``ratio`` is always B over A.  Verdicts, against the bound
``BENCHMARK.json`` fixes for the metric:

* ``within``     -- B's median is not worse than A's by more than the bound;
* ``worse``      -- it is;
* ``unresolved`` -- a set's own spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell.

``failed_share`` has no bound: any rise is ``worse``.  Nothing is
averaged across workloads.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    if not base or max(spread(a), spread(b)) > bound:
        return "unresolved"
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    return "worse" if worse_by > bound else "within"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def provenance_warnings(a: list[dict], b: list[dict]) -> list[str]:
    warnings = []
    for side, reports in (("A", a), ("B", b)):
        if any(r["provenance"].get("dirty") for r in reports):
            warnings.append(f"side {side} has runs from a dirty tree")
    for key in ("nproc", "python", "numpy"):
        if len({str(r["provenance"].get(key)) for r in a + b}) > 1:
            warnings.append(f"runs differ in {key}")
    for key in ("seed", "seconds"):
        if len({r.get(key) for r in a + b}) > 1:
            warnings.append(f"runs differ in --{key}; results are not "
                            f"expected to be identical")
    return warnings


def compare(a: list[dict], b: list[dict], manifest: dict) -> tuple[list, list]:
    """Rows ``(workload, metric, A stats, B stats, ratio, bound,
    verdict)`` and notes on result identity."""
    rows, notes = [], []
    names = [w["name"] for w in manifest["workloads"]]
    for name in names:
        runs_a = [r["workloads"][name] for r in a if name in r["workloads"]]
        runs_b = [r["workloads"][name] for r in b if name in r["workloads"]]
        if not runs_a or not runs_b:
            continue
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            va = [r["metrics"][key]["value"] for r in runs_a if r["metrics"]]
            vb = [r["metrics"][key]["value"] for r in runs_b if r["metrics"]]
            if not va or not vb:
                rows.append((name, key, None, None, None, metric["bound"],
                             "worse"))
                continue
            word = verdict(va, vb, metric["better"], metric["bound"])
            ratio = statistics.median(vb) / statistics.median(va)
            rows.append((name, key, quartiles(va), quartiles(vb), ratio,
                         metric["bound"], word))
        fa = max(r["failed_share"] for r in runs_a)
        fb = max(r["failed_share"] for r in runs_b)
        rows.append((name, "failed_share", (fa, fa, fa), (fb, fb, fb), None,
                     0.0, "worse" if fb > fa else "within"))
        by_seed: dict = {}
        for report, runs in ((r, r["workloads"].get(name)) for r in a + b):
            if runs:
                by_seed.setdefault(
                    (report.get("seed"), report.get("seconds")), set()
                ).add((runs["detail"].get("results"),
                       runs["detail"].get("result_digest")))
        for (seed, _seconds), seen in by_seed.items():
            if len(seen) > 1:
                notes.append(f"{name}: results differ between runs of "
                             f"seed {seed}: {sorted(seen)}")
    return rows, notes


def render(rows: list) -> str:
    def cell(stats):
        if stats is None:
            return "missing"
        q1, median, q3 = stats
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

    lines = [f"{'workload':26s} {'metric':16s} {'A median [q1, q3]':34s} "
             f"{'B median [q1, q3]':34s} {'B/A':>7s} {'bound':>6s} verdict"]
    for name, key, sa, sb, ratio, bound, word in rows:
        shown = "" if ratio is None else f"{ratio:.3f}"
        lines.append(f"{name:26s} {key:16s} {cell(sa):34s} {cell(sb):34s} "
                     f"{shown:>7s} {bound:6.2f} {word}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=[])
    parser.add_argument("--b", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files and len(args.files) != 2:
        parser.error("give exactly two files, or --a ... --b ...")
    side_a = args.a or args.files[:1]
    side_b = args.b or args.files[1:]
    if not side_a or not side_b:
        parser.error("both sides need at least one report")
    a, b = load(side_a), load(side_b)
    manifest = json.loads(MANIFEST.read_text())
    for warning in provenance_warnings(a, b):
        print(f"warning: {warning}")
    rows, notes = compare(a, b, manifest)
    print(f"A: {len(a)} run(s), B: {len(b)} run(s); ratio = B median / "
          f"A median")
    print(render(rows))
    for note in notes:
        print(f"note: {note}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
