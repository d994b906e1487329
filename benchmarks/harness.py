"""Benchmark result recording: one JSON artifact per benchmark run.

Every benchmark that wants a machine-readable trajectory calls
:func:`record_result` with its headline metrics; the harness stamps the
environment (git revision, CPU count, hostname-free platform string,
UTC timestamp) and writes ``benchmarks/results/BENCH_<name>.json``.
Committing these artifacts gives the repository a recorded performance
trajectory: every run of the same benchmark on a new revision appends a
comparable point, and CI uploads the files so regressions are diffable
without rerunning anything.

Schema (stable keys; benchmarks may add their own under ``metrics``):

```json
{
  "name": "router_scaling",
  "git_rev": "441536d...",
  "recorded_at": "2026-08-06T12:00:00+00:00",
  "python": "3.12.3",
  "platform": "Linux-...",
  "cpu_count": 1,
  "wall_time_s": 1.23,
  "throughput_items_per_s": 831.4,
  "speedup": 1.83,
  "metrics": {...},
  "metrics_snapshot": {"counters": {...}, "gauges": {...},
                       "histograms": {...}}
}
```

``metrics_snapshot`` is the process's full
:class:`repro.engine.metrics.MetricsSnapshot` at recording time —
latency histograms included — so the perf trajectory carries
distributions, not just wall time (``null`` when ``repro`` is not
importable).

``wall_time_s`` / ``throughput_items_per_s`` / ``speedup`` are promoted
to the top level when present in ``metrics`` (under those names or the
short aliases ``wall_time`` / ``throughput``) so downstream tooling can
read the headline numbers without knowing each benchmark's vocabulary.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

RESULTS_DIR = Path(__file__).parent / "results"

#: metrics keys promoted to top-level fields (first name wins).
_PROMOTED = {
    "wall_time_s": ("wall_time_s", "wall_time"),
    "throughput_items_per_s": ("throughput_items_per_s", "throughput"),
    "speedup": ("speedup",),
}


def git_revision(repo_root: Path | None = None) -> str:
    """The current git revision, ``"<rev>-dirty"`` with uncommitted
    changes, or ``"unknown"`` outside a checkout.

    Never raises: recording a benchmark result must work from an
    exported tarball, a CI shallow clone mid-rebase, or a dirty working
    tree — the provenance field degrades instead of the run failing.
    """
    root = repo_root or Path(__file__).resolve().parent.parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    if not rev:
        return "unknown"
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        # Revision known but cleanliness not provable: call it dirty so
        # a recorded number is never wrongly attributed to a clean rev.
        return f"{rev}-dirty"
    return f"{rev}-dirty" if status.stdout.strip() else rev


def record_result(
    name: str,
    metrics: Mapping[str, Any],
    results_dir: Path | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` under ``benchmarks/results/``.

    ``name`` must be a filesystem-safe slug (letters, digits, ``-``,
    ``_``); ``metrics`` is the benchmark's own flat mapping of numbers
    and strings.  Returns the written path.
    """
    if not name or any(c not in _SLUG for c in name):
        raise ValueError(
            f"benchmark name must be a [-_a-zA-Z0-9] slug, got {name!r}"
        )
    out_dir = results_dir or RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    doc: dict[str, Any] = {
        "name": name,
        "git_rev": git_revision(),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }
    for field, aliases in _PROMOTED.items():
        for alias in aliases:
            if alias in metrics:
                doc[field] = metrics[alias]
                break
    effective = _parallel_effective(metrics, doc["cpu_count"])
    if effective is not None:
        doc["parallel_effective"] = effective
        if not effective:
            print(
                f"[harness] WARNING: BENCH_{name} ran "
                f"{metrics.get('max_shards')} worker processes on "
                f"{doc['cpu_count']} CPU(s) — any speedup is pipelining "
                "overlap, not parallel scaling (parallel_effective=false).",
                file=sys.stderr,
            )
    doc["metrics"] = dict(metrics)
    doc["metrics_snapshot"] = _metrics_snapshot()
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return path


def _parallel_effective(
    metrics: Mapping[str, Any], cpu_count: int
) -> bool | None:
    """Whether a multi-process run's speedup can honestly be called parallel.

    ``None`` (field omitted) unless the benchmark runs its ``max_shards``
    workers as separate processes (``parallel_used: true`` — the router
    fleet bench).  ``False`` when the host has fewer CPUs than workers:
    they time-slice the cores, so any speedup is pipelining overlap.
    """
    shards = metrics.get("max_shards")
    if shards is None or not metrics.get("parallel_used"):
        return None
    try:
        shards = int(shards)
    except (TypeError, ValueError):
        return None
    return cpu_count >= shards


def _metrics_snapshot() -> dict[str, Any] | None:
    """The process's current counter/gauge/histogram state, or ``None``.

    Embedding the registry snapshot in every ``BENCH_<name>.json`` means
    the recorded perf trajectory carries latency distributions and work
    counters, not just wall time.  ``None`` when the ``repro`` package
    is not importable (harness used standalone).
    """
    try:
        from repro.engine.metrics import MetricsSnapshot
    except ImportError:
        return None
    return MetricsSnapshot.collect().as_dict()


_SLUG = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)
