"""Server subprocess handling and the three load phases.

One server process (``python -m repro serve`` or ``route``), one
generator thread (this one), one ``PulseClient`` connection, one
subscription: the host has two cores, one for each side.

The untraced pass touches only the ``serve``/``route`` CLI flags,
``PulseClient``'s public methods and the wire ``stats`` op.
"""

from __future__ import annotations

import gc
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: Ceilings that turn a hang into a counted failure.
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
PHASE_TIMEOUT_S = 90.0
STOP_GRACE_S = 10.0

COLD_STARTS = 5

_PORT_RE = re.compile(rb"listening on \S+:(\d+)")


def _proc_stats():
    """``(pid, stat fields after the command name)`` of every process:
    state, ppid, pgrp, ..."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        yield int(entry), stat.rsplit(")", 1)[1].split()


class ServerProcess:
    """A ``repro serve`` / ``repro route`` child in its own session.

    The child leads its own process group, so the router's workers are
    found (for RSS) and, if it comes to SIGKILL, reaped through the
    group without walking a process tree.
    """

    def __init__(self, workload, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        if workload.fleet_workers:
            args = ["route", "--port", "0",
                    "--workers", str(workload.fleet_workers),
                    "--worker-wal-dir", str(workdir / "fleet")]
        else:
            # --shards 1 is pinned so parallel="auto" can never make the
            # run depend on the host's core count.
            args = ["serve", "--port", "0", "--shards", "1"]
            if workload.wal:
                args += ["--wal-dir", str(workdir / "wal")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(workdir)
        # A benchmark started as a background job inherits SIGINT
        # ignored and would hand that on: the server would never see the
        # stop signal.  A handler here becomes the default in the child.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self._log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(workdir), start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.port = self._read_port()

    def _read_port(self) -> int:
        fd = self.proc.stdout.fileno()
        seen = b""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                match = _PORT_RE.search(seen)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError(
            f"server did not report a port: {seen!r}; "
            f"log: {(self.workdir / 'server.log').read_text()[-2000:]}"
        )

    def group_pids(self) -> list[int]:
        return [pid for pid, fields in _proc_stats()
                if int(fields[2]) == self.pgid]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's process group."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def interrupt(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def wait_stopped(self) -> bool:
        """Wait out a graceful stop; SIGKILL the group after the grace
        period.  Returns whether the stop was graceful."""
        graceful = True
        try:
            self.proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            graceful = False
        # A graceful router has already stopped its workers; anything
        # still in the group is a leak either way.
        if self.group_pids():
            graceful = False
            self.kill()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        return graceful

    def stop(self) -> bool:
        self.interrupt()
        return self.wait_stopped()


def cold_start(workload, workdir: Path, first_tuple: dict, client_cls):
    """spawn -> hello + register + subscribe + one-tuple ingest acked.

    Returns ``(seconds, server, client, subscription id)``.
    """
    t0 = time.perf_counter()
    server = ServerProcess(workload, workdir)
    try:
        client = client_cls("127.0.0.1", server.port,
                            timeout=REQUEST_TIMEOUT_S)
        client.connect()
        client.register("bench", workload.query, fit=workload.fit)
        sub = client.subscribe(
            "bench", mode=workload.mode, error_bound=workload.error_bound
        )
        ack = client.ingest(workload.stream, [first_tuple])
        elapsed = time.perf_counter() - t0
    except BaseException:
        server.kill()
        raise
    if ack.get("accepted") != 1:
        server.kill()
        raise RuntimeError(f"setup tuple was not accepted: {ack}")
    return elapsed, server, client, sub["subscription"]


class Tally:
    """Attempted/failed accounting behind ``failed_share``."""

    #: Ack fields that mean a tuple did not reach the query.
    LOST = ("rejected", "shed", "blocked", "no_consumer", "fit_rejected")

    def __init__(self):
        self.tuples = self.batches = self.rows = 0
        self.lost_tuples = self.failed_batches = self.wrong_rows = 0
        self.notes: list[str] = []

    def ack(self, sent: int, ack: dict) -> None:
        self.tuples += sent
        self.batches += 1
        self.lost_tuples += sum(int(ack.get(f, 0)) for f in self.LOST)

    def batch_failed(self, sent: int, why: str) -> None:
        self.tuples += sent
        self.batches += 1
        self.failed_batches += 1
        self.notes.append(why)

    @property
    def attempted(self) -> int:
        return self.tuples + self.batches + self.rows

    @property
    def failed(self) -> int:
        return self.lost_tuples + self.failed_batches + self.wrong_rows

    def result(self, metrics: dict, detail: dict, left: list[str]) -> dict:
        """One pass's outcome; ``metrics`` is empty when the pass did not
        get as far as measuring."""
        self.notes += [f"left behind: {item}" for item in left]
        return {
            "correct": bool(metrics) and self.failed == 0 and not left,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
            "failed_share": self.failed / max(1, self.attempted),
            "notes": self.notes,
            "detail": detail,
        }


def supported_percentile(samples: list[float], pct: float) -> float | None:
    """The ``pct`` percentile, or ``None`` when fewer than ten samples
    lie beyond it (a tail that thin does not repeat run to run)."""
    ordered = sorted(samples)
    index = int(len(ordered) * pct / 100.0)
    if len(ordered) - 1 - index < 10:
        return None
    return ordered[index]


def due_latencies(dues, send_starts, acks):
    """Latency from each batch's *due* time and how late each send
    began.  A stalled batch therefore charges its stall to every later
    batch that had to wait behind it (no coordinated omission)."""
    latencies = [ack - due for due, ack in zip(dues, acks)]
    lateness = [max(0.0, start - due) for due, start in zip(dues, send_starts)]
    return latencies, lateness


def warmup_phase(client, workload, tuples: list[dict], tally: Tally) -> None:
    """Untimed closed loop: query windows fill and lazy set-up finishes
    before anything is measured."""
    batch = workload.saturate_batch
    for lo in range(0, len(tuples), batch):
        chunk = tuples[lo:lo + batch]
        tally.ack(len(chunk), client.ingest(workload.stream, chunk))


def paced_phase(client, workload, tuples: list[dict], tally: Tally) -> dict:
    """Open loop at ``paced_rate``, one batch in flight."""
    batch = workload.paced_batch
    period = batch / workload.paced_rate
    dues, starts, acks = [], [], []
    t0 = time.perf_counter() + 0.05
    deadline = t0 + PHASE_TIMEOUT_S
    for i, lo in enumerate(range(0, len(tuples), batch)):
        chunk = tuples[lo:lo + batch]
        due = t0 + i * period
        now = time.perf_counter()
        if now > deadline:
            tally.batch_failed(len(chunk), "paced phase timed out")
            continue
        if due - now > 0.001:
            time.sleep(due - now - 0.0005)
        while time.perf_counter() < due:
            pass
        start = time.perf_counter()
        try:
            ack = client.ingest(workload.stream, chunk)
        except Exception as exc:  # counted, then the run is abandoned
            tally.batch_failed(len(chunk), f"paced ingest: {exc!r}")
            raise
        acks.append(time.perf_counter())
        dues.append(due)
        starts.append(start)
        tally.ack(len(chunk), ack)
    latencies, lateness = due_latencies(dues, starts, acks)
    p95 = supported_percentile(latencies, 95.0)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": None if p95 is None else p95 * 1e3,
        "latency_samples": len(latencies),
        "generator_late_ms_max": max(lateness) * 1e3,
        "paced_elapsed_s": acks[-1] - t0,
    }


#: The saturate phase is scored as the median of this many equal slices:
#: a burst of host interference lands in one or two slices, not in the
#: reported number.
SATURATE_SLICES = 10


def saturate_phase(client, workload, tuples: list[dict], tally: Tally) -> dict:
    """Closed loop: next batch on ack, then flush."""
    batch = workload.saturate_batch
    t0 = time.perf_counter()
    deadline = t0 + PHASE_TIMEOUT_S
    marks = [(t0, 0)]  # (time, tuples acked so far) after every batch
    for lo in range(0, len(tuples), batch):
        chunk = tuples[lo:lo + batch]
        if time.perf_counter() > deadline:
            tally.batch_failed(len(chunk), "saturate phase timed out")
            continue
        try:
            ack = client.ingest(workload.stream, chunk)
        except Exception as exc:
            tally.batch_failed(len(chunk), f"saturate ingest: {exc!r}")
            raise
        tally.ack(len(chunk), ack)
        marks.append(
            (time.perf_counter(), marks[-1][1] + int(ack.get("accepted", 0)))
        )
    client.flush()
    marks[-1] = (time.perf_counter(), marks[-1][1])  # flush included
    step = max(1, (len(marks) - 1) // SATURATE_SLICES)
    cuts = marks[::step]
    if cuts[-1] is not marks[-1]:
        cuts[-1] = marks[-1]
    rates = [
        (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(cuts, cuts[1:])
    ]
    elapsed = marks[-1][0] - t0
    return {
        "throughput_tps": statistics.median(rates),
        "throughput_whole_phase_tps": marks[-1][1] / elapsed,
        "saturate_elapsed_s": elapsed,
        "saturate_tuples": len(tuples),
    }


def leftovers(shm_before: set[str]) -> list[str]:
    """Child processes and shared-memory segments that outlived the run."""
    me = os.getpid()
    found = [
        f"child process {pid}" for pid, fields in _proc_stats()
        if int(fields[1]) == me and fields[0] != "Z"
    ]
    found += [f"shm {name}" for name in sorted(shm_names() - shm_before)]
    return found


def quiet_heap() -> None:
    """The generator holds ~1M container objects (inputs, then results);
    letting the cyclic collector walk them mid-phase would time this
    process's heap, not the server."""
    gc.collect()
    gc.freeze()
    gc.disable()


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
