"""Throughput and latency instrumentation, plus the queueing model.

The paper's evaluation reports (a) processing throughput for fixed-size
workloads, (b) per-operator processing cost, and (c) throughput curves
that *tail off* once the offered stream rate exceeds engine capacity
because queues grow until the page pool is exhausted (Figures 8 and 9).

Absolute 2006 C++ numbers are unreproducible in Python, so we reproduce
the shapes:

* :func:`measure_service_time` times a real run of a plan over a real
  workload, giving the engine's measured capacity (tuples/second);
* :class:`QueueingModel` turns a measured service time plus an offered
  arrival rate into the achieved throughput, average latency and queue
  growth of a bounded-memory push engine: while the queue fits in memory
  the server drains at its capacity, but beyond a memory threshold the
  effective service time inflates (thrash factor), reproducing the
  tail-off the paper observes when "the dataset exhausts the system's
  memory as queues grow".
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: Default latency bucket upper bounds, in seconds.  A coarse log ladder
#: from 10 microseconds (one cheap solve) to 10 seconds (a stuck
#: drain round); observations beyond the last bound land in the implicit
#: +Inf overflow bucket.  Fixed boundaries make the snapshots of
#: different runs (benchmark rounds, a before and an after) comparable
#: bucket by bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


@dataclass
class Counter:
    """A named, resettable event counter.

    Thread-safe: the network server's event-loop thread bumps the same
    registry objects (``server.*``, ``replay.*``) that the engine
    thread reads and resets, and ``value += by`` is a read-modify-write
    that loses increments under that interleaving.  A per-counter lock
    makes :meth:`bump`/:meth:`reset` linearizable; the uncontended
    acquire is ~100 ns, which every bump site already dwarfs.  Reads of
    ``value`` stay lock-free — a snapshot may be one bump stale, never
    torn (ints swap atomically under the GIL).
    """

    name: str
    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, by: int = 1) -> None:
        with self._lock:
            self.value += by

    def reset(self) -> None:
        with self._lock:
            self.value = 0


@dataclass
class Gauge:
    """A named, settable level (e.g. currently-open breaker keys).

    Counters only accumulate; gauges report a current state that can go
    down as well as up, which is what the resilience layer exports for
    breaker occupancy and queue depths.  Locked like :class:`Counter`
    (:meth:`add` is the racy read-modify-write; :meth:`set` takes the
    lock too so a concurrent ``add`` is never half-applied over it).
    """

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, by: float = 1.0) -> None:
        with self._lock:
            self.value += by

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Histogram:
    """A fixed-bucket latency histogram.

    Bucket boundaries are the *upper bounds* of each bucket (ascending),
    with an implicit +Inf overflow bucket at the end, mirroring the
    Prometheus histogram model.

    ``observe`` is a single bisect plus three integer adds, cheap enough
    for per-solve instrumentation; the observability layer still guards
    every call site so a disabled run pays nothing at all.

    **Single-writer invariant (unlocked by design).**  Unlike
    :class:`Counter`/:class:`Gauge`, histograms are *not* locked:
    ``observe`` sits on the traced solve hot path and its three-field
    update would pay a lock per solve.  Instead every histogram has
    exactly one writer thread — the engine thread owns the ``runtime.*``
    and ``solver.*`` histograms, and the network server's event-loop
    thread owns the ``server.*`` histograms it creates.  Cross-thread
    readers (``MetricsSnapshot.collect``) may see a snapshot mid-update
    — one observation's count/sum skew, never a torn bucket list.
    Creating a histogram that two threads observe is a bug; give each
    thread its own.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] | None = None,
    ):
        if bounds is None:
            bounds = DEFAULT_LATENCY_BUCKETS
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("bucket bounds must be strictly ascending")
        self.name = name
        self.bounds = bounds
        #: One slot per bound plus the +Inf overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (seconds, for the latency histograms)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation within a bucket.

        Observations in the overflow bucket report the last finite bound
        (the histogram cannot see beyond its ladder).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= rank and c:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i else 0.0
                hi = self.bounds[i]
                frac = (rank - (running - c)) / c
                return lo + frac * (hi - lo)
        return self.bounds[-1]

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def as_dict(self) -> dict:
        """JSON-ready snapshot."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class CounterRegistry:
    """Process-wide named counters and gauges — the shared stats surface.

    The equation-system solver (``equation_system.row_solves``), the
    fold memo (``memo.fold.hits`` / ``.misses`` / ``.evictions``) and
    the resilience layer (``resilience.breaker.*``) register here,
    so benchmarks and ablations read and reset one place instead of
    poking mutable class attributes.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # Guards get-or-create only: without it, two threads resolving
        # the same name for the first time each build an object and one
        # thread keeps bumping an orphan the registry never reports.
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        found = self._counters.get(name)
        if found is None:
            with self._create_lock:
                found = self._counters.get(name)
                if found is None:
                    found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        found = self._gauges.get(name)
        if found is None:
            with self._create_lock:
                found = self._gauges.get(name)
                if found is None:
                    found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, bounds: Sequence[float] | None = None
    ) -> Histogram:
        """Get or create the named histogram (bounds fixed on creation)."""
        found = self._histograms.get(name)
        if found is None:
            with self._create_lock:
                found = self._histograms.get(name)
                if found is None:
                    found = self._histograms[name] = Histogram(name, bounds)
        return found

    def value(self, name: str) -> int:
        return self.counter(name).value

    def snapshot(self, prefix: str = "") -> dict[str, int]:
        """Current counter values, optionally restricted to a prefix."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def gauge_snapshot(self, prefix: str = "") -> dict[str, float]:
        """Current gauge values, optionally restricted to a prefix."""
        return {
            name: g.value
            for name, g in sorted(self._gauges.items())
            if name.startswith(prefix)
        }

    def histogram_snapshot(self, prefix: str = "") -> dict[str, dict]:
        """Current histogram snapshots, optionally prefix-restricted."""
        return {
            name: h.as_dict()
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def reset(self, *names: str) -> None:
        """Reset the named metrics, or everything when none given."""
        targets = names or (
            tuple(self._counters)
            + tuple(self._gauges)
            + tuple(self._histograms)
        )
        for name in targets:
            if name in self._counters:
                self._counters[name].reset()
            if name in self._gauges:
                self._gauges[name].reset()
            if name in self._histograms:
                self._histograms[name].reset()


#: The default registry used by the solver, memos, and benchmarks.
GLOBAL_COUNTERS = CounterRegistry()


def get_counter(name: str) -> Counter:
    """Get or create a counter in the global registry."""
    return GLOBAL_COUNTERS.counter(name)


def get_gauge(name: str) -> Gauge:
    """Get or create a gauge in the global registry."""
    return GLOBAL_COUNTERS.gauge(name)


def get_histogram(
    name: str, bounds: Sequence[float] | None = None
) -> Histogram:
    """Get or create a histogram in the global registry."""
    return GLOBAL_COUNTERS.histogram(name, bounds)


def counter_snapshot(prefix: str = "") -> Mapping[str, int]:
    return GLOBAL_COUNTERS.snapshot(prefix)


def gauge_snapshot(prefix: str = "") -> Mapping[str, float]:
    return GLOBAL_COUNTERS.gauge_snapshot(prefix)


def histogram_snapshot(prefix: str = "") -> Mapping[str, dict]:
    return GLOBAL_COUNTERS.histogram_snapshot(prefix)


def reset_counters(*names: str) -> None:
    GLOBAL_COUNTERS.reset(*names)


# ----------------------------------------------------------------------
# exported snapshots
# ----------------------------------------------------------------------
def _prometheus_name(name: str) -> str:
    """Registry name -> Prometheus metric name (``repro_`` namespace)."""
    safe = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    return f"repro_{safe}"


@dataclass
class MetricsSnapshot:
    """A point-in-time export of every counter, gauge and histogram.

    The one serialization surface for the observability layer: the CLI's
    ``--metrics-out`` writes one of these (JSON, or Prometheus text
    exposition format when the path ends in ``.prom``), and the
    benchmark harness embeds one in every ``BENCH_<name>.json`` so the
    recorded perf trajectory carries latency distributions, not just
    wall time.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        prefix: str = "",
        registry: CounterRegistry | None = None,
    ) -> "MetricsSnapshot":
        reg = registry or GLOBAL_COUNTERS
        return cls(
            counters=reg.snapshot(prefix),
            gauges=reg.gauge_snapshot(prefix),
            histograms=reg.histogram_snapshot(prefix),
        )

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), one family per metric.

        Counter/gauge families are single samples; histograms expand to
        the standard cumulative ``_bucket{le=...}`` series plus ``_sum``
        and ``_count``.
        """
        lines: list[str] = []
        for name, value in sorted(self.counters.items()):
            pname = _prometheus_name(name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {value}")
        for name, value in sorted(self.gauges.items()):
            pname = _prometheus_name(name)
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {value}")
        for name, data in sorted(self.histograms.items()):
            pname = _prometheus_name(name)
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in zip(data["bounds"], data["counts"]):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{bound}"}} {cumulative}'
                )
            cumulative += data["counts"][-1]
            lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{pname}_sum {data['sum']}")
            lines.append(f"{pname}_count {data['count']}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        """Write to ``path``: Prometheus text for ``.prom``, else JSON."""
        import pathlib

        p = pathlib.Path(path)
        if p.suffix == ".prom":
            p.write_text(self.to_prometheus())
        else:
            p.write_text(self.to_json() + "\n")


class Stopwatch:
    """Minimal wall-clock stopwatch built on the monotonic clock."""

    def __init__(self):
        self._start: float | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._start
        self._start = None


@dataclass
class RunMetrics:
    """Outcome of a measured plan execution."""

    items_in: int
    items_out: int
    elapsed_seconds: float

    @property
    def throughput(self) -> float:
        """Input items processed per second."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.items_in / self.elapsed_seconds

    @property
    def service_time(self) -> float:
        """Mean seconds of processing per input item."""
        if self.items_in == 0:
            return 0.0
        return self.elapsed_seconds / self.items_in


def measure_run(
    feed: Callable[[], int],
) -> RunMetrics:
    """Time ``feed`` (which pushes a workload and returns output count).

    ``feed`` must return the number of outputs produced; the number of
    inputs is returned by convention as ``feed.items`` if present, else
    equals the outputs.
    """
    with Stopwatch() as sw:
        outputs = feed()
    inputs = getattr(feed, "items", outputs)
    return RunMetrics(items_in=inputs, items_out=outputs, elapsed_seconds=sw.elapsed)


def measure_service_time(
    process_one: Callable[[object], object],
    workload: Sequence,
) -> RunMetrics:
    """Time a per-item processing function over a workload."""
    n_out = 0
    with Stopwatch() as sw:
        for item in workload:
            result = process_one(item)
            if result:
                n_out += len(result) if isinstance(result, list) else 1
    return RunMetrics(
        items_in=len(workload), items_out=n_out, elapsed_seconds=sw.elapsed
    )


@dataclass
class QueueingResult:
    """Steady-state outcome of offering a rate to a bounded-memory server."""

    offered_rate: float
    achieved_throughput: float
    mean_latency: float
    final_queue_length: float
    saturated: bool


class QueueingModel:
    """Deterministic fluid model of a push engine with a page pool.

    Parameters
    ----------
    service_time:
        Measured seconds of processing per input item (unloaded).
    queue_capacity:
        Items that fit in memory before thrashing begins (the paper's
        1.5 GB page pool, scaled to item counts).
    thrash_factor:
        Multiplier on service time per unit of queue-capacity overshoot;
        models allocator/paging pressure as queues grow.
    """

    def __init__(
        self,
        service_time: float,
        queue_capacity: float = 50_000.0,
        thrash_factor: float = 1.5,
    ):
        if service_time <= 0:
            raise ValueError("service time must be positive")
        self.service_time = service_time
        self.queue_capacity = queue_capacity
        self.thrash_factor = thrash_factor

    @property
    def capacity(self) -> float:
        """Unloaded capacity in items/second."""
        return 1.0 / self.service_time

    def offered(self, rate: float, duration: float = 60.0, steps: int = 600) -> QueueingResult:
        """Simulate ``duration`` seconds of arrivals at ``rate``.

        Fluid approximation: per time step, ``rate * dt`` items arrive and
        the server drains at ``1 / effective_service_time`` where the
        effective service time inflates once the queue passes capacity.
        """
        dt = duration / steps
        queue = 0.0
        processed = 0.0
        latency_accum = 0.0
        for _ in range(steps):
            # Thrash is driven by the backlog carried into the step, and
            # arrivals drain concurrently with service within the step —
            # otherwise a step's worth of arrivals (rate * dt) would
            # spuriously saturate small queue capacities even under load.
            overshoot = max(0.0, queue / self.queue_capacity - 1.0)
            eff_service = self.service_time * (1.0 + self.thrash_factor * overshoot)
            drained = min(queue + rate * dt, dt / eff_service)
            queue += rate * dt - drained
            processed += drained
            # Little's law contribution for this step.
            latency_accum += queue * dt
        achieved = processed / duration
        mean_latency = latency_accum / processed if processed else float("inf")
        return QueueingResult(
            offered_rate=rate,
            achieved_throughput=achieved,
            mean_latency=mean_latency,
            final_queue_length=queue,
            saturated=queue > self.queue_capacity,
        )

    def sweep(self, rates: Iterable[float], duration: float = 60.0) -> list[QueueingResult]:
        return [self.offered(r, duration) for r in rates]
