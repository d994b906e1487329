"""Multi-query runtime: queued inputs, round-robin scheduling, resilience.

The paper's prototype ran inside Borealis, a push engine where operators
consume from queues under a scheduler and queue growth (against the page
pool) is what produces the throughput tail-offs of Figs. 8/9.  This
module provides that runtime shape for the reproduction: any number of
registered queries (continuous or discrete) share named input streams;
arrivals are enqueued, a round-robin scheduler drains the queues in
batches, and queue depths are observable — the live counterpart of the
fluid :class:`~repro.engine.metrics.QueueingModel`.

On top of the seed runtime, two production disciplines:

* **Fault isolation** — a failing continuous solve (any
  :class:`~repro.core.errors.PulseError`) no longer kills the step.  The
  offending (query, key) is quarantined through the per-key
  :class:`~repro.engine.resilience.CircuitBreaker` and, when the query
  was registered with a discrete ``fallback``, the segment is sampled
  into tuples and replayed through the lowered plan — the paper's
  model-invalidation fallback, automated.
* **Back-pressure** — ``queue_capacity`` is enforced, not merely
  reported, under an explicit policy: ``"block"`` refuses the arrival
  (the producer must retry), ``"shed-newest"`` drops it, and
  ``"shed-oldest"`` evicts the oldest queued items to make room.  All
  sheds are metered in the :mod:`repro.engine.metrics` registry.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from ..core.errors import PlanError, PulseError

#: What the per-item fault boundary contains: library failures plus the
#: errors malformed/corrupt items raise inside operator evaluation
#: (missing fields, non-numeric values).  Programming errors outside
#: these classes still propagate.
_ITEM_FAULTS = (PulseError, KeyError, ValueError, TypeError, ArithmeticError)
from ..core.operators.sampler import OutputSampler
from ..core.segment import (
    Segment,
    ensure_segment_ids_above,
    segment_id_watermark,
)
from ..core.transform import TransformedQuery
from . import tracing
from .lowering import LoweredQuery
from .metrics import get_counter, get_histogram
from .resilience import BreakerConfig, CircuitBreaker, SlowSolveWatchdog
from .tuples import StreamTuple

#: Version stamp inside runtime checkpoint payloads; bumped when the
#: state-dict shape changes incompatibly.
RUNTIME_SNAPSHOT_VERSION = 1


def runtime_state_supported(state: object) -> bool:
    """Whether :meth:`QueryRuntime.restore_state` can load ``state``."""
    return (
        isinstance(state, Mapping)
        and state.get("version") == RUNTIME_SNAPSHOT_VERSION
    )


#: Valid back-pressure policies for :class:`QueryRuntime`.
BACKPRESSURE_POLICIES = ("block", "shed-oldest", "shed-newest")


@dataclass
class _Registration:
    name: str
    query: TransformedQuery | LoweredQuery
    streams: tuple[str, ...]
    #: Discrete lowered twin used when the breaker quarantines a key or
    #: a continuous push fails; ``None`` sheds instead of degrading.
    fallback: LoweredQuery | None = None
    #: Sampling period used to turn a quarantined segment into tuples
    #: for the fallback plan; defaults to the query's effective sample
    #: period, then 1.0.
    fallback_period: float | None = None
    queues: dict[str, deque] = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    items_processed: int = 0
    #: Total queued items across this query's streams, maintained at
    #: enqueue/drain time so the scheduler loop never re-sums queues.
    pending: int = 0
    errors: int = 0
    fallback_items: int = 0
    last_error: Exception | None = None
    _sampler: OutputSampler | None = None

    def __post_init__(self) -> None:
        for stream in self.streams:
            self.queues[stream] = deque()

    def sampler(self) -> OutputSampler:
        if self._sampler is None:
            period = self.fallback_period
            if period is None:
                period = getattr(self.query, "effective_sample_period", None)
            self._sampler = OutputSampler(period if period else 1.0)
        return self._sampler


class QueryRuntime:
    """Hosts registered queries behind input queues.

    Parameters
    ----------
    batch_size:
        Items drained from one query's queues per scheduling round —
        small batches interleave queries fairly, large batches amortize
        scheduling overhead.
    queue_capacity:
        Total queued items across all queries before the back-pressure
        policy engages (the page-pool analogue).  ``None`` disables the
        check.
    backpressure:
        What happens to an arrival that would exceed capacity:
        ``"block"`` refuses it (``enqueue`` returns ``False``),
        ``"shed-newest"`` drops it, ``"shed-oldest"`` evicts the oldest
        queued items to admit it.
    breaker:
        A :class:`~repro.engine.resilience.CircuitBreaker` (or a
        :class:`~repro.engine.resilience.BreakerConfig` to build one)
        gating the continuous path per (query, key).  ``None`` disables
        quarantine; step failures still degrade to the fallback.
    slow_solve_budget_s:
        Latency budget per processed arrival.  When set, every item is
        timed and exceedances are flagged through the
        :class:`~repro.engine.resilience.SlowSolveWatchdog` counters
        (``resilience.watchdog.*``); ``None`` (the default) disables
        the timing entirely.  Independent of the observability switch,
        so production can watch latency without paying for tracing.
    """

    def __init__(
        self,
        batch_size: int = 64,
        queue_capacity: int | None = None,
        backpressure: str = "block",
        breaker: CircuitBreaker | BreakerConfig | None = None,
        slow_solve_budget_s: float | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure policy must be one of "
                f"{BACKPRESSURE_POLICIES}, got {backpressure!r}"
            )
        self.batch_size = batch_size
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        if isinstance(breaker, BreakerConfig):
            breaker = CircuitBreaker(breaker)
        self.breaker = breaker
        self._queries: dict[str, _Registration] = {}
        self._round_robin: deque[str] = deque()
        self._streams: set[str] = set()
        self._total_pending = 0
        self.items_enqueued = 0
        self.items_dropped = 0
        self.items_shed = 0
        self.step_errors = 0
        # Counter handles bound once here — the enqueue/step hot paths
        # never resolve registry names per event.
        self._shed_newest_counter = get_counter("runtime.shed_newest")
        self._shed_oldest_counter = get_counter("runtime.shed_oldest")
        self._blocked_counter = get_counter("runtime.blocked")
        self._step_errors_counter = get_counter("runtime.step_errors")
        self._fallback_unavailable_counter = get_counter(
            "runtime.fallback_unavailable"
        )
        self._fallback_errors_counter = get_counter("runtime.fallback_errors")
        self._fallback_items_counter = get_counter("runtime.fallback_items")
        self._watchdog = (
            SlowSolveWatchdog(slow_solve_budget_s)
            if slow_solve_budget_s is not None
            else None
        )
        # Handles bound once; observed only while observability is on
        # (or the watchdog is set), so a plain run never touches them.
        self._round_hist = get_histogram("runtime.round_seconds")
        self._arrival_hist = get_histogram("runtime.arrival_seconds")

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        query: TransformedQuery | LoweredQuery,
        fallback: LoweredQuery | None = None,
        fallback_period: float | None = None,
    ) -> None:
        """Register a compiled query under a unique name.

        ``fallback`` (continuous queries only) names the discrete
        lowered twin that serves quarantined keys; see the class
        docstring.
        """
        if name in self._queries:
            raise PlanError(f"query {name!r} already registered")
        if fallback is not None and not isinstance(query, TransformedQuery):
            raise PlanError(
                "only continuous queries take a discrete fallback"
            )
        streams = tuple(query.stream_sources)
        reg = _Registration(
            name, query, streams,
            fallback=fallback, fallback_period=fallback_period,
        )
        self._queries[name] = reg
        self._round_robin.append(name)
        self._streams.update(streams)

    def unregister(self, name: str) -> None:
        reg = self._queries.pop(name, None)
        if reg is None:
            raise PlanError(f"query {name!r} is not registered")
        self._round_robin.remove(name)
        self._total_pending -= reg.pending
        self._streams = {
            s for r in self._queries.values() for s in r.streams
        }

    def has_query(self, name: str) -> bool:
        return name in self._queries

    @property
    def query_names(self) -> list[str]:
        return list(self._queries)

    # ------------------------------------------------------------------
    # input
    # ------------------------------------------------------------------
    def enqueue(self, stream: str, item: Segment | StreamTuple) -> bool:
        """Queue one arrival for every query consuming ``stream``.

        Segments route to continuous queries, tuples to discrete ones.
        An unregistered stream name raises :class:`PlanError` — a silent
        drop there hides wiring bugs; a stream that is registered but
        has no query of the item's representation returns ``False``.
        At capacity the configured back-pressure policy decides: refuse
        (``block``), drop the arrival (``shed-newest``), or evict old
        queue entries to admit it (``shed-oldest``).
        """
        if stream not in self._streams:
            raise PlanError(
                f"stream {stream!r} is not consumed by any registered "
                f"query; known streams: {sorted(self._streams)}"
            )
        want_segment = isinstance(item, Segment)
        targets = [
            reg
            for reg in self._queries.values()
            if stream in reg.queues
            and isinstance(reg.query, TransformedQuery) == want_segment
        ]
        if not targets:
            return False
        if self.queue_capacity is not None:
            shortfall = (
                self._total_pending + len(targets) - self.queue_capacity
            )
            if shortfall > 0 and self.backpressure == "shed-oldest":
                for _ in range(shortfall):
                    if not self._evict_oldest():
                        break
                shortfall = (
                    self._total_pending + len(targets) - self.queue_capacity
                )
            if shortfall > 0:
                self.items_dropped += 1
                if self.backpressure == "shed-newest":
                    self.items_shed += 1
                    self._shed_newest_counter.bump()
                else:
                    self._blocked_counter.bump()
                return False
        for reg in targets:
            reg.queues[stream].append(item)
            reg.pending += 1
            self._total_pending += 1
        self.items_enqueued += 1
        return True

    def _evict_oldest(self) -> bool:
        """Shed the oldest item of the deepest queue; ``False`` if empty."""
        deepest: deque | None = None
        owner: _Registration | None = None
        for reg in self._queries.values():
            for queue in reg.queues.values():
                if queue and (deepest is None or len(queue) > len(deepest)):
                    deepest = queue
                    owner = reg
        if deepest is None or owner is None:
            return False
        deepest.popleft()
        owner.pending -= 1
        self._total_pending -= 1
        self.items_shed += 1
        self._shed_oldest_counter.bump()
        return True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One scheduling round: drain up to ``batch_size`` items from
        the next query in round-robin order.  Returns items processed.

        A :class:`PulseError` from any single item is contained: the
        error is counted, the breaker quarantines the (query, key), and
        the item degrades to the registration's fallback (if any) — the
        round continues.
        """
        if not self._round_robin:
            return 0
        name = self._round_robin[0]
        self._round_robin.rotate(-1)
        reg = self._queries[name]
        # Drain-then-process: the round's items are collected first, in
        # exactly the order the serial loop would have popped them
        # (processing never enqueues, so the split changes nothing).
        drained: list[tuple[str, Segment | StreamTuple]] = []
        while len(drained) < self.batch_size and reg.pending:
            for stream, queue in reg.queues.items():
                if not queue:
                    continue
                drained.append((stream, queue.popleft()))
                reg.pending -= 1
                self._total_pending -= 1
                if len(drained) >= self.batch_size:
                    break
        observing = tracing.observability_enabled()
        watchdog = self._watchdog
        if not observing and watchdog is None:
            # The untouched fast path: zero instrumentation calls, zero
            # clock reads (pinned by ``tests/engine/test_tracing.py``).
            for stream, item in drained:
                self._process_item(reg, stream, item)
                reg.items_processed += 1
            return len(drained)
        return self._step_observed(reg, drained, observing, watchdog)

    def _step_observed(
        self,
        reg: _Registration,
        drained: list,
        observing: bool,
        watchdog: SlowSolveWatchdog | None,
    ) -> int:
        """The round's processing half with spans/timing enabled.

        Same control flow as the fast path in :meth:`step`; split out so
        the disabled case stays branch-minimal.  ``observing`` gates the
        histograms and spans; ``watchdog`` the per-arrival budget check.
        """
        tracer = tracing.current_tracer() if observing else None
        round_span = (
            tracer.start(
                "round", "round", query=reg.name, items=len(drained)
            )
            if tracer is not None
            else None
        )
        t_round = time.perf_counter()
        try:
            for stream, item in drained:
                self._process_item_observed(
                    reg, stream, item, tracer, observing, watchdog
                )
                reg.items_processed += 1
        finally:
            if observing:
                self._round_hist.observe(time.perf_counter() - t_round)
            if round_span is not None:
                tracer.finish(round_span)
        return len(drained)

    def _process_item_observed(
        self,
        reg: _Registration,
        stream: str,
        item: "Segment | StreamTuple",
        tracer,
        observing: bool,
        watchdog: SlowSolveWatchdog | None,
    ) -> None:
        """One arrival with an arrival span, emit event and budget check."""
        key = item.key if isinstance(item, Segment) else None
        before = len(reg.outputs)
        span = (
            tracer.start(
                "arrival", "arrival",
                query=reg.name, stream=stream, key=key,
            )
            if tracer is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            self._process_item(reg, stream, item)
        finally:
            elapsed = time.perf_counter() - t0
            emitted = len(reg.outputs) - before
            flagged = watchdog is not None and watchdog.check(
                reg.name, key, elapsed
            )
            if observing:
                self._arrival_hist.observe(elapsed)
            if tracer is not None:
                tracer.event("emit", "emit", outputs=emitted)
                if flagged:
                    tracer.event(
                        "slow_solve", "watchdog",
                        seconds=elapsed, budget_s=watchdog.budget_s,
                    )
                tracer.finish(span, outputs=emitted)

    def _process_item(
        self, reg: _Registration, stream: str, item: Segment | StreamTuple
    ) -> None:
        """Push one item, containing failures per the resilience policy."""
        continuous = isinstance(reg.query, TransformedQuery)
        key = item.key if isinstance(item, Segment) else None
        if (
            continuous
            and self.breaker is not None
            and not self.breaker.allow(reg.name, key)
        ):
            reg.outputs.extend(self._fallback_push(reg, stream, item))
            return
        try:
            outputs = reg.query.push(stream, item)
        except _ITEM_FAULTS as exc:
            reg.errors += 1
            reg.last_error = exc
            self.step_errors += 1
            self._step_errors_counter.bump()
            if continuous:
                if self.breaker is not None:
                    self.breaker.record_failure(reg.name, key)
                reg.outputs.extend(self._fallback_push(reg, stream, item))
            # Discrete items that fail (e.g. corrupt tuples) are dropped
            # after being counted; there is no lower path to fall to.
            return
        if continuous and self.breaker is not None:
            self.breaker.record_success(reg.name, key)
        reg.outputs.extend(outputs)

    def _fallback_push(
        self, reg: _Registration, stream: str, item: Segment | StreamTuple
    ) -> list:
        """Degrade one quarantined/failed arrival to the discrete twin.

        Segments are sampled into tuples at the registration's fallback
        period and replayed through the lowered plan (passthrough to
        raw-tuple processing); outputs are tuples, flagged by presence
        in the same ``outputs()`` drain as the healthy segments.
        """
        if reg.fallback is None:
            self._fallback_unavailable_counter.bump()
            return []
        rows = (
            reg.sampler().tuples(item)
            if isinstance(item, Segment)
            else [dict(item)]
        )
        outputs: list = []
        for row in rows:
            row = dict(row)
            row.pop("__key", None)
            try:
                outputs.extend(reg.fallback.push(stream, StreamTuple(row)))
            except _ITEM_FAULTS:
                self._fallback_errors_counter.bump()
        reg.fallback_items += 1
        self._fallback_items_counter.bump()
        return outputs

    def run_until_idle(self, max_rounds: int = 1_000_000) -> int:
        """Schedule rounds until every queue is empty; returns items."""
        total = 0
        rounds = 0
        while self.total_pending and rounds < max_rounds:
            total += self.step()
            rounds += 1
        return total

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """The runtime's incrementally-maintained state as one dict.

        Captures exactly what replay cannot cheaply rebuild: compiled
        plans *with* their operator state (segment buffers, window
        accumulators, group maps — the plan object graph is pickled
        wholesale by the snapshot writer), queued-but-unprocessed
        arrivals, undelivered outputs, per-query and runtime counters,
        breaker health, the round-robin cursor, and the global
        segment-id watermark.  Derived values (segment signatures) are
        recomputed on demand instead.
        """
        return {
            "version": RUNTIME_SNAPSHOT_VERSION,
            "registrations": [
                {
                    "name": reg.name,
                    "query": reg.query,
                    "fallback": reg.fallback,
                    "fallback_period": reg.fallback_period,
                    "queues": {
                        stream: list(q) for stream, q in reg.queues.items()
                    },
                    "outputs": list(reg.outputs),
                    "items_processed": reg.items_processed,
                    "errors": reg.errors,
                    "fallback_items": reg.fallback_items,
                }
                for reg in self._queries.values()
            ],
            "round_robin": list(self._round_robin),
            "counters": {
                "items_enqueued": self.items_enqueued,
                "items_dropped": self.items_dropped,
                "items_shed": self.items_shed,
                "step_errors": self.step_errors,
            },
            "breaker": (
                self.breaker.state_dict() if self.breaker else None
            ),
            "seg_id_watermark": segment_id_watermark(),
        }

    def restore_state(self, state: Mapping) -> None:
        """Load a :meth:`checkpoint_state` dict, replacing all state.

        The runtime's *configuration* (batch size, capacity, policy)
        is not part of the snapshot — build the runtime with
        the desired knobs, then restore into it.  Advances the global
        segment-id counter past the snapshot's watermark so ids issued
        after the restore never collide with restored segments (lineage
        refers to parents by id).
        """
        if not runtime_state_supported(state):
            raise PlanError(
                "unsupported runtime snapshot version "
                f"{state.get('version')!r}"
            )
        self._queries.clear()
        self._round_robin.clear()
        self._streams.clear()
        self._total_pending = 0
        for entry in state["registrations"]:
            reg = _Registration(
                entry["name"],
                entry["query"],
                tuple(entry["query"].stream_sources),
                fallback=entry["fallback"],
                fallback_period=entry["fallback_period"],
            )
            for stream, items in entry["queues"].items():
                reg.queues[stream] = deque(items)
            reg.outputs = list(entry["outputs"])
            reg.items_processed = entry["items_processed"]
            reg.errors = entry["errors"]
            reg.fallback_items = entry["fallback_items"]
            reg.pending = sum(len(q) for q in reg.queues.values())
            self._queries[reg.name] = reg
            self._streams.update(reg.streams)
            self._total_pending += reg.pending
        self._round_robin.extend(
            name for name in state["round_robin"] if name in self._queries
        )
        counters = state["counters"]
        self.items_enqueued = counters["items_enqueued"]
        self.items_dropped = counters["items_dropped"]
        self.items_shed = counters["items_shed"]
        self.step_errors = counters["step_errors"]
        if state.get("breaker") is not None:
            if self.breaker is None:
                self.breaker = CircuitBreaker()
            self.breaker.load_state(state["breaker"])
        ensure_segment_ids_above(state["seg_id_watermark"])

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def total_pending(self) -> int:
        return self._total_pending

    def queue_depths(self) -> Mapping[str, int]:
        return {name: reg.pending for name, reg in self._queries.items()}

    def outputs(self, name: str) -> list:
        """Drain and return the named query's accumulated outputs."""
        reg = self._queries[name]
        out = reg.outputs
        reg.outputs = []
        return out

    def stats(self) -> Mapping[str, int]:
        return {
            name: reg.items_processed for name, reg in self._queries.items()
        }

    def resilience_stats(self) -> Mapping[str, object]:
        """Step errors, fallback traffic and breaker population."""
        stats: dict[str, object] = {
            "step_errors": self.step_errors,
            "items_shed": self.items_shed,
            "fallback_items": {
                name: reg.fallback_items
                for name, reg in self._queries.items()
            },
            "errors": {
                name: reg.errors for name, reg in self._queries.items()
            },
        }
        if self.breaker is not None:
            stats["breaker"] = self.breaker.snapshot()
            stats["recovered_fraction"] = self.breaker.recovered_fraction()
        if self._watchdog is not None:
            stats["watchdog"] = {
                "budget_s": self._watchdog.budget_s,
                "items_checked": self._watchdog.items_checked,
                "slow_solves": self._watchdog.slow_solves,
            }
        return stats
