"""Thread-safe bridge between the network layer and the query runtime.

The :class:`~repro.engine.scheduler.QueryRuntime` (and everything below
it: operator state, the tracer) is single-threaded
by design.  The server keeps it that way: one dedicated **engine
thread** owns the runtime, the fitting builders and all tracer access;
the asyncio event loop submits commands through a queue and awaits
their futures.  Nothing engine-side is ever touched from the loop
thread, so none of the hot-path structures grow locks.

Ordering guarantee: each command *pumps* the runtime (drains every
queue) and delivers outputs through ``on_outputs`` **before** its
future resolves.  Both the delivery callbacks and the future
resolution cross into the event loop via ``call_soon_threadsafe``,
which is FIFO — so by the time a client sees the ``ack`` for a
``flush``, every result that flush produced has already been written
ahead of it.  That is what makes the loopback parity tests exact
rather than eventually-consistent.

Shared plans
------------
A ``register`` stores the *parsed* query once.  Subscriptions then
share **one operator graph per (query, mode)** — the shared-plan
economy the paper's Sec. IV lineage makes sound: an equation system
solved at a tight error bound is valid for every looser bound, so one
graph solved at the *tightest currently-subscribed bound* serves all
subscribers, each holding only lightweight per-subscription state (its
own bound, an output cursor, its owning session).

* **discrete** — one graph per query; ingested tuples push straight
  through the lowered plan.  Error bounds do not apply.
* **continuous** — one graph per query, fitted at
  ``min(bound for live subscriptions)``.  When a tighter subscriber
  arrives (or the tightest one leaves), the graph **retargets**: open
  fitting windows seal at the old bound (their segments flow to the
  subscribers that bound served) and future fitting happens at the
  new tightest bound.  That is the only re-solve subscribe/
  unsubscribe can cost; joining at a bound the graph already satisfies
  is free.

The last unsubscribe tears the graph down — runtime registration,
builders and delta trackers are all released, so subscription churn
leaves no residue (the ``subs.active`` / ``subs.shared_graphs`` gauges
and the churn soak test pin this).

Each graph registers with the runtime under a *namespaced* stream name
(``<graph>/<stream>``), so two registered queries over the same wire
stream never share queues.

Durability
----------
Subscriptions are durable state: ``subscribe`` / ``unsubscribe`` are
WAL-logged and the subscription table (with per-subscription cursors)
rides in checkpoints, so recovery rebuilds the shared graphs *and*
their subscriber tables bit-exactly.  Recovered subscriptions are
**detached** (their session died with the process); a reconnecting
client either re-subscribes (joining the shared graph as a new
subscriber) or ``attach``-es to its old subscription id to resume its
cursor.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.errors import PlanError, PulseError
from ..core.transform import to_continuous_plan
from ..engine import tracing
from ..engine.durability import Durability
from ..engine.lowering import to_discrete_plan
from ..engine.metrics import get_counter, get_gauge, get_histogram
from ..engine.scheduler import QueryRuntime, runtime_state_supported
from ..engine.tuples import ColumnBatch, StreamTuple
from ..fitting.model_builder import StreamModelBuilder
from ..query import parse_query, plan_query
from .protocol import ProtocolError, serialize_results

_STOP = object()

#: Version stamp for bridge-level snapshot payloads.  v2: per-(query,
#: mode) shared graphs with a durable subscription table replaced the
#: v1 per-(query, mode, bound) instances.
BRIDGE_SNAPSHOT_VERSION = 2


#: Column types whose every value passes the modeled-attribute test.
_NUMERIC = {int, float}


def migrate_ingest_record(record: tuple) -> tuple:
    """A WAL ``ingest`` record in the current (column) form.

    Records written before ingest went columnar hold the batch as a
    list of row tuples; they are transposed exactly as the client
    transposes the same rows, so replay feeds the engine the batch a
    column-speaking client would have sent.
    """
    kind, stream, payload, policy = record
    if isinstance(payload, list):
        payload = ColumnBatch.from_rows(payload).columns
    return kind, stream, payload, policy


def _snapshot_supported(state: Mapping) -> bool:
    """Whether this build knows both layouts a snapshot embeds."""
    if state.get("version") != BRIDGE_SNAPSHOT_VERSION:
        return False
    return runtime_state_supported(state.get("runtime"))


class BridgeClosed(PulseError):
    """Command submitted to (or stranded in) a shut-down bridge.

    Typed so callers can tell "the server is going away" from an engine
    failure; futures rejected at shutdown carry this instead of hanging
    forever.
    """


@dataclass(frozen=True)
class FitSpec:
    """How to fit arriving tuples into segments for a continuous query.

    ``attrs`` are the modeled attributes; ``key_fields`` identify the
    entity; ``constants`` ride along unmodeled (defaulting to the key
    fields, which is what every workload preset wants).
    """

    attrs: tuple[str, ...]
    key_fields: tuple[str, ...] = ()
    constants: tuple[str, ...] | None = None

    @property
    def effective_constants(self) -> tuple[str, ...]:
        return self.key_fields if self.constants is None else self.constants

    @classmethod
    def from_wire(cls, obj: object) -> "FitSpec":
        if not isinstance(obj, dict):
            raise ProtocolError("'fit' must be a JSON object")
        attrs = obj.get("attrs")
        if not isinstance(attrs, list) or not all(
            isinstance(a, str) for a in attrs
        ) or not attrs:
            raise ProtocolError("'fit.attrs' must be a list of field names")
        key_fields = obj.get("key_fields", [])
        constants = obj.get("constants")
        for name, value in (("key_fields", key_fields), ("constants", constants)):
            if value is not None and (
                not isinstance(value, list)
                or not all(isinstance(v, str) for v in value)
            ):
                raise ProtocolError(
                    f"'fit.{name}' must be a list of field names"
                )
        return cls(
            attrs=tuple(attrs),
            key_fields=tuple(key_fields),
            constants=None if constants is None else tuple(constants),
        )


@dataclass
class _QueryEntry:
    """One registered logical query (parsed once, instantiated lazily)."""

    name: str
    text: str
    planned: object
    fit: FitSpec | None


@dataclass
class _Subscription:
    """Per-subscriber state over a shared graph: a bound and a cursor.

    ``bound`` is the precision this subscriber asked for — always at
    least as loose as the graph's ``solve_bound``, which is what makes
    fanning the shared output stream out to it sound.  ``cursor``
    counts the results delivered to this subscription; it advances
    deterministically with the shared output stream (connection-alive
    or not) so it survives recovery bit-exactly.  ``session_id`` is
    the owning connection, ``None`` when detached (recovered).
    """

    sub_id: int
    graph: "_SharedGraph"
    bound: float | None
    session_id: int | None = None
    cursor: int = 0
    #: Bounded tail of raw outputs at cursor positions
    #: ``[cursor - len(retained), cursor)`` — only populated when the
    #: bridge was built with ``retain_results > 0``.  This is what
    #: makes ``attach(from_cursor=...)`` able to re-deliver outputs a
    #: subscriber's connection lost across a crash (the fleet router's
    #: exactly-once merge depends on it).
    retained: deque | None = None


@dataclass
class _SharedGraph:
    """One runtime-registered (query, mode) shared operator graph."""

    runtime_name: str
    entry: _QueryEntry
    mode: str
    #: Continuous: the tightest currently-subscribed bound, which is
    #: the builders' fitting tolerance.  Discrete: ``None``.
    solve_bound: float | None
    #: Original (wire-visible) stream names this graph consumes.
    streams: tuple[str, ...]
    #: ``wire stream -> namespaced runtime stream``.
    stream_map: dict[str, str]
    #: Continuous only: per-stream incremental fitters at ``solve_bound``.
    builders: dict[str, StreamModelBuilder] = field(default_factory=dict)
    subs: dict[int, _Subscription] = field(default_factory=dict)
    seq: int = 0
    fit_rejects: int = 0
    #: Bound retargets (tighten + relax) this graph has performed.
    retightens: int = 0

    def tightest_bound(self) -> float | None:
        bounds = [s.bound for s in self.subs.values() if s.bound is not None]
        return min(bounds) if bounds else None

    def info(self) -> dict:
        return {
            "query": self.entry.name,
            "mode": self.mode,
            "error_bound": self.solve_bound,
            "graph": self.runtime_name,
        }


class EngineBridge:
    """Owns the runtime on a dedicated thread; commands cross a queue.

    Parameters
    ----------
    runtime_kwargs:
        Passed to :class:`~repro.engine.scheduler.QueryRuntime`
        (``queue_capacity``, ``backpressure``,
        ``slow_solve_budget_s``, ...).
    default_tolerance:
        Fitting tolerance for continuous subscriptions that specify no
        error bound and whose query text carries none.
    default_fit:
        Fallback :class:`FitSpec` for queries registered without one
        (the CLI derives it from the ``--workload`` preset).
    on_outputs:
        ``(subscribers, graph_info, outputs) -> None`` where
        ``subscribers`` is ``[(sub_id, cursor), ...]`` — the cursor is
        each subscription's delivery offset *before* this batch.
        Called on the engine thread; the server trampolines it into
        the loop.
    on_notify:
        ``(kind, payload) -> None`` for watchdog / backpressure /
        breaker pushes, same threading rule.
    wal_dir:
        Directory for the ingest WAL + checkpoints.  When set, every
        state-changing command (register / subscribe / unsubscribe /
        ingest batch / flush) is logged *before* it executes, and
        :meth:`start` recovers from the newest valid snapshot plus a
        WAL-tail replay before the first command runs.  The WAL sits
        at the tuple boundary — the validated column batch is logged,
        before model fitting — because the fitting builders are part
        of the state that must reconverge.
    checkpoint_every:
        Auto-checkpoint after this many WAL-logged ingest tuples
        (``None`` = manual ``checkpoint`` commands only).
    fsync_every:
        WAL fsync batching (records per fsync; 1 = every record).
    retain_results:
        Keep the last N raw outputs per subscription (0 = off).  The
        retained tail rides in checkpoints and refills during WAL
        replay, so after a crash ``attach(from_cursor=...)`` can
        re-deliver exactly the outputs whose in-flight delivery the
        crash destroyed — the replay-aware half of the fleet router's
        exactly-once merge.
    """

    def __init__(
        self,
        runtime_kwargs: Mapping | None = None,
        *,
        default_tolerance: float = 0.05,
        default_fit: FitSpec | None = None,
        on_outputs: Callable[[list, dict, list], None] | None = None,
        on_notify: Callable[[str, dict], None] | None = None,
        wal_dir: str | None = None,
        checkpoint_every: int | None = None,
        fsync_every: int = 32,
        retain_results: int = 0,
    ):
        self.runtime = QueryRuntime(**dict(runtime_kwargs or {}))
        self.retain_results = retain_results
        self.default_tolerance = default_tolerance
        self.default_fit = default_fit
        self.on_outputs = on_outputs
        self.on_notify = on_notify
        self._durability = (
            Durability(wal_dir, fsync_every=fsync_every)
            if wal_dir
            else None
        )
        self.checkpoint_every = checkpoint_every
        #: Cumulative WAL-logged ingest tuples (survives restarts via
        #: the snapshot); the client-facing durable resume offset.
        self.ingest_tuples = 0
        self._tuples_at_checkpoint = 0
        self._replaying = False
        self.recovery_report = None
        self._closed = False
        self._commands: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        self._entries: dict[str, _QueryEntry] = {}
        self._graphs: dict[tuple[str, str], _SharedGraph] = {}
        self._subs: dict[int, _Subscription] = {}
        #: Highest subscription id ever granted (durable): restarted
        #: servers allocate fresh ids above it so recovered and new
        #: subscriptions never collide.
        self.max_sub_id = 0
        self._sessions: set[int] = set()
        self._session_spans: dict[int, object] = {}
        self._last_shed = 0
        self._last_dropped = 0
        self._last_slow = 0
        self._last_open: frozenset = frozenset()
        self._ingest_hist = get_histogram("server.ingest_batch_seconds")
        self._ingested_counter = get_counter("server.ingested_tuples")
        self._no_consumer_counter = get_counter("server.no_consumer_tuples")
        self._active_subs_gauge = get_gauge("subs.active")
        self._shared_graphs_gauge = get_gauge("subs.shared_graphs")
        self._retighten_counter = get_counter("subs.retighten_resolves")

    # ------------------------------------------------------------------
    # lifecycle (any thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("bridge already started")
        if self._closed:
            raise BridgeClosed("bridge was shut down")
        self._thread = threading.Thread(
            target=self._run, name="pulse-engine", daemon=True
        )
        self._thread.start()
        if self._durability is not None:
            # Recovery runs as the first engine-thread command, so no
            # client command can observe pre-recovery state; waiting on
            # the future keeps start() synchronous for callers that
            # immediately advertise readiness.
            self.submit(self._do_restore).result()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain queued commands, then reject late ones.

        Commands already queued are processed (with their outputs
        delivered) before the engine thread exits; a final checkpoint
        is taken when durability is on, so a clean shutdown needs no
        replay on the next start.  Anything submitted after shutdown
        begins — or still queued if the drain deadline expires — gets
        a typed :class:`BridgeClosed` instead of a hanging future.
        """
        thread = self._thread
        if thread is None:
            self._closed = True
            self._reject_pending()
            return
        if self.recovery_report is not None and thread.is_alive():
            # Only a recovered engine is checkpointed: one whose
            # recovery failed holds no state worth a snapshot.
            self._commands.put((self._do_checkpoint, Future()))
        self._commands.put(_STOP)
        self._closed = True
        thread.join(timeout)
        alive = thread.is_alive()
        self._reject_pending()
        if alive:
            raise RuntimeError("engine thread did not stop")
        self._thread = None
        if self._durability is not None:
            self._durability.close()

    def _reject_pending(self) -> None:
        """Fail every still-queued future with :class:`BridgeClosed`."""
        while True:
            try:
                cmd = self._commands.get_nowait()
            except queue.Empty:
                return
            if cmd is _STOP:
                continue
            _fn, future = cmd
            if not future.done():
                future.set_exception(
                    BridgeClosed("bridge shut down before command ran")
                )

    def submit(self, fn: Callable[[], object]) -> Future:
        """Run ``fn`` on the engine thread; resolve the future after
        the post-command pump has delivered all outputs.  After
        :meth:`stop` begins, the future fails immediately with
        :class:`BridgeClosed`."""
        future: Future = Future()
        if self._closed:
            future.set_exception(BridgeClosed("bridge is shut down"))
            return future
        self._commands.put((fn, future))
        return future

    # ------------------------------------------------------------------
    # commands (construct on any thread, run on the engine thread)
    # ------------------------------------------------------------------
    def register_query(
        self, name: str, text: str, fit: FitSpec | None = None
    ) -> Future:
        return self.submit(lambda: self._do_register(name, text, fit))

    def subscribe(
        self,
        sub_id: int,
        query: str,
        mode: str,
        bound: float | None,
        session_id: int | None = None,
    ) -> Future:
        return self.submit(
            lambda: self._do_subscribe(sub_id, query, mode, bound, session_id)
        )

    def unsubscribe(self, sub_id: int) -> Future:
        return self.submit(lambda: self._do_unsubscribe(sub_id))

    def attach(
        self,
        sub_id: int,
        session_id: int | None,
        from_cursor: int | None = None,
    ) -> Future:
        return self.submit(
            lambda: self._do_attach(sub_id, session_id, from_cursor)
        )

    def ingest(
        self,
        session_id: int | None,
        stream: str,
        batch: ColumnBatch,
        policy: str | None = None,
    ) -> Future:
        return self.submit(
            lambda: self._do_ingest(session_id, stream, batch, policy)
        )

    def flush(self) -> Future:
        return self.submit(self._do_flush)

    def checkpoint(self) -> Future:
        return self.submit(self._do_checkpoint)

    def stats(self) -> Future:
        return self.submit(self._do_stats)

    def open_session(self, session_id: int, peer: str) -> Future:
        return self.submit(lambda: self._do_open_session(session_id, peer))

    def close_session(self, session_id: int) -> Future:
        return self.submit(lambda: self._do_close_session(session_id))

    # ------------------------------------------------------------------
    # engine thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            cmd = self._commands.get()
            if cmd is _STOP:
                break
            fn, future = cmd
            try:
                result = fn()
                # Deliveries happen inside fn's pump; resolving after
                # them is the results-before-ack ordering guarantee.
                future.set_result(result)
            except BaseException as exc:  # noqa: BLE001 — future carries it
                future.set_exception(exc)

    def _log(self, record: tuple) -> int:
        """WAL one state-changing command (no-op when ephemeral)."""
        if self._durability is None or self._replaying:
            return 0
        return self._durability.log(record)

    def _do_register(
        self, name: str, text: str, fit: FitSpec | None
    ) -> dict:
        if name in self._entries:
            raise PlanError(f"query {name!r} already registered")
        planned = plan_query(parse_query(text))
        self._log(("register", name, text, fit))
        entry = _QueryEntry(name, text, planned, fit or self.default_fit)
        self._entries[name] = entry
        return {
            "registered": name,
            "streams": sorted(planned.stream_sources),
        }

    def _resolve_bound(
        self, entry: _QueryEntry, bound: float | None
    ) -> float:
        if bound is not None:
            return float(bound)
        spec = entry.planned.error_spec
        if spec is not None:
            return float(spec.bound)
        return self.default_tolerance

    def _do_subscribe(
        self,
        sub_id: int,
        query: str,
        mode: str,
        bound: float | None,
        session_id: int | None,
    ) -> dict:
        entry = self._entries.get(query)
        if entry is None:
            raise PlanError(
                f"query {query!r} is not registered; "
                f"known queries: {sorted(self._entries)}"
            )
        if sub_id in self._subs:
            raise PlanError(f"subscription {sub_id} already exists")
        if mode == "continuous":
            if entry.fit is None:
                raise PlanError(
                    f"continuous subscription to {entry.name!r} needs a "
                    f"fit spec (attrs/key_fields) and none was registered"
                )
            bound = self._resolve_bound(entry, bound)
        else:
            bound = None
        # Every precondition above is checked before the WAL write, so
        # a logged subscribe always re-executes cleanly on replay.
        self._log(("subscribe", sub_id, query, mode, bound))
        key = (query, mode)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._make_graph(entry, mode, bound)
            self._graphs[key] = graph
        elif (
            mode == "continuous"
            and graph.solve_bound is not None
            and bound < graph.solve_bound
        ):
            # A tighter subscriber arrived: retarget the shared graph
            # *before* admitting it, so segments sealed at the old
            # bound fan out only to the subscribers that bound served.
            self._retarget_graph(graph, bound)
        sub = _Subscription(
            sub_id=sub_id,
            graph=graph,
            bound=bound,
            session_id=session_id,
            retained=self._new_retained(),
        )
        graph.subs[sub_id] = sub
        self._subs[sub_id] = sub
        self.max_sub_id = max(self.max_sub_id, sub_id)
        self._update_sub_gauges()
        return {
            "subscription": sub_id,
            "graph": graph.runtime_name,
            "mode": mode,
            "error_bound": bound,
            "solve_bound": graph.solve_bound,
            "cursor": sub.cursor,
            "streams": list(graph.streams),
        }

    def _make_graph(
        self, entry: _QueryEntry, mode: str, bound: float | None
    ) -> _SharedGraph:
        streams = tuple(entry.planned.stream_sources)
        if mode == "continuous":
            runtime_name = f"{entry.name}~c"
            compiled = to_continuous_plan(entry.planned)
        else:
            runtime_name = f"{entry.name}~d"
            compiled = to_discrete_plan(entry.planned)
        stream_map = {s: f"{runtime_name}/{s}" for s in streams}
        namespaced = compiled.renamed(stream_map)
        graph = _SharedGraph(
            runtime_name=runtime_name,
            entry=entry,
            mode=mode,
            solve_bound=bound if mode == "continuous" else None,
            streams=streams,
            stream_map=stream_map,
        )
        if mode == "continuous":
            fit = entry.fit
            if fit is None:
                raise PlanError(
                    f"continuous subscription to {entry.name!r} needs a "
                    f"fit spec (attrs/key_fields) and none was registered"
                )
            for s in streams:
                graph.builders[s] = StreamModelBuilder(
                    fit.attrs,
                    bound,
                    key_fields=fit.key_fields,
                    constants=fit.effective_constants,
                )
        self.runtime.register(runtime_name, namespaced)
        return graph

    def _retarget_graph(self, graph: _SharedGraph, bound: float) -> None:
        """Move a shared graph's solve bound to ``bound`` (the new
        tightest subscribed bound, tighter or looser than before).

        Open fitting windows cannot be re-fit without the raw tuples,
        so they seal at the *old* bound — those segments were promised
        to the subscribers that bound served and flow to them through
        the normal pump — and every tuple from here on fits at the new
        bound.  The runtime registration and its operator state stay
        as they are.
        """
        for stream, builder in graph.builders.items():
            for seg in builder.retarget(bound):
                self.runtime.enqueue(graph.stream_map[stream], seg)
        graph.solve_bound = bound
        graph.retightens += 1
        self._retighten_counter.bump()
        self._pump()

    def _do_unsubscribe(self, sub_id: int) -> dict:
        sub = self._subs.get(sub_id)
        if sub is None:
            raise PlanError(f"unknown subscription {sub_id}")
        self._log(("unsubscribe", sub_id))
        del self._subs[sub_id]
        graph = sub.graph
        del graph.subs[sub_id]
        if not graph.subs:
            # Last subscriber gone: tear the shared graph down.  Its
            # fitted state only had meaning relative to live bounds;
            # keeping it alive leaked the runtime registration, the
            # builders and the delta tracker forever.
            self._teardown_graph(graph)
        elif (
            graph.mode == "continuous"
            and sub.bound == graph.solve_bound
            and graph.tightest_bound() != graph.solve_bound
        ):
            # The departed subscriber was the (sole) tightest: relax
            # the shared bound to the tightest remaining one.
            self._retarget_graph(graph, graph.tightest_bound())
        self._update_sub_gauges()
        return {"subscription": sub_id}

    def _teardown_graph(self, graph: _SharedGraph) -> None:
        self.runtime.unregister(graph.runtime_name)
        del self._graphs[(graph.entry.name, graph.mode)]
        graph.builders.clear()

    def _new_retained(self) -> deque | None:
        return (
            deque(maxlen=self.retain_results)
            if self.retain_results
            else None
        )

    def _do_attach(
        self,
        sub_id: int,
        session_id: int | None,
        from_cursor: int | None = None,
    ) -> dict:
        """Re-bind a detached (recovered) subscription to a session.

        Session binding is ephemeral by design — it dies with the
        process and is *not* WAL-logged; only the subscription itself
        (and its cursor) is durable.

        With ``from_cursor``, the ack also carries ``replayed``: the
        serialized outputs at cursor positions ``[from_cursor,
        cursor)``, re-delivered from the retained tail so a subscriber
        that saw its connection die mid-delivery resumes with no gap.
        Asking for history older than the retention window is a typed
        error — the gap is real and must not be papered over.
        """
        sub = self._subs.get(sub_id)
        if sub is None:
            raise PlanError(f"unknown subscription {sub_id}")
        if (
            sub.session_id is not None
            and sub.session_id != session_id
            and sub.session_id in self._sessions
        ):
            raise PlanError(
                f"subscription {sub_id} is attached to a live session"
            )
        replayed: list = []
        if from_cursor is not None:
            if not 0 <= from_cursor <= sub.cursor:
                raise PlanError(
                    f"from_cursor {from_cursor} outside [0, {sub.cursor}] "
                    f"for subscription {sub_id}"
                )
            missing = sub.cursor - from_cursor
            retained = sub.retained if sub.retained is not None else ()
            if missing > len(retained):
                raise PlanError(
                    f"retention exceeded: subscription {sub_id} is at "
                    f"cursor {sub.cursor} but only {len(retained)} "
                    f"outputs are retained; cannot replay from "
                    f"{from_cursor}"
                )
            if missing:
                replayed = list(retained)[len(retained) - missing:]
        sub.session_id = session_id
        graph = sub.graph
        return {
            "subscription": sub_id,
            "graph": graph.runtime_name,
            "query": graph.entry.name,
            "mode": graph.mode,
            "error_bound": sub.bound,
            "solve_bound": graph.solve_bound,
            "cursor": sub.cursor,
            "streams": list(graph.streams),
            "replayed": serialize_results(replayed),
        }

    def _update_sub_gauges(self) -> None:
        self._active_subs_gauge.set(len(self._subs))
        self._shared_graphs_gauge.set(len(self._graphs))

    def _do_ingest(
        self,
        session_id: int | None,
        stream: str,
        batch: ColumnBatch,
        policy: str | None,
    ) -> dict:
        t0 = time.perf_counter()
        tracer = tracing.current_tracer()
        span = None
        if tracer is not None:
            parent = self._session_spans.get(session_id)
            span = tracer.start_detached(
                "ingest",
                "ingest",
                parent_id=parent.span_id if parent is not None else None,
                stream=stream,
                tuples=len(batch),
            )
        counts = {
            "accepted": 0,
            "blocked": 0,
            "shed": 0,
            "no_consumer": 0,
            "fit_rejected": 0,
        }
        if self._durability is not None and not self._replaying:
            # Write-ahead at the tuple boundary: the validated column
            # batch goes to disk before fitting can fold it into
            # builder state.
            self._log(("ingest", stream, batch.columns, policy))
            self.ingest_tuples += len(batch)
        consumers = [
            graph
            for graph in self._graphs.values()
            if stream in graph.stream_map
        ]
        previous_policy = self.runtime.backpressure
        if policy is not None:
            # Per-connection back-pressure: the policy rides with the
            # batch and is restored afterwards — commands on the engine
            # thread are serialized, so this cannot interleave.
            self.runtime.backpressure = policy
        try:
            if consumers:
                self._admit(stream, batch, consumers, counts)
            else:
                counts["no_consumer"] = len(batch)
        finally:
            self.runtime.backpressure = previous_policy
        self._ingested_counter.bump(counts["accepted"])
        if counts["no_consumer"]:
            self._no_consumer_counter.bump(counts["no_consumer"])
        self._pump()
        self._ingest_hist.observe(time.perf_counter() - t0)
        if tracer is not None and span is not None:
            tracer.finish_detached(span, **counts)
        if (
            self.checkpoint_every
            and self._durability is not None
            and not self._replaying
            and self.ingest_tuples - self._tuples_at_checkpoint
            >= self.checkpoint_every
        ):
            self._do_checkpoint()
        return counts

    def _admit(
        self,
        stream: str,
        batch: ColumnBatch,
        consumers: list[_SharedGraph],
        counts: dict,
    ) -> None:
        """Feed ``batch`` to every consuming graph, row-major.

        Row ``i`` reaches every consumer, in registration order, before
        row ``i + 1`` reaches any: admission order across graphs, and so
        which rows a full queue sheds or blocks, is the order of rows.
        A discrete graph gets each row as a :class:`StreamTuple` (built
        once per row, shared by every discrete graph); a continuous
        graph's builder gets the row's time, key and modeled values.
        """
        enqueue = self.runtime.enqueue
        rows = None
        feeds = []
        for graph in consumers:
            target = graph.stream_map[stream]
            if graph.mode == "discrete":
                if rows is None:
                    rows = batch.rows()
                feeds.append((target, None, rows))
            else:
                builder = graph.builders[stream]
                feeds.append((
                    target,
                    builder.add_point,
                    self._fit_points(graph, builder, batch, counts),
                ))
        lost = 0
        for i in range(len(batch)):
            admitted = True
            for target, add_point, items in feeds:
                if add_point is None:
                    if not enqueue(target, items[i]):
                        admitted = False
                    continue
                point = items[i]
                if point is None:
                    continue
                for seg in add_point(*point):
                    if not enqueue(target, seg):
                        admitted = False
            if not admitted:
                lost += 1
        counts["accepted"] += len(batch) - lost
        bp = self.runtime.backpressure
        counts["shed" if bp == "shed-newest" else "blocked"] += lost

    def _fit_points(
        self,
        graph: _SharedGraph,
        builder: StreamModelBuilder,
        batch: ColumnBatch,
        counts: dict,
    ) -> list:
        """Each row's ``add_point`` arguments; ``None`` for a row that
        fails the fit preconditions, counted as ``fit_rejected``.

        The preconditions (modeled attrs numeric, key fields present)
        are checked once per column, before the segmenter sees any
        row: ``MultiAttributeSegmenter.add`` consumes a point
        attribute by attribute, so letting it raise midway would leave
        the per-attribute windows inconsistent.
        """
        bad: set[int] = set()
        for attr in builder.attrs:
            values = batch.column(attr)
            if not set(map(type, values)) <= _NUMERIC:
                bad.update(
                    i
                    for i, value in enumerate(values)
                    if isinstance(value, bool)
                    or not isinstance(value, (int, float))
                )
        for field in builder.key_fields:
            values = batch.column(field)
            if None in values:
                bad.update(i for i, value in enumerate(values) if value is None)
        keys = batch.zipped(builder.key_fields)
        points: list = list(zip(
            batch.column(StreamTuple.TIME_FIELD),
            keys,
            batch.zipped(builder.attrs),
            keys
            if builder.constants == builder.key_fields
            else batch.zipped(builder.constants),
        ))
        if bad:
            counts["fit_rejected"] += len(bad)
            graph.fit_rejects += len(bad)
            for i in bad:
                points[i] = None
        return points

    def _do_flush(self) -> dict:
        """End-of-stream barrier: close every open fitted segment,
        drain the runtime, deliver everything."""
        # Flush mutates builder state (open windows close), so it is a
        # WAL event like any other state-changing command.
        self._log(("flush",))
        flushed = 0
        for graph in self._graphs.values():
            for stream, builder in graph.builders.items():
                for seg in builder.finish():
                    # finish() is called at end of trace; admission uses
                    # the server's standing policy, not any connection's.
                    if self.runtime.enqueue(graph.stream_map[stream], seg):
                        flushed += 1
        processed = self._pump()
        return {"flushed_segments": flushed, "processed": processed}

    # ------------------------------------------------------------------
    # durability (engine thread)
    # ------------------------------------------------------------------
    def _do_checkpoint(self) -> dict:
        """Atomic snapshot of entries, graphs, subscriptions, builders
        and the runtime."""
        if self._durability is None:
            raise PlanError("server has no WAL directory configured")
        state = {
            "version": BRIDGE_SNAPSHOT_VERSION,
            "entries": [
                (e.name, e.text, e.fit) for e in self._entries.values()
            ],
            "graphs": [
                {
                    "query": graph.entry.name,
                    "mode": graph.mode,
                    "runtime_name": graph.runtime_name,
                    "solve_bound": graph.solve_bound,
                    "builders": graph.builders,
                    "seq": graph.seq,
                    "fit_rejects": graph.fit_rejects,
                    "retightens": graph.retightens,
                }
                for graph in self._graphs.values()
            ],
            "subscriptions": [
                {
                    "sub_id": sub.sub_id,
                    "query": sub.graph.entry.name,
                    "mode": sub.graph.mode,
                    "bound": sub.bound,
                    "cursor": sub.cursor,
                    # The retained output tail must survive snapshots:
                    # a checkpoint can cover outputs whose delivery the
                    # crash then destroys, and WAL replay only refills
                    # retention for post-snapshot commands.
                    "retained": list(sub.retained or ()),
                }
                for sub in self._subs.values()
            ],
            "max_sub_id": self.max_sub_id,
            "runtime": self.runtime.checkpoint_state(),
            "ingest_tuples": self.ingest_tuples,
        }
        info = self._durability.checkpoint(state)
        self._tuples_at_checkpoint = self.ingest_tuples
        return {
            "seq": info["seq"],
            "bytes": info["bytes"],
            "duration_s": info["duration_s"],
            "ingest_tuples": self.ingest_tuples,
        }

    def _load_snapshot(self, state: Mapping) -> None:
        self._entries = {}
        for name, text, fit in state["entries"]:
            # Query plans are re-derived from text (deterministic and
            # robust across code changes); operator *state* rides in
            # the runtime snapshot's pickled plan graph instead.
            planned = plan_query(parse_query(text))
            self._entries[name] = _QueryEntry(name, text, planned, fit)
        self.runtime.restore_state(state["runtime"])
        self._graphs = {}
        for item in state["graphs"]:
            entry = self._entries[item["query"]]
            streams = tuple(entry.planned.stream_sources)
            runtime_name = item["runtime_name"]
            graph = _SharedGraph(
                runtime_name=runtime_name,
                entry=entry,
                mode=item["mode"],
                solve_bound=item["solve_bound"],
                streams=streams,
                stream_map={
                    s: f"{runtime_name}/{s}" for s in streams
                },
                builders=item["builders"],
                seq=item["seq"],
                fit_rejects=item["fit_rejects"],
                retightens=item["retightens"],
            )
            self._graphs[(entry.name, item["mode"])] = graph
        self._subs = {}
        for item in state["subscriptions"]:
            graph = self._graphs[(item["query"], item["mode"])]
            retained = self._new_retained()
            if retained is not None:
                retained.extend(item.get("retained", ()))
            sub = _Subscription(
                sub_id=item["sub_id"],
                graph=graph,
                bound=item["bound"],
                session_id=None,  # sessions die with the process
                cursor=item["cursor"],
                retained=retained,
            )
            graph.subs[sub.sub_id] = sub
            self._subs[sub.sub_id] = sub
        self.max_sub_id = state["max_sub_id"]
        self.ingest_tuples = state["ingest_tuples"]
        self._update_sub_gauges()

    def _apply_record(self, record: tuple) -> None:
        """Replay one WAL record through the normal command paths."""
        kind = record[0]
        if kind == "register":
            _, name, text, fit = record
            if name not in self._entries:
                self._do_register(name, text, fit)
        elif kind == "subscribe":
            _, sub_id, qname, mode, bound = record
            if qname in self._entries and sub_id not in self._subs:
                self._do_subscribe(sub_id, qname, mode, bound, None)
        elif kind == "unsubscribe":
            _, sub_id = record
            if sub_id in self._subs:
                self._do_unsubscribe(sub_id)
        elif kind == "ingest":
            _, stream, columns, policy = migrate_ingest_record(record)
            batch = ColumnBatch(columns)
            self.ingest_tuples += len(batch)
            self._do_ingest(None, stream, batch, policy)
        elif kind == "flush":
            self._do_flush()
        # Unknown kinds: skip (forward compatibility), never crash.

    def _do_restore(self) -> dict:
        """Recover on start: newest valid snapshot + WAL-tail replay.

        The subscription table recovers with the graphs: restored
        subscriptions are *detached* (no session) but keep advancing
        their cursors through the replayed tail, so a client that
        ``attach``-es after reconnect resumes from a cursor that is
        bit-exact with the pre-crash delivery stream.  Delivery itself
        is suppressed during replay (``on_outputs`` never fires while
        ``_replaying``).  Damaged WAL frames are skipped with
        accounting in the returned report.
        """
        tracer = tracing.current_tracer()
        span = (
            tracer.start_detached("recovery", "recovery") if tracer else None
        )
        start = time.perf_counter()
        for state, report, records in self._durability.recover():
            if state is None or _snapshot_supported(state):
                break
            # Both embedded versions are checked before any state is
            # touched: a layout this build cannot load counts as a
            # damaged snapshot, and the next older one is tried (the
            # recover iterator raises RecoveryGap rather than offer one
            # whose WAL tail is gone).
            get_counter("recovery.bad_snapshots").bump()
        self._replaying = True
        try:
            if state is not None:
                self._load_snapshot(state)
            for _seq, record in records:
                self._apply_record(record)
        finally:
            self._replaying = False
        self._durability.finish_recovery(report)
        report.duration_s = time.perf_counter() - start
        self.recovery_report = report.as_dict()
        self._sync_notification_baseline()
        if report.replayed:
            # Fold the replayed tail into a fresh checkpoint so a
            # crash loop never replays the same tail twice.
            self._do_checkpoint()
        else:
            self._tuples_at_checkpoint = self.ingest_tuples
        if tracer and span is not None:
            tracer.finish_detached(
                span,
                snapshot_seq=report.snapshot_seq,
                replayed=report.replayed,
                recovered_seq=report.recovered_seq,
            )
        return self.recovery_report

    def _sync_notification_baseline(self) -> None:
        """Replay re-trips sheds/breakers; don't re-notify history."""
        self._last_shed = self.runtime.items_shed
        self._last_dropped = self.runtime.items_dropped
        watchdog = self.runtime.resilience_stats().get("watchdog")
        if watchdog is not None:
            self._last_slow = watchdog["slow_solves"]
        if self.runtime.breaker is not None:
            self._last_open = frozenset(self.runtime.breaker.open_keys())

    def _do_stats(self) -> dict:
        stats: dict = {
            "queries": sorted(self._entries),
            "query_streams": {
                name: sorted(entry.planned.stream_sources)
                for name, entry in self._entries.items()
            },
            "graphs": {
                graph.runtime_name: {
                    **graph.info(),
                    "subscribers": len(graph.subs),
                    "fit_rejected": graph.fit_rejects,
                    "retightens": graph.retightens,
                    "outputs_emitted": graph.seq,
                }
                for graph in self._graphs.values()
            },
            "subscriptions": {
                str(sub.sub_id): {
                    "query": sub.graph.entry.name,
                    "mode": sub.graph.mode,
                    "error_bound": sub.bound,
                    "solve_bound": sub.graph.solve_bound,
                    "cursor": sub.cursor,
                    "attached": sub.session_id in self._sessions,
                }
                for sub in self._subs.values()
            },
            "queue_depths": dict(self.runtime.queue_depths()),
            "total_pending": self.runtime.total_pending,
            "items_enqueued": self.runtime.items_enqueued,
            "items_shed": self.runtime.items_shed,
            "items_dropped": self.runtime.items_dropped,
            "resilience": _json_safe(self.runtime.resilience_stats()),
        }
        if self._durability is not None:
            stats["durability"] = _json_safe(
                {
                    "wal_dir": self._durability.directory,
                    "ingest_tuples": self.ingest_tuples,
                    "wal_seq": self._durability.last_seq,
                    "recovery": self.recovery_report,
                }
            )
        return stats

    def _do_open_session(self, session_id: int, peer: str) -> None:
        self._sessions.add(session_id)
        tracer = tracing.current_tracer()
        if tracer is not None:
            self._session_spans[session_id] = tracer.start_detached(
                "session", "session", peer=peer, session=session_id
            )

    def _do_close_session(self, session_id: int) -> None:
        # Subscriptions owned by the session die with it — durably, so
        # the last departure tears the shared graph down exactly as an
        # explicit unsubscribe would.
        for sub_id, sub in list(self._subs.items()):
            if sub.session_id == session_id:
                self._do_unsubscribe(sub_id)
        self._sessions.discard(session_id)
        span = self._session_spans.pop(session_id, None)
        if span is not None:
            tracer = tracing.current_tracer()
            if tracer is not None:
                tracer.finish_detached(span)

    # ------------------------------------------------------------------
    # the pump: drain, deliver, notify
    # ------------------------------------------------------------------
    def _pump(self) -> int:
        """Drain the runtime, fan each graph's outputs out per
        subscriber, advance cursors, notify.

        Cursors advance for **every** subscription of a graph whenever
        the graph emits — connection-alive, detached, or mid-replay —
        which is what makes them a deterministic function of the
        durable command stream and therefore bit-exact across a crash
        and recovery.  Delivery (``on_outputs``) and tracing are
        suppressed during replay; the cursor arithmetic is not.
        """
        processed = self.runtime.run_until_idle()
        tracer = tracing.current_tracer()
        for graph in self._graphs.values():
            outputs = self.runtime.outputs(graph.runtime_name)
            if not outputs:
                continue
            graph.seq += len(outputs)
            subscribers: list[tuple[int, int]] = []
            for sub in graph.subs.values():
                at = sub.cursor
                sub.cursor += len(outputs)
                if sub.retained is not None:
                    # Retention advances with the cursor everywhere the
                    # cursor does — replay included — so the tail always
                    # holds the positions just below ``cursor``.
                    sub.retained.extend(outputs)
                subscribers.append((sub.sub_id, at))
                if tracer is not None and not self._replaying:
                    parent = self._session_spans.get(sub.session_id)
                    tracer.event_under(
                        parent.span_id if parent is not None else None,
                        "emit",
                        "emit",
                        subscription=sub.sub_id,
                        outputs=len(outputs),
                        cursor=at,
                    )
            if (
                self.on_outputs is not None
                and subscribers
                and not self._replaying
            ):
                self.on_outputs(subscribers, graph.info(), outputs)
        self._emit_notifications()
        return processed

    def _emit_notifications(self) -> None:
        if self.on_notify is None or self._replaying:
            return
        shed, dropped = self.runtime.items_shed, self.runtime.items_dropped
        if shed > self._last_shed or dropped > self._last_dropped:
            self.on_notify(
                "backpressure",
                {
                    "policy": self.runtime.backpressure,
                    "shed": shed - self._last_shed,
                    "dropped": dropped - self._last_dropped,
                },
            )
            self._last_shed, self._last_dropped = shed, dropped
        watchdog = self.runtime.resilience_stats().get("watchdog")
        if watchdog is not None and watchdog["slow_solves"] > self._last_slow:
            self.on_notify(
                "alert",
                {
                    "kind": "slow_solve",
                    "count": watchdog["slow_solves"] - self._last_slow,
                    "budget_s": watchdog["budget_s"],
                },
            )
            self._last_slow = watchdog["slow_solves"]
        breaker = self.runtime.breaker
        if breaker is not None:
            open_now = frozenset(breaker.open_keys())
            if open_now != self._last_open:
                self.on_notify(
                    "breaker",
                    {
                        "open": sorted(
                            [q, _json_safe(k)] for q, k in open_now
                        ),
                        "snapshot": breaker.snapshot(),
                    },
                )
                self._last_open = open_now


def _json_safe(value):
    """Recursively coerce stats structures to JSON-encodable shapes."""
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, PulseError) or isinstance(value, Exception):
        return repr(value)
    return repr(value)
