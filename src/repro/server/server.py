"""The asyncio TCP server: sessions, dispatch, outbound flow control.

One :class:`PulseServer` hosts one :class:`~.bridge.EngineBridge`.
Each accepted connection becomes a *session*: a reader coroutine
parses NDJSON requests and dispatches them, and a writer coroutine
drains that connection's outbound queue — responses and pushed
messages share the queue, so a client always observes its results in
the order the engine produced them relative to its acks.

**Outbound back-pressure.**  A subscriber that reads slower than the
engine produces would otherwise buffer unboundedly.  Each connection's
outbound queue is capped (``outbound_limit``); past the cap, the
*oldest pushed result* messages are shed first (acks and errors are
never shed — they answer specific requests), the shed count is
metered, and the next delivered message is preceded by a
``backpressure`` notice carrying how many results that client lost.
This mirrors the runtime's ``shed-oldest`` queue policy on the egress
side.

:class:`ServerThread` runs a server on a dedicated thread with its own
event loop — the harness the loopback tests, the traced benchmark pass
and ``repro serve`` (indirectly) all share.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.errors import PlanError, PulseError
from ..engine.metrics import get_counter, get_histogram
from ..engine.resilience import BreakerConfig
from . import protocol
from .bridge import EngineBridge, FitSpec

#: Max bytes in one NDJSON line (a 10k-tuple ingest batch fits).
MAX_LINE_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Everything a server needs besides its queries."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read back from .port after start()
    #: Runtime knobs (see :class:`~repro.engine.scheduler.QueryRuntime`).
    batch_size: int = 64
    queue_capacity: int | None = None
    backpressure: str = "block"
    #: Kept for old callers; the runtime has one processing pass, so
    #: only ``1`` is accepted.
    num_shards: int = 1
    slow_solve_budget_s: float | None = None
    breaker: BreakerConfig | None = None
    #: Fitting defaults for continuous subscriptions.
    default_tolerance: float = 0.05
    default_fit: FitSpec | None = None
    #: Outbound messages buffered per connection before result shedding.
    outbound_limit: int = 1024
    #: Durability: WAL + checkpoint directory (``None`` = ephemeral).
    wal_dir: str | None = None
    #: Auto-checkpoint after this many ingested tuples (``None`` = manual).
    checkpoint_every: int | None = None
    #: WAL fsync batching (records per fsync; 1 = every record).
    fsync_every: int = 32
    #: Retained raw outputs per subscription for ``attach`` replay
    #: (0 = off).  Fleet workers run with this on so the router can
    #: resume a merge across a worker crash with no gap.
    retain_results: int = 0

    def __post_init__(self) -> None:
        if self.num_shards != 1:
            raise ValueError(
                f"num_shards must be 1 (round priming was removed), "
                f"got {self.num_shards}"
            )

    def runtime_kwargs(self) -> dict:
        kwargs: dict = {
            "batch_size": self.batch_size,
            "queue_capacity": self.queue_capacity,
            "backpressure": self.backpressure,
            "slow_solve_budget_s": self.slow_solve_budget_s,
        }
        if self.breaker is not None:
            kwargs["breaker"] = self.breaker
        return kwargs


@dataclass
class _Connection:
    """Loop-thread state for one client session."""

    session_id: int
    writer: asyncio.StreamWriter
    peer: str
    outbound: deque = field(default_factory=deque)
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    backpressure: str | None = None  # per-connection ingest policy
    subscriptions: set[int] = field(default_factory=set)
    requests: int = 0
    ingested: int = 0
    rejected: int = 0
    results_sent: int = 0
    results_dropped: int = 0
    dropped_since_notice: int = 0
    closing: bool = False

    def session_stats(self) -> dict:
        return {
            "session": self.session_id,
            "requests": self.requests,
            "ingested": self.ingested,
            "rejected": self.rejected,
            "results_sent": self.results_sent,
            "results_dropped": self.results_dropped,
        }


class PulseServer:
    """The network front end over one engine bridge.

    ``queries`` pre-registers ``(name, query_text, fit_spec | None)``
    triples at startup, so a served deployment exposes its standing
    queries without any client having to register them.
    """

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        queries: Iterable[tuple[str, str, FitSpec | None]] = (),
    ):
        self.config = config
        self._startup_queries = list(queries)
        self.bridge = EngineBridge(
            config.runtime_kwargs(),
            default_tolerance=config.default_tolerance,
            default_fit=config.default_fit,
            on_outputs=self._on_outputs_threadsafe,
            on_notify=self._on_notify_threadsafe,
            wal_dir=config.wal_dir,
            checkpoint_every=config.checkpoint_every,
            fsync_every=config.fsync_every,
            retain_results=config.retain_results,
        )
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conns: dict[int, _Connection] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._next_session = 1
        self._next_sub = 1
        self.port: int | None = None
        # Loop-thread-owned metrics (single-writer; see Histogram docs).
        self._connections_counter = get_counter("server.connections")
        self._requests_counter = get_counter("server.requests")
        self._rejected_nonfinite = get_counter("server.rejected_nonfinite")
        self._rejected_malformed = get_counter("server.rejected_malformed")
        self._errors_counter = get_counter("server.request_errors")
        self._results_counter = get_counter("server.results_sent")
        self._dropped_counter = get_counter("server.results_dropped")
        self._request_hist = get_histogram("server.request_seconds")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.bridge.start()
        for name, text, fit in self._startup_queries:
            try:
                await asyncio.wrap_future(
                    self.bridge.register_query(name, text, fit)
                )
            except PlanError:
                # Already present: recovery restored it from the WAL
                # or a snapshot before the startup list ran.
                pass
        # Recovery may have restored (detached) subscriptions; new ids
        # must never collide with ones clients may re-attach to.
        self._next_sub = self.bridge.max_sub_id + 1
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close listeners and sessions, then stop the engine thread."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(
                *self._handler_tasks, return_exceptions=True
            )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.bridge.stop)

    # ------------------------------------------------------------------
    # delivery (engine thread -> loop thread)
    # ------------------------------------------------------------------
    def _on_outputs_threadsafe(
        self, subscribers: list[tuple[int, int]], info: dict, outputs: list
    ) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._deliver, subscribers, info, outputs)

    def _on_notify_threadsafe(self, kind: str, payload: dict) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._broadcast, kind, payload)

    def _deliver(
        self, subscribers: list[tuple[int, int]], info: dict, outputs: list
    ) -> None:
        results = protocol.serialize_results(outputs)
        for sub_id, cursor in subscribers:
            conn = self._conn_for_sub(sub_id)
            if conn is None:
                continue
            message = {
                "type": "result",
                "subscription": sub_id,
                "query": info["query"],
                "mode": info["mode"],
                "graph": info["graph"],
                "seq": conn.results_sent,
                "cursor": cursor,
                "results": results,
            }
            conn.results_sent += len(results)
            self._results_counter.bump(len(results))
            self._send(conn, message, sheddable=True)

    def _broadcast(self, kind: str, payload: dict) -> None:
        message = {"type": kind, **payload}
        for conn in self._conns.values():
            self._send(conn, message, sheddable=True)

    def _conn_for_sub(self, sub_id: int) -> _Connection | None:
        for conn in self._conns.values():
            if sub_id in conn.subscriptions:
                return conn
        return None

    # ------------------------------------------------------------------
    # outbound queue
    # ------------------------------------------------------------------
    def _send(
        self, conn: _Connection, message: dict, sheddable: bool = False
    ) -> None:
        if conn.closing:
            return
        outbound = conn.outbound
        if sheddable and len(outbound) >= self.config.outbound_limit:
            # Shed the oldest *result* push; never an ack or error.
            for i, (queued, queued_sheddable) in enumerate(outbound):
                if queued_sheddable and queued.get("type") == "result":
                    del outbound[i]
                    dropped = len(queued.get("results", ()))
                    conn.results_dropped += dropped
                    conn.dropped_since_notice += dropped
                    self._dropped_counter.bump(dropped)
                    break
            else:
                # Nothing sheddable in the queue: the *new* message is
                # dropped instead — the same damage as shedding, so it
                # gets the same accounting (never a silent loss).
                dropped = len(message.get("results", ()))
                if dropped:
                    conn.results_dropped += dropped
                    conn.dropped_since_notice += dropped
                    self._dropped_counter.bump(dropped)
                return
        if conn.dropped_since_notice and message.get("type") == "result":
            outbound.append((
                {
                    "type": "backpressure",
                    "policy": "subscriber-shed-oldest",
                    "dropped_results": conn.dropped_since_notice,
                },
                False,
            ))
            conn.dropped_since_notice = 0
        outbound.append((message, sheddable))
        conn.wakeup.set()

    async def _writer_task(self, conn: _Connection) -> None:
        try:
            while True:
                while conn.outbound:
                    message, _sheddable = conn.outbound.popleft()
                    conn.writer.write(protocol.encode(message))
                await conn.writer.drain()
                if conn.closing:
                    return
                conn.wakeup.clear()
                await conn.wakeup.wait()
        except (ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        session_id = self._next_session
        self._next_session += 1
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        conn = _Connection(session_id, writer, peer)
        self._conns[session_id] = conn
        self._connections_counter.bump()
        await asyncio.wrap_future(self.bridge.open_session(session_id, peer))
        writer_task = asyncio.ensure_future(self._writer_task(conn))
        cancelled = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Line over MAX_LINE_BYTES or a reset mid-read.
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                await self._dispatch(conn, line)
        except asyncio.CancelledError:
            cancelled = True  # server stopping; finish cleanup below
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            conn.closing = True
            conn.wakeup.set()
            self._conns.pop(session_id, None)
            writer_task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            if not cancelled:
                # On cancellation the server is stopping the bridge
                # itself; a close_session command would never resolve.
                try:
                    await asyncio.wrap_future(
                        self.bridge.close_session(session_id)
                    )
                except RuntimeError:
                    pass  # bridge already stopped

    async def _dispatch(self, conn: _Connection, line: bytes) -> None:
        req_id = None
        t0 = time.perf_counter()
        conn.requests += 1
        self._requests_counter.bump()
        try:
            obj = protocol.decode_line(line)
            req_id = obj.get("id")
            op = protocol.validate_request(obj)
            handler = getattr(self, f"_op_{op}")
            response = await handler(conn, obj)
            if req_id is not None:
                response["id"] = req_id
            self._send(conn, response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # one bad request never kills a session
            if not isinstance(exc, (PulseError, protocol.ProtocolError)):
                # Unexpected server fault: still answer, but make it
                # visible in the log counters as a server error.
                pass
            self._errors_counter.bump()
            self._send(conn, protocol.error_response(req_id, exc))
        finally:
            self._request_hist.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_hello(self, conn: _Connection, obj: dict) -> dict:
        policy = obj.get("backpressure")
        if policy is not None:
            from ..engine.scheduler import BACKPRESSURE_POLICIES

            if policy not in BACKPRESSURE_POLICIES:
                raise protocol.ProtocolError(
                    f"backpressure must be one of {BACKPRESSURE_POLICIES}"
                )
            conn.backpressure = policy
        stats = await asyncio.wrap_future(self.bridge.stats())
        return {
            "type": "hello",
            "server": protocol.SERVER_NAME,
            "protocol": protocol.PROTOCOL_VERSION,
            "queries": stats["queries"],
            "streams": sorted(
                {s for ss in stats["query_streams"].values() for s in ss}
            ),
        }

    async def _op_register(self, conn: _Connection, obj: dict) -> dict:
        name = obj.get("name")
        text = obj.get("query")
        if not isinstance(name, str) or not name:
            raise protocol.ProtocolError("'name' must be a non-empty string")
        if not isinstance(text, str) or not text:
            raise protocol.ProtocolError("'query' must be a non-empty string")
        fit = obj.get("fit")
        fit_spec = FitSpec.from_wire(fit) if fit is not None else None
        result = await asyncio.wrap_future(
            self.bridge.register_query(name, text, fit_spec)
        )
        return {"type": "ack", **result}

    async def _op_subscribe(self, conn: _Connection, obj: dict) -> dict:
        query = obj.get("query")
        if not isinstance(query, str):
            raise protocol.ProtocolError("'query' must be a string")
        mode = obj.get("mode", "continuous")
        if mode not in protocol.MODES:
            raise protocol.ProtocolError(
                f"mode must be one of {protocol.MODES}"
            )
        bound = obj.get("error_bound")
        if bound is not None:
            if isinstance(bound, bool) or not isinstance(
                bound, (int, float)
            ):
                raise protocol.ProtocolError("'error_bound' must be a number")
            bound = float(bound)
            if not bound > 0:
                raise protocol.ProtocolError("'error_bound' must be positive")
        sub_id = self._next_sub
        self._next_sub += 1
        result = await asyncio.wrap_future(
            self.bridge.subscribe(
                sub_id, query, mode, bound, conn.session_id
            )
        )
        conn.subscriptions.add(sub_id)
        return {"type": "ack", **result}

    async def _op_unsubscribe(self, conn: _Connection, obj: dict) -> dict:
        sub_id = obj.get("subscription")
        if sub_id not in conn.subscriptions:
            raise protocol.ProtocolError(
                f"subscription {sub_id!r} does not belong to this session"
            )
        result = await asyncio.wrap_future(self.bridge.unsubscribe(sub_id))
        conn.subscriptions.discard(sub_id)
        return {"type": "ack", **result}

    async def _op_attach(self, conn: _Connection, obj: dict) -> dict:
        sub_id = obj.get("subscription")
        if isinstance(sub_id, bool) or not isinstance(sub_id, int):
            raise protocol.ProtocolError("'subscription' must be an integer")
        from_cursor = obj.get("from_cursor")
        if from_cursor is not None and (
            isinstance(from_cursor, bool)
            or not isinstance(from_cursor, int)
            or from_cursor < 0
        ):
            raise protocol.ProtocolError(
                "'from_cursor' must be a non-negative integer"
            )
        result = await asyncio.wrap_future(
            self.bridge.attach(sub_id, conn.session_id, from_cursor)
        )
        conn.subscriptions.add(sub_id)
        return {"type": "ack", **result}

    async def _op_ingest(self, conn: _Connection, obj: dict) -> dict:
        stream = obj.get("stream")
        if not isinstance(stream, str) or not stream:
            raise protocol.ProtocolError("'stream' must be a non-empty string")
        batch, rejected = protocol.validate_ingest(obj)
        rejection = protocol.rejection_fields(rejected)
        if rejected:
            nonfinite = rejection["rejected_nonfinite"]
            self._rejected_nonfinite.bump(nonfinite)
            self._rejected_malformed.bump(len(rejected) - nonfinite)
            conn.rejected += len(rejected)
        counts = {"accepted": 0, "blocked": 0, "shed": 0,
                  "no_consumer": 0, "fit_rejected": 0}
        if len(batch):
            counts = await asyncio.wrap_future(
                self.bridge.ingest(
                    conn.session_id, stream, batch, conn.backpressure
                )
            )
        conn.ingested += counts["accepted"]
        return {"type": "ack", "stream": stream, **rejection, **counts}

    async def _op_flush(self, conn: _Connection, obj: dict) -> dict:
        result = await asyncio.wrap_future(self.bridge.flush())
        return {"type": "ack", **result}

    async def _op_checkpoint(self, conn: _Connection, obj: dict) -> dict:
        result = await asyncio.wrap_future(self.bridge.checkpoint())
        return {"type": "ack", **result}

    async def _op_stats(self, conn: _Connection, obj: dict) -> dict:
        bridge_stats = await asyncio.wrap_future(self.bridge.stats())
        return {
            "type": "stats",
            "session": conn.session_stats(),
            "connections": len(self._conns),
            "engine": bridge_stats,
        }


class ServerThread:
    """Run a :class:`PulseServer` on its own thread and event loop.

    Context-manager used by the tests, the benchmark and anything else
    that needs a live loopback server without owning an event loop::

        with ServerThread(config, queries) as handle:
            client = PulseClient("127.0.0.1", handle.port)
            ...
    """

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        queries: Sequence[tuple[str, str, FitSpec | None]] = (),
    ):
        self._config = config
        self._queries = list(queries)
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self.server: PulseServer | None = None
        self.port: int | None = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = PulseServer(self._config, self._queries)
            loop.run_until_complete(server.start())
            self.server = server
            self.port = server.port
            self._stop_event = asyncio.Event()
        except BaseException as exc:  # surfaced to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self._stop_event.wait())
            loop.run_until_complete(server.stop())
        finally:
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="pulse-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError("server did not start")
        return self

    def stop(self, timeout: float = 15.0) -> None:
        thread = self._thread
        if thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("server thread did not stop cleanly")
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
