"""Multi-node fleet front end: key-routed ingest with a deterministic
merge edge.

:class:`PulseRouter` speaks the same NDJSON protocol as
:class:`~.server.PulseServer` but owns no engine.  It holds one
:class:`~.client.PulseClient` per worker server and composes three
previously independent subsystems into a distributed runtime:

* **Shard routing** (PR 3): every ingested tuple is assigned a worker
  by :func:`~repro.engine.sharding.shard_of` on its routing key — a
  BLAKE2b assignment, so the placement is stable across processes,
  restarts and machines.
  Routing keys come from registered fit specs (``key_fields``), which
  is exactly the granularity at which Pulse's equation systems are
  independent: a worker that owns a key owns *all* of that key's
  arrivals, so for per-key-partitionable queries each worker produces,
  for its arrivals, bit-for-bit the outputs a single server would
  have.
* **The wire protocol** (PR 5): ``register``/``subscribe``/``flush``
  fan out to every worker; ``ingest`` is validated by the server's own
  column validator, then splits into *runs* (maximal spans of
  consecutive same-worker rows, each forwarded as its own column
  batch) that are pipelined — at most one request in flight per
  worker — and merged back in run order, which is global arrival
  order.
* **Durability** (PR 7): each worker keeps its own WAL and recovers
  independently; the router turns that into a *fleet* guarantee (see
  below).

**The merge edge.**  Result pushes from workers are not forwarded
blindly.  Per ``(worker, subscription)`` the router tracks
``collected`` — the worker-side cursor it has merged through; each
push carries the worker's cursor, so a re-delivered output is trimmed
(``results[collected - cursor:]``) and can never reach a subscriber
twice, while a cursor *ahead* of ``collected`` is a loud
inconsistency, never a silent gap.  Merged pushes carry ``seq`` — the
router-level per-subscription sequence — plus the originating
``worker``.  Flush tails are the one place worker streams interleave
*within* one request: a single engine drains its fitted-model tails in
key arrival order since the last flush (builders are cleared at every
barrier), a fleet drains worker-major; the router records each key's
since-last-flush arrival ordinal at routing time
(:class:`~repro.engine.sharding.KeyOrdinals`, reset per barrier) and
stable-sorts the buffered flush tail back into the single-engine
order.

**Fleet recovery.**  Workers run ``fsync_every=1`` and
``retain_results > 0``.  When a worker socket dies, the router marks
the worker down and finishes nothing early: recovery runs exactly when
the dead worker's next run reaches its merge position, so no other
worker's results are reordered around the outage.  Recovery replays
the bounded :meth:`~.client.PulseClient.reconnect` dance, then:

1. merges any pushes read before the crash (advancing ``collected``);
2. reads the worker's recovered durable offset
   (``stats.engine.durability.ingest_tuples``);
3. re-binds every subscription with ``attach(from_cursor=collected)``
   — the worker's retained-output replay closes the gap between what
   the router merged and what the worker recovered, exactly once;
4. re-ingests the sent-but-unacked tuples at offsets the worker's WAL
   never saw (``offset >= durable`` are retransmitted; older ones are
   already folded into worker state and their outputs arrived in
   step 3).

Because at most one run per worker is ever outstanding, the
sent-but-unacked window is one run, the retention window a worker
needs is one run's outputs, and the merged subscriber stream is
bit-exact through a worker ``SIGKILL`` — no duplicate, no gap, no
reordering.

The contract: queries must be per-key partitionable (filters,
per-key windows — anything whose output for a key depends only on
that key's arrivals).  Cross-key operators (joins across keys, global
aggregates) need a different placement and are rejected by review,
not by the router.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from dataclasses import dataclass, field

from ..core.errors import PulseError
from ..engine.metrics import get_counter
from ..engine.sharding import KeyOrdinals, shard_of, tuple_key
from ..engine.tuples import ColumnBatch
from . import protocol
from .client import PulseClient, ServerError

#: Counts an ingest ack's admission fields when summing across runs.
_COUNT_FIELDS = (
    "accepted", "blocked", "shed", "no_consumer", "fit_rejected",
)


@dataclass(frozen=True)
class RouterConfig:
    """Everything a router needs besides its workers' addresses."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read back from .port after start()
    #: Worker addresses as ``(host, port)`` pairs, in shard order:
    #: worker ``i`` owns the keys with ``shard_of(key, N) == i``.
    workers: tuple[tuple[str, int], ...] = ()
    #: Routing key fields for streams with no registered fit spec.
    #: Streams learn their real key fields from ``register`` requests
    #: that carry a fit; until then (or without one) this default
    #: applies, and an empty default routes the whole stream to
    #: worker 0 — consistent, just not spread.
    default_key_fields: tuple[str, ...] = ()
    #: Socket timeout for worker connections.
    timeout: float = 30.0
    #: Worker reconnect budget (see :meth:`PulseClient.reconnect`).
    reconnect_attempts: int = 40
    reconnect_base_s: float = 0.05
    reconnect_max_s: float = 0.5


class _WorkerLink:
    """The router's half of one worker connection."""

    __slots__ = (
        "index", "addr", "client", "sent", "unacked", "sub_map",
        "dead", "recoveries",
    )

    def __init__(self, index: int, addr: tuple[str, int],
                 config: RouterConfig):
        self.index = index
        self.addr = addr
        self.client = PulseClient(
            addr[0],
            addr[1],
            timeout=config.timeout,
            reconnect_attempts=config.reconnect_attempts,
            reconnect_base_s=config.reconnect_base_s,
            reconnect_max_s=config.reconnect_max_s,
        )
        self.client.connect()
        #: Tuples ever routed here; mirrors the worker's durable
        #: ``ingest_tuples`` offset once everything in flight is acked.
        self.sent = 0
        #: ``(offset of its first row, stream, run)`` sent but not yet
        #: acked — at most one run, thanks to the one-in-flight
        #: discipline.
        self.unacked: deque[tuple[int, str, ColumnBatch]] = deque()
        #: worker-side subscription id -> router subscription id.
        self.sub_map: dict[int, int] = {}
        self.dead = False
        self.recoveries = 0


@dataclass
class _RouterSub:
    """One router-level subscription fanned out across the fleet."""

    sub_id: int
    query: str
    mode: str
    session_id: int
    graph: str | None = None
    #: Key fields used to order this subscription's flush tail.
    key_fields: tuple[str, ...] = ()
    #: Per-worker subscription ids (index = worker index).
    worker_subs: list = field(default_factory=list)
    #: Per-worker cursor merged through (the dedup line).
    collected: list = field(default_factory=list)
    #: Router-level cursor: results emitted to the subscriber.
    emitted: int = 0


@dataclass
class _Session:
    """One accepted client connection (handled on its own thread)."""

    session_id: int
    sock: socket.socket
    peer: str
    subscriptions: set = field(default_factory=set)
    requests: int = 0
    closing: bool = False


class PulseRouter:
    """A thread-per-session TCP front end over N worker servers.

    All request dispatch and all merge/emit work runs under one
    router-wide lock: client requests serialize exactly like commands
    on a single server's engine thread, which is what makes "global
    arrival order" well defined for the fleet.  Worker I/O is blocking
    and happens while holding the lock — workers only push during
    router-issued requests, so there is nothing to wait on otherwise.
    """

    def __init__(self, config: RouterConfig):
        if not config.workers:
            raise ValueError("router needs at least one worker address")
        self.config = config
        self._lock = threading.RLock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._workers: list[_WorkerLink] = []
        self._sessions: dict[int, _Session] = {}
        self._subs: dict[int, _RouterSub] = {}
        self._next_session = 1
        self._next_sub = 1
        #: stream name -> routing key fields (learned from registers).
        self._stream_keys: dict[str, tuple[str, ...]] = {}
        self._key_ordinals = KeyOrdinals()
        #: Flush-tail merge order.  A single engine's model builders
        #: are cleared at every flush and re-inserted on each key's
        #: next arrival, so its tails drain in arrival-since-last-flush
        #: order — hence a second ordinal map, reset at each barrier.
        self._flush_ordinals = KeyOrdinals()
        #: When set (during flush), merged results buffer here per
        #: router sub instead of being emitted immediately.
        self._flush_buffer: dict[int, list] | None = None
        self._stopping = False
        self.port: int | None = None
        self._routed_counter = get_counter("router.tuples_routed")
        self._merged_counter = get_counter("router.results_merged")
        self._recovery_counter = get_counter("router.worker_recoveries")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PulseRouter":
        for index, addr in enumerate(self.config.workers):
            self._workers.append(
                _WorkerLink(index, tuple(addr), self.config)
            )
        listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        listener.listen(32)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pulse-router-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            # close() from another thread does not wake a blocked
            # accept() on Linux; shutting the read side down does.
            try:
                self._listener.shutdown(socket.SHUT_RD)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            for session in list(self._sessions.values()):
                session.closing = True
                try:
                    session.sock.close()
                except OSError:
                    pass
            self._sessions.clear()
            for worker in self._workers:
                try:
                    worker.client.close()
                except OSError:
                    pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "PulseRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stopping:
            try:
                sock, peername = listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                session_id = self._next_session
                self._next_session += 1
                peer = f"{peername[0]}:{peername[1]}" if peername else "?"
                session = _Session(session_id, sock, peer)
                self._sessions[session_id] = session
            thread = threading.Thread(
                target=self._session_loop,
                args=(session,),
                name=f"pulse-router-session-{session_id}",
                daemon=True,
            )
            thread.start()

    def _session_loop(self, session: _Session) -> None:
        reader = session.sock.makefile("rb")
        try:
            while not session.closing:
                line = reader.readline()
                if not line:
                    break
                if line.strip() == b"":
                    continue
                self._dispatch(session, line)
        except (OSError, ValueError):
            pass
        finally:
            self._close_session(session)

    def _close_session(self, session: _Session) -> None:
        with self._lock:
            session.closing = True
            self._sessions.pop(session.session_id, None)
            for sub_id in list(session.subscriptions):
                sub = self._subs.pop(sub_id, None)
                if sub is None:
                    continue
                for worker in self._workers:
                    wsub = sub.worker_subs[worker.index]
                    worker.sub_map.pop(wsub, None)
                    try:
                        self._ensure_alive(worker)
                        worker.client.unsubscribe(wsub)
                        self._merge_worker_pushes(worker)
                    except (OSError, PulseError):
                        worker.dead = True
            session.subscriptions.clear()
            try:
                session.sock.close()
            except OSError:
                pass

    def _write(self, session: _Session, message: dict) -> None:
        if session.closing:
            return
        try:
            session.sock.sendall(protocol.encode(message))
        except OSError:
            session.closing = True

    def _broadcast(self, message: dict) -> None:
        for session in self._sessions.values():
            self._write(session, message)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, session: _Session, line: bytes) -> None:
        req_id = None
        with self._lock:
            session.requests += 1
            try:
                obj = protocol.decode_line(line)
                req_id = obj.get("id")
                op = protocol.validate_request(obj)
                handler = getattr(self, f"_op_{op}")
                response = handler(session, obj)
                if req_id is not None:
                    response["id"] = req_id
                self._write(session, response)
            except Exception as exc:  # one bad request never kills a session
                self._write(session, self._error_response(req_id, exc))

    @staticmethod
    def _error_response(req_id, exc: Exception) -> dict:
        if isinstance(exc, ServerError):
            # A worker's typed error passes through with its code.
            msg: dict = {"type": "error", "code": exc.code,
                         "error": str(exc)}
            if req_id is not None:
                msg["id"] = req_id
            return msg
        return protocol.error_response(req_id, exc)

    # ------------------------------------------------------------------
    # the merge edge
    # ------------------------------------------------------------------
    def _merge_worker_pushes(self, worker: _WorkerLink) -> None:
        """Drain one worker's buffered pushes through dedup into the
        subscriber stream (or the flush buffer)."""
        client = worker.client
        while client.pushed:
            msg = client.pushed.popleft()
            if msg.get("type") != "result":
                notice = dict(msg)
                notice["worker"] = worker.index
                self._broadcast(notice)
                continue
            sub_id = worker.sub_map.get(msg.get("subscription"))
            sub = self._subs.get(sub_id) if sub_id is not None else None
            if sub is None:
                continue  # unsubscribed since; nothing to deliver to
            results = msg.get("results", [])
            expected = sub.collected[worker.index]
            cursor = msg.get("cursor", expected)
            if cursor > expected:
                raise PulseError(
                    f"merge gap: worker {worker.index} pushed cursor "
                    f"{cursor} for subscription {sub.sub_id} but only "
                    f"{expected} outputs were merged"
                )
            fresh = results[expected - cursor:]
            sub.collected[worker.index] = max(
                expected, cursor + len(results)
            )
            if not fresh:
                continue  # fully re-delivered; dedup swallowed it
            if self._flush_buffer is not None:
                self._flush_buffer.setdefault(sub.sub_id, []).extend(
                    (self._result_ordinal(sub, res), res)
                    for res in fresh
                )
            else:
                self._emit(sub, msg, fresh, worker.index)

    def _emit(self, sub: _RouterSub, template: dict, results: list,
              worker_index: int) -> None:
        message = {
            "type": "result",
            "subscription": sub.sub_id,
            "query": template.get("query", sub.query),
            "mode": template.get("mode", sub.mode),
            "graph": template.get("graph", sub.graph),
            "seq": sub.emitted,
            "cursor": sub.emitted,
            "worker": worker_index,
            "results": results,
        }
        sub.emitted += len(results)
        self._merged_counter.bump(len(results))
        session = self._sessions.get(sub.session_id)
        if session is not None:
            self._write(session, message)

    def _result_ordinal(self, sub: _RouterSub, result: dict) -> int:
        """A result's key's arrival-since-last-flush ordinal (the
        single-engine flush-tail drain order)."""
        key = result.get("key")
        if key is not None:
            return self._flush_ordinals.ordinal_of(tuple(key))
        return self._flush_ordinals.ordinal_of(
            tuple_key(result, sub.key_fields)
        )

    # ------------------------------------------------------------------
    # fleet recovery
    # ------------------------------------------------------------------
    def _ensure_alive(self, worker: _WorkerLink) -> dict | None:
        """Recover a down worker; returns the recovery's synthesized
        ingest counts (``None`` when the worker was already healthy)."""
        if not worker.dead:
            return None
        return self._recover_worker(worker)

    def _recover_worker(self, worker: _WorkerLink) -> dict:
        """The fleet half of crash recovery (see the module docstring).

        Runs at the dead worker's next merge position, so recovered
        outputs land exactly where the lost run's outputs belonged.
        """
        # 1. Pushes read before the crash advance the dedup line first,
        #    so attach's from_cursor never re-requests merged outputs.
        self._merge_worker_pushes(worker)
        worker.client.reconnect()  # bounded; ReconnectExhausted surfaces
        worker.recoveries += 1
        self._recovery_counter.bump()
        # 2. What did the worker's WAL see?
        stats = worker.client.stats()
        self._merge_worker_pushes(worker)
        durability = stats.get("engine", {}).get("durability")
        if not durability:
            raise ServerError(
                f"worker {worker.index} at {worker.addr[0]}:"
                f"{worker.addr[1]} is not durable; fleet recovery "
                f"requires workers with a WAL directory"
            )
        durable = durability["ingest_tuples"]
        # 3. Re-bind subscriptions; retained-output replay closes the
        #    delivery gap [collected, recovered cursor) exactly once.
        for sub_id, sub in self._subs.items():
            if worker.index >= len(sub.worker_subs):
                continue  # mid-fan-out: this worker never saw the sub
            wsub = sub.worker_subs[worker.index]
            worker.client.attach(
                wsub, from_cursor=sub.collected[worker.index]
            )
            self._merge_worker_pushes(worker)
        # 4. Retransmit what the WAL never saw; older unacked rows are
        #    already in worker state (their outputs came via the attach
        #    replay) and must NOT be re-ingested.
        counts = {name: 0 for name in _COUNT_FIELDS}
        recovered = resent = 0
        for base, stream, run in worker.unacked:
            skip = min(len(run), max(0, durable - base))
            recovered += skip
            if skip == len(run):
                continue
            tail = run.take(range(skip, len(run)))
            resent += len(tail)
            ack = worker.client.ingest_columns(stream, tail)
            self._merge_worker_pushes(worker)
            for name in _COUNT_FIELDS:
                counts[name] += ack.get(name, 0)
        worker.unacked.clear()
        counts["accepted"] += recovered  # durable => admitted pre-crash
        worker.dead = False
        counts["recovered_durable"] = recovered
        counts["retransmitted"] = resent
        return counts

    # ------------------------------------------------------------------
    # ingest: run-split fan-out with one in-flight request per worker
    # ------------------------------------------------------------------
    def _op_ingest(self, session: _Session, obj: dict) -> dict:
        stream = obj.get("stream")
        if not isinstance(stream, str) or not stream:
            raise protocol.ProtocolError(
                "'stream' must be a non-empty string"
            )
        batch, rejected = protocol.validate_ingest(obj)
        key_fields = self._stream_keys.get(
            stream, self.config.default_key_fields
        )
        num_workers = len(self._workers)
        # Maximal spans of consecutive same-worker rows: each run is
        # one worker request, and run order is global arrival order.
        # A missing key field is a None slot (see ``tuple_key``).
        spans: list[tuple[int, list[int]]] = []
        for i, key in enumerate(batch.zipped(key_fields)):
            self._key_ordinals.observe(key)
            self._flush_ordinals.observe(key)
            target = shard_of(key, num_workers)
            if spans and spans[-1][0] == target:
                spans[-1][1].append(i)
            else:
                spans.append((target, [i]))
        runs = [(target, batch.take(rows)) for target, rows in spans]
        self._routed_counter.bump(len(batch))
        totals = {name: 0 for name in _COUNT_FIELDS}
        for ack in self._run_fanout(stream, runs):
            for name in _COUNT_FIELDS:
                totals[name] += ack.get(name, 0)
        return {
            "type": "ack",
            "stream": stream,
            **protocol.rejection_fields(rejected),
            "runs": len(runs),
            **totals,
        }

    def _run_fanout(
        self, stream: str, runs: list[tuple[int, ColumnBatch]]
    ) -> list[dict]:
        """Send runs with at most one in flight per worker; collect
        acks (and merge pushes) in global run order."""
        num_workers = len(self._workers)
        per_worker: list[list[int]] = [[] for _ in range(num_workers)]
        for index, (target, _run) in enumerate(runs):
            per_worker[target].append(index)
        next_run = [0] * num_workers  # per-worker send pointer
        inflight: list[int | None] = [None] * num_workers
        req_ids: dict[int, int | None] = {}

        def pump(worker: _WorkerLink) -> None:
            windex = worker.index
            if inflight[windex] is not None:
                return
            if next_run[windex] >= len(per_worker[windex]):
                return
            run_index = per_worker[windex][next_run[windex]]
            next_run[windex] += 1
            run = runs[run_index][1]
            # Sent-accounting happens whether or not the bytes make it:
            # a send that errors mid-way may still have delivered the
            # full request, so recovery must treat it as in flight.
            worker.unacked.append((worker.sent, stream, run))
            worker.sent += len(run)
            if worker.dead:
                req_ids[run_index] = None  # retransmitted at merge time
            else:
                try:
                    req_ids[run_index] = worker.client.send_request(
                        "ingest", stream=stream,
                        columns=protocol.pack_columns(run.columns),
                    )
                except OSError:
                    worker.dead = True
                    req_ids[run_index] = None
            inflight[windex] = run_index

        for worker in self._workers:
            pump(worker)

        acks: list[dict] = []
        for run_index, (target, _run) in enumerate(runs):
            worker = self._workers[target]
            assert inflight[target] == run_index, "run collection order"
            req_id = req_ids.pop(run_index)
            ack: dict | None = None
            if not worker.dead and req_id is not None:
                try:
                    ack = worker.client.read_reply(req_id)
                    worker.unacked.popleft()
                except (OSError, ServerError) as exc:
                    if isinstance(exc, ServerError) and exc.code != "eof":
                        raise  # a typed refusal, not a dead worker
                    worker.dead = True
            if worker.dead:
                # This run's merge position IS the recovery point.
                ack = self._recover_worker(worker)
            inflight[target] = None
            self._merge_worker_pushes(worker)
            acks.append(ack if ack is not None else {})
            pump(worker)
        return acks

    # ------------------------------------------------------------------
    # fan-out ops
    # ------------------------------------------------------------------
    def _op_hello(self, session: _Session, obj: dict) -> dict:
        if obj.get("backpressure") is not None:
            raise protocol.ProtocolError(
                "router sessions do not carry a per-session backpressure "
                "policy; configure the workers"
            )
        worker = self._workers[0]
        self._ensure_alive(worker)
        hello = worker.client.connect()
        self._merge_worker_pushes(worker)
        return {
            "type": "hello",
            "server": protocol.SERVER_NAME,
            "protocol": protocol.PROTOCOL_VERSION,
            "role": "router",
            "workers": len(self._workers),
            "queries": hello.get("queries", []),
            "streams": hello.get("streams", []),
        }

    def _op_register(self, session: _Session, obj: dict) -> dict:
        name = obj.get("name")
        text = obj.get("query")
        if not isinstance(name, str) or not name:
            raise protocol.ProtocolError("'name' must be a non-empty string")
        if not isinstance(text, str) or not text:
            raise protocol.ProtocolError("'query' must be a non-empty string")
        fit = obj.get("fit")
        first_ack: dict | None = None
        for worker in self._workers:
            self._ensure_alive(worker)
            try:
                ack = worker.client.register(name, text, fit)
            except ServerError as exc:
                if exc.code == "eof":
                    worker.dead = True
                    self._recover_worker(worker)
                    try:
                        ack = worker.client.register(name, text, fit)
                    except ServerError as retry_exc:
                        if "already registered" not in str(retry_exc):
                            raise
                        # The pre-crash register was durable.
                        ack = {"registered": name, "streams": []}
                elif worker.index > 0 and "already registered" in str(exc):
                    # A previous partially-failed register reached this
                    # worker; converging on registered is the fix.
                    ack = {"registered": name, "streams": []}
                else:
                    raise
            self._merge_worker_pushes(worker)
            if first_ack is None or ack.get("streams"):
                first_ack = ack
        assert first_ack is not None
        # Routing learns its key fields here: the fit's key_fields are
        # the granularity at which this query's streams partition.
        if isinstance(fit, dict) and fit.get("key_fields"):
            fields = tuple(fit["key_fields"])
            for stream in first_ack.get("streams", ()):
                self._stream_keys.setdefault(stream, fields)
        return {
            "type": "ack",
            "workers": len(self._workers),
            **{k: v for k, v in first_ack.items() if k != "id"},
        }

    def _op_subscribe(self, session: _Session, obj: dict) -> dict:
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
            if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                raise protocol.ProtocolError("'error_bound' must be a number")
            bound = float(bound)
            if not bound > 0:
                raise protocol.ProtocolError("'error_bound' must be positive")
        sub_id = self._next_sub
        self._next_sub += 1
        sub = _RouterSub(
            sub_id=sub_id, query=query, mode=mode,
            session_id=session.session_id,
        )
        self._subs[sub_id] = sub
        last_ack: dict | None = None
        try:
            for worker in self._workers:
                self._ensure_alive(worker)
                ack = worker.client.subscribe(query, mode, bound)
                worker.sub_map[ack["subscription"]] = sub_id
                sub.worker_subs.append(ack["subscription"])
                sub.collected.append(ack.get("cursor", 0))
                self._merge_worker_pushes(worker)
                last_ack = ack
        except Exception:
            # Roll back the partial fan-out so no orphan mapping can
            # route results to a subscription that never existed.
            for worker in self._workers[: len(sub.worker_subs)]:
                wsub = sub.worker_subs[worker.index]
                worker.sub_map.pop(wsub, None)
                try:
                    worker.client.unsubscribe(wsub)
                    self._merge_worker_pushes(worker)
                except (OSError, PulseError):
                    worker.dead = True
            del self._subs[sub_id]
            raise
        assert last_ack is not None
        sub.graph = last_ack.get("graph")
        streams = last_ack.get("streams", [])
        for stream in streams:
            if stream in self._stream_keys:
                sub.key_fields = self._stream_keys[stream]
                break
        else:
            sub.key_fields = self.config.default_key_fields
        session.subscriptions.add(sub_id)
        return {
            "type": "ack",
            "subscription": sub_id,
            "graph": sub.graph,
            "mode": mode,
            "error_bound": last_ack.get("error_bound"),
            "solve_bound": last_ack.get("solve_bound"),
            "cursor": 0,
            "streams": streams,
            "workers": len(self._workers),
        }

    def _op_unsubscribe(self, session: _Session, obj: dict) -> dict:
        sub_id = obj.get("subscription")
        if sub_id not in session.subscriptions:
            raise protocol.ProtocolError(
                f"subscription {sub_id!r} does not belong to this session"
            )
        sub = self._subs[sub_id]
        for worker in self._workers:
            self._ensure_alive(worker)
            wsub = sub.worker_subs[worker.index]
            worker.sub_map.pop(wsub, None)
            worker.client.unsubscribe(wsub)
            self._merge_worker_pushes(worker)
        session.subscriptions.discard(sub_id)
        del self._subs[sub_id]
        return {"type": "ack", "subscription": sub_id}

    def _op_attach(self, session: _Session, obj: dict) -> dict:
        """Re-bind a router subscription to a new client session.

        Router-level delivery continuity across a *router* crash is
        out of scope (workers already hold the durable state); what
        attach gives a reconnecting client here is ownership of a
        live subscription another session abandoned.
        """
        sub_id = obj.get("subscription")
        sub = self._subs.get(sub_id)
        if sub is None:
            raise protocol.ProtocolError(
                f"subscription {sub_id!r} is not live on this router"
            )
        if obj.get("from_cursor") is not None:
            raise protocol.ProtocolError(
                "router-level replay is not supported; the router "
                "already maintains cursor continuity across worker "
                "crashes"
            )
        previous = self._sessions.get(sub.session_id)
        if previous is not None and previous is not session:
            previous.subscriptions.discard(sub_id)
        sub.session_id = session.session_id
        session.subscriptions.add(sub_id)
        return {
            "type": "ack",
            "subscription": sub_id,
            "graph": sub.graph,
            "query": sub.query,
            "mode": sub.mode,
            "cursor": sub.emitted,
            "workers": len(self._workers),
        }

    def _op_flush(self, session: _Session, obj: dict) -> dict:
        """Fleet flush: fan out, then key-ordinal-merge the tails.

        A single engine drains its fitted-model tails in key arrival
        order *since the last flush* (its per-key builders are cleared
        at every barrier and re-inserted on the next arrival); the
        fleet drains worker-major.  Buffering the merged flush results
        and stable-sorting them by each key's since-last-flush ordinal
        restores the single-engine order bit-exactly (workers emit
        their own tails already in that order, and arrival order
        within one key lives entirely on one worker).
        """
        self._flush_buffer = {}
        try:
            totals = {"flushed_segments": 0, "processed": 0}
            pending: list[tuple[_WorkerLink, int | None]] = []
            for worker in self._workers:
                self._ensure_alive(worker)
                try:
                    req_id = worker.client.send_request("flush")
                except OSError:
                    worker.dead = True
                    req_id = None
                pending.append((worker, req_id))
            for worker, req_id in pending:
                ack: dict | None = None
                if req_id is not None and not worker.dead:
                    try:
                        ack = worker.client.read_reply(req_id)
                    except (OSError, ServerError) as exc:
                        if isinstance(exc, ServerError) and exc.code != "eof":
                            raise
                        worker.dead = True
                if worker.dead:
                    self._recover_worker(worker)
                    ack = worker.client.flush()
                self._merge_worker_pushes(worker)
                assert ack is not None
                totals["flushed_segments"] += ack.get("flushed_segments", 0)
                totals["processed"] += ack.get("processed", 0)
            buffered = self._flush_buffer
            self._flush_buffer = None
            for sub_id, entries in buffered.items():
                sub = self._subs.get(sub_id)
                if sub is None:
                    continue
                entries.sort(key=lambda entry: entry[0])  # stable
                self._emit(
                    sub, {}, [res for _ord, res in entries], -1
                )
            return {"type": "ack", **totals}
        finally:
            self._flush_buffer = None
            # The barrier drained every builder; the next epoch's tail
            # order starts from a clean slate.
            self._flush_ordinals = KeyOrdinals()

    def _op_checkpoint(self, session: _Session, obj: dict) -> dict:
        acks = []
        for worker in self._workers:
            self._ensure_alive(worker)
            ack = worker.client._request("checkpoint")
            self._merge_worker_pushes(worker)
            acks.append({k: v for k, v in ack.items()
                         if k not in ("id", "type")})
        return {"type": "ack", "workers": acks}

    def _op_stats(self, session: _Session, obj: dict) -> dict:
        workers = []
        for worker in self._workers:
            entry: dict = {
                "worker": worker.index,
                "addr": f"{worker.addr[0]}:{worker.addr[1]}",
                "sent": worker.sent,
                "unacked": sum(len(run) for _, _, run in worker.unacked),
                "dead": worker.dead,
                "recoveries": worker.recoveries,
            }
            if not worker.dead:
                try:
                    stats = worker.client.stats()
                    self._merge_worker_pushes(worker)
                    entry["durable_tuples"] = (
                        stats.get("engine", {})
                        .get("durability", {})
                        .get("ingest_tuples")
                    )
                except (OSError, ServerError):
                    worker.dead = True
            workers.append(entry)
        return {
            "type": "stats",
            "role": "router",
            "session": {
                "session": session.session_id,
                "requests": session.requests,
            },
            "connections": len(self._sessions),
            "workers": workers,
            "subscriptions": {
                str(sub_id): {
                    "emitted": sub.emitted,
                    "collected": list(sub.collected),
                }
                for sub_id, sub in self._subs.items()
            },
            "streams": {
                stream: list(fields)
                for stream, fields in self._stream_keys.items()
            },
            "keys_seen": len(self._key_ordinals),
        }
