"""Blocking client for the Pulse wire protocol.

:class:`PulseClient` wraps a TCP socket with request/response matching
over the NDJSON protocol: each request carries an ``id``, the client
reads lines until the response with that ``id`` arrives, and every
unsolicited push (results, alerts, backpressure, breaker transitions)
read along the way lands in :attr:`PulseClient.pushed` in arrival
order.  Because the server writes a flush's results *before* the flush
ack (see :mod:`.bridge`), ``flush(); drain_results()`` observes every
result the flush produced — no sleeping, no polling.

The CLI (``repro ingest``), the loopback tests and the end-to-end
benchmark all drive the server through this class.  Ingest batches
leave it as columns (:meth:`PulseClient.ingest` transposes the rows
once; see :mod:`.protocol`).
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from typing import Iterable, Mapping, Sequence

from ..core.errors import PulseError
from ..engine.tuples import ColumnBatch
from . import protocol


class ServerError(PulseError):
    """The server answered a request with an ``error`` response."""

    def __init__(self, message: str, code: str = "server"):
        self.code = code
        super().__init__(message)


class ReconnectExhausted(PulseError):
    """Every reconnect attempt failed; carries the attempt count.

    Raised by :meth:`PulseClient.reconnect` after its bounded retry
    budget is spent, so callers can distinguish "the server is really
    gone" from the transient outage of a restart-in-progress.
    """

    def __init__(self, attempts: int, last_error: Exception | None):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"reconnect failed after {attempts} attempts: {last_error!r}"
        )


class PulseClient:
    """One blocking protocol session.

    Usable as a context manager; ``close()`` sends EOF and the server
    tears the session (and its subscriptions) down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        reconnect_attempts: int = 5,
        reconnect_base_s: float = 0.05,
        reconnect_max_s: float = 2.0,
    ):
        self._addr = (host, port)
        self._timeout = timeout
        #: Bounded retry budget for :meth:`reconnect` (per call).
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_max_s = reconnect_max_s
        self._rng = random.Random()
        self._backpressure: str | None = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 1
        #: Unsolicited pushes in arrival order (result/alert/
        #: backpressure/breaker messages).
        self.pushed: deque[dict] = deque()
        self.hello: dict | None = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def send_request(self, op: str, **fields) -> int:
        """Write one request and return its id without waiting.

        The pipelining half of :meth:`_request`: the router keeps one
        request in flight per worker and collects replies later with
        :meth:`read_reply`.  Replies MUST be read in request order —
        the server answers in order, and a reply read out of turn
        would be mis-filed as a push.
        """
        req_id = self._next_id
        self._next_id += 1
        message = {"op": op, "id": req_id, **fields}
        self._sock.sendall(protocol.encode(message))
        return req_id

    def read_reply(self, req_id: int) -> dict:
        """Read until the reply to ``req_id`` arrives; buffer pushes.

        Every unsolicited push read along the way lands in
        :attr:`pushed` *before* this returns, which preserves the
        server's results-before-ack ordering on the client side.
        """
        while True:
            line = self._file.readline()
            if not line:
                raise ServerError("connection closed by server", code="eof")
            obj = protocol.decode_line(line)
            if obj.get("id") == req_id:
                if obj.get("type") == "error":
                    raise ServerError(
                        obj.get("error", "unknown error"),
                        code=obj.get("code", "server"),
                    )
                return obj
            self.pushed.append(obj)

    def _request(self, op: str, **fields) -> dict:
        return self.read_reply(self.send_request(op, **fields))

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def connect(self, backpressure: str | None = None) -> dict:
        """``hello`` handshake; optionally pins this connection's
        ingest back-pressure policy."""
        self._backpressure = backpressure
        fields = {}
        if backpressure is not None:
            fields["backpressure"] = backpressure
        self.hello = self._request("hello", **fields)
        return self.hello

    def reconnect(self, attempts: int | None = None) -> dict:
        """Bounded reconnect with exponential backoff and full jitter.

        Closes the dead socket and retries the TCP connect up to
        ``attempts`` times (default: the constructor's budget), sleeping
        ``min(base * 2^i * U(1, 2), max)`` between tries — exponential
        backoff with jitter, clamped *after* the jitter is applied so
        ``reconnect_max_s`` really is the sleep ceiling, and a fleet of
        subscribers doesn't stampede a server that is still
        mid-recovery.  On success, performs a fresh ``hello``
        (restoring the pinned back-pressure policy) and returns it.
        **Session bindings do not survive**: the new session starts
        with no subscriptions, and buffered pushes from the old session
        stay in :attr:`pushed`.  Against a durable server, the
        subscriptions themselves (and their cursors) were recovered
        detached — :meth:`attach` re-binds them; against an ephemeral
        server, callers re-subscribe and resume ingest from the
        recovered durable offset.

        An attempt fails as a unit: if the TCP connect succeeds but the
        post-connect ``hello`` does not (the server is listening but
        still mid-recovery, or answers garbage), the half-open socket
        is closed before the next attempt, never leaked.

        Raises :class:`ReconnectExhausted` when the budget is spent.
        """
        attempts = self.reconnect_attempts if attempts is None else attempts
        try:
            self.close()
        except OSError:
            pass
        last_error: Exception | None = None
        for i in range(attempts):
            try:
                self._sock = socket.create_connection(
                    self._addr, timeout=self._timeout
                )
                self._file = self._sock.makefile("rb")
                return self.connect(self._backpressure)
            except (OSError, PulseError) as exc:
                last_error = exc
                # The connect may have succeeded before the hello
                # failed; close whatever is open so a failed attempt
                # never leaves a half-open socket behind.
                try:
                    self.close()
                except OSError:
                    pass
                delay = min(
                    self.reconnect_max_s,
                    self.reconnect_base_s
                    * (2.0**i)
                    * (1.0 + self._rng.random()),
                )
                time.sleep(delay)
        raise ReconnectExhausted(attempts, last_error)

    def register(
        self, name: str, query: str, fit: Mapping | None = None
    ) -> dict:
        fields: dict = {"name": name, "query": query}
        if fit is not None:
            fields["fit"] = dict(fit)
        return self._request("register", **fields)

    def subscribe(
        self,
        query: str,
        mode: str = "continuous",
        error_bound: float | None = None,
    ) -> dict:
        fields: dict = {"query": query, "mode": mode}
        if error_bound is not None:
            fields["error_bound"] = error_bound
        return self._request("subscribe", **fields)

    def unsubscribe(self, subscription: int) -> dict:
        return self._request("unsubscribe", subscription=subscription)

    def attach(
        self, subscription: int, from_cursor: int | None = None
    ) -> dict:
        """Re-bind a durable subscription that survived a server
        restart to this session; the ack carries its resumed cursor.

        With ``from_cursor``, a retention-enabled server also replays
        the outputs at cursor positions ``[from_cursor, cursor)`` in
        the ack; they are folded into :attr:`pushed` as a synthetic
        ``result`` message so :meth:`drain_results` sees one gapless
        stream across the reconnect.
        """
        fields: dict = {"subscription": subscription}
        if from_cursor is not None:
            fields["from_cursor"] = from_cursor
        ack = self._request("attach", **fields)
        replayed = ack.get("replayed")
        if replayed:
            self.pushed.append(
                {
                    "type": "result",
                    "subscription": subscription,
                    "query": ack.get("query"),
                    "mode": ack.get("mode"),
                    "graph": ack.get("graph"),
                    "cursor": ack["cursor"] - len(replayed),
                    "results": replayed,
                }
            )
        return ack

    def ingest(self, stream: str, tuples: Sequence[Mapping]) -> dict:
        """Send one batch of tuples; returns the admission counts ack.

        The rows are transposed once into columns (a field a row lacks
        travels as ``null``), and all-float columns go packed (see
        :func:`~.protocol.pack_columns`).
        """
        return self.ingest_columns(stream, ColumnBatch.from_rows(tuples))

    def ingest_columns(self, stream: str, batch: ColumnBatch) -> dict:
        """Send one batch already held column-wise."""
        return self._request(
            "ingest", stream=stream,
            columns=protocol.pack_columns(batch.columns),
        )

    def flush(self) -> dict:
        """End-of-stream barrier: when this returns, every result the
        flush produced is already in :attr:`pushed`."""
        return self._request("flush")

    def stats(self) -> dict:
        return self._request("stats")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PulseClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def drain_results(self, subscription: int | None = None) -> list[dict]:
        """Pop buffered ``result`` pushes (optionally one subscription's)
        and return their payloads flattened, in delivery order."""
        results: list[dict] = []
        keep: deque[dict] = deque()
        while self.pushed:
            msg = self.pushed.popleft()
            if msg.get("type") == "result" and (
                subscription is None or msg.get("subscription") == subscription
            ):
                results.extend(msg.get("results", ()))
            else:
                keep.append(msg)
        self.pushed = keep
        return results

    def drain_notices(self, *kinds: str) -> list[dict]:
        """Pop buffered non-result pushes (optionally filtered by type)."""
        notices: list[dict] = []
        keep: deque[dict] = deque()
        while self.pushed:
            msg = self.pushed.popleft()
            kind = msg.get("type")
            if kind != "result" and (not kinds or kind in kinds):
                notices.append(msg)
            else:
                keep.append(msg)
        self.pushed = keep
        return notices

    def ingest_iter(
        self,
        stream: str,
        tuples: Iterable[Mapping],
        batch_size: int = 256,
        rate: float | None = None,
    ) -> dict:
        """Stream tuples in batches, optionally rate-limited.

        ``rate`` is tuples/second across the whole call; pacing sleeps
        between batches to hold it.  Returns summed admission counts.
        """
        totals: dict = {}
        batch: list[Mapping] = []
        sent = 0
        t0 = time.perf_counter()

        def _send(batch: list[Mapping]) -> None:
            nonlocal sent
            ack = self.ingest(stream, batch)
            sent += len(batch)
            for key, value in ack.items():
                if (
                    key != "id"
                    and isinstance(value, int)
                    and not isinstance(value, bool)
                ):
                    totals[key] = totals.get(key, 0) + value
            if rate is not None:
                ahead = sent / rate - (time.perf_counter() - t0)
                if ahead > 0:
                    time.sleep(ahead)

        for tup in tuples:
            batch.append(tup)
            if len(batch) >= batch_size:
                _send(batch)
                batch = []
        if batch:
            _send(batch)
        totals["sent"] = sent
        totals["elapsed_s"] = time.perf_counter() - t0
        return totals
