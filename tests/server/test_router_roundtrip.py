"""Router fleet round-trips: key-routed fan-out with a deterministic
merge edge, against single-engine references.

The headline property extends the single-server parity gate across a
fleet: tuples streamed through the router to N key-partitioned workers
produce, at the merged subscriber edge, bit-for-bit the results an
in-process single-engine execution produces — same values, same order,
including the flush tail (which the router re-sorts from worker-major
back into first-arrival key order).

Workers here are in-process :class:`ServerThread` instances (crash
recovery has its own subprocess harness in ``test_router_chaos.py``).
The client-side reconnect regressions (backoff cap, half-open socket)
and the retained-output replay layer the fleet recovery rides on are
pinned at the bottom.
"""

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.transform import to_continuous_plan
from repro.engine.lowering import to_discrete_plan
from repro.engine.sharding import shard_of
from repro.engine.tuples import StreamTuple
from repro.fitting.model_builder import StreamModelBuilder
from repro.query import parse_query, plan_query
from repro.server import (
    PulseClient,
    PulseRouter,
    ReconnectExhausted,
    RouterConfig,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import serialize_results
from repro.workloads import MovingObjectConfig, MovingObjectGenerator

QUERY = "select * from objects where x > 0"
STREAM = "objects"
FIT = {"attrs": ["x", "y"], "key_fields": ["id"]}
BOUND = 0.05


def moving_tuples(n=200, seed=7):
    gen = MovingObjectGenerator(MovingObjectConfig(rate=float(n), seed=seed))
    return [dict(t) for t in gen.tuples(n)]


def discrete_reference(tuples):
    query = to_discrete_plan(plan_query(parse_query(QUERY)))
    outputs = []
    for tup in tuples:
        outputs.extend(query.push(STREAM, StreamTuple(tup)))
    outputs.extend(query.flush())
    return serialize_results(outputs)


def continuous_reference(tuples, bound=BOUND):
    builder = StreamModelBuilder(
        tuple(FIT["attrs"]),
        bound,
        key_fields=tuple(FIT["key_fields"]),
        constants=tuple(FIT["key_fields"]),
    )
    query = to_continuous_plan(plan_query(parse_query(QUERY)))
    outputs = []
    for tup in tuples:
        for seg in builder.add(StreamTuple(tup)):
            outputs.extend(query.push(STREAM, seg))
    for seg in builder.finish():
        outputs.extend(query.push(STREAM, seg))
    return serialize_results(outputs)


@contextmanager
def loopback_fleet(num_workers, **router_kwargs):
    """N in-process workers behind one router."""
    handles = []
    router = None
    try:
        for _ in range(num_workers):
            handles.append(ServerThread(ServerConfig()).start())
        addrs = tuple(("127.0.0.1", h.port) for h in handles)
        router = PulseRouter(
            RouterConfig(workers=addrs, **router_kwargs)
        ).start()
        yield router
    finally:
        if router is not None:
            router.stop()
        for handle in handles:
            handle.stop()


@contextmanager
def fleet_client(num_workers=3, **router_kwargs):
    with loopback_fleet(num_workers, **router_kwargs) as router:
        with PulseClient("127.0.0.1", router.port) as client:
            client.connect()
            yield client


class TestFleetHandshake:
    def test_hello_reports_role_and_width(self):
        with fleet_client(3) as client:
            assert client.hello["role"] == "router"
            assert client.hello["workers"] == 3
            assert client.hello["server"] == "pulse-repro"

    def test_register_fans_out_and_learns_keys(self):
        with fleet_client(2) as client:
            ack = client.register("q", QUERY, fit=FIT)
            assert ack["registered"] == "q"
            assert ack["workers"] == 2
            assert STREAM in ack["streams"]
            stats = client.stats()
            assert stats["role"] == "router"
            assert stats["streams"][STREAM] == ["id"]
            assert len(stats["workers"]) == 2

    def test_per_session_backpressure_rejected(self):
        with loopback_fleet(2) as router:
            with PulseClient("127.0.0.1", router.port) as client:
                with pytest.raises(ServerError):
                    client.connect(backpressure="shed-newest")


    def test_stop_wakes_the_accept_thread(self):
        # The accept thread sits in a blocking accept(); stop() has to
        # wake it, not wait out the join timeout and leak the thread.
        with loopback_fleet(2) as router:
            with PulseClient("127.0.0.1", router.port) as client:
                client.connect()
            accept_thread = router._accept_thread
            assert accept_thread.is_alive()
            t0 = time.perf_counter()
            router.stop()
            assert time.perf_counter() - t0 < 0.5
            assert not accept_thread.is_alive()


class TestMergedParity:
    def test_discrete_merged_stream_bit_exact(self):
        tuples = moving_tuples(240)
        with fleet_client(3) as client:
            client.register("q", QUERY, fit=FIT)
            sub = client.subscribe("q", mode="discrete")
            for start in range(0, len(tuples), 50):
                client.ingest(STREAM, tuples[start:start + 50])
            client.flush()
            results = client.drain_results(sub["subscription"])
        expected = discrete_reference(tuples)
        assert len(results) == len(expected) > 0
        assert results == expected  # bit-exact, including float bits

    def test_continuous_merged_stream_bit_exact(self):
        tuples = moving_tuples(240)
        with fleet_client(3) as client:
            client.register("q", QUERY, fit=FIT)
            sub = client.subscribe("q", error_bound=BOUND)
            for start in range(0, len(tuples), 60):
                client.ingest(STREAM, tuples[start:start + 60])
            client.flush()
            results = client.drain_results(sub["subscription"])
        expected = continuous_reference(tuples)
        assert len(results) == len(expected) > 0
        assert results == expected

    def test_ingest_actually_spreads_across_workers(self):
        tuples = moving_tuples(240)
        keys = {t["id"] for t in tuples}
        shards = {shard_of((k,), 3) for k in keys}
        assert shards == {0, 1, 2}, "workload keys must hit every shard"
        with fleet_client(3) as client:
            client.register("q", QUERY, fit=FIT)
            client.subscribe("q", mode="discrete")
            ack = client.ingest(STREAM, tuples)
            assert ack["accepted"] == len(tuples)
            assert ack["runs"] > 3  # interleaved keys -> many runs
            stats = client.stats()
            sent = [w["sent"] for w in stats["workers"]]
            assert all(s > 0 for s in sent)
            assert sum(sent) == len(tuples)

    def test_merged_pushes_carry_contiguous_seq(self):
        tuples = moving_tuples(150)
        with fleet_client(3) as client:
            client.register("q", QUERY, fit=FIT)
            sub = client.subscribe("q", mode="discrete")
            client.ingest(STREAM, tuples)
            client.flush()
            seen = 0
            for msg in list(client.pushed):
                if msg.get("type") != "result":
                    continue
                assert msg["subscription"] == sub["subscription"]
                assert msg["seq"] == seen
                assert msg["cursor"] == seen
                assert "worker" in msg
                seen += len(msg["results"])
            assert seen == len(discrete_reference(tuples))

    def test_rejected_tuples_counted_at_router(self):
        """Malformed and non-finite tuples are rejected at the router
        edge — workers never see them (raw wire bytes, because the
        client's own encoder refuses non-finite floats)."""
        with fleet_client(2) as client:
            client.register("q", QUERY, fit=FIT)
            client.subscribe("q", mode="discrete")
            line = (
                b'{"op":"ingest","id":99,"stream":"objects","columns":{'
                b'"time":[0.0,Infinity,null],"id":["a","a","b"],'
                b'"x":[1.0,1.0,1.0],"y":[0.0,0.0,0.0]}}\n'
            )
            client._sock.sendall(line)
            ack = client.read_reply(99)
            assert ack["accepted"] == 1
            assert ack["rejected"] == 2
            assert ack["rejected_nonfinite"] == 1
            assert ack["first_rejected"]["row"] == 1
            # the row form is refused at the router as at a server
            client._sock.sendall(
                b'{"op":"ingest","id":100,"stream":"objects",'
                b'"tuples":[{"time":0.0,"x":1.0}]}\n'
            )
            with pytest.raises(ServerError, match="version 2") as info:
                client.read_reply(100)
            assert info.value.code == "protocol"


class TestSubscriptionLifecycle:
    def test_unsubscribe_stops_delivery_fleetwide(self):
        tuples = moving_tuples(120)
        with fleet_client(3) as client:
            client.register("q", QUERY, fit=FIT)
            sub = client.subscribe("q", mode="discrete")
            client.ingest(STREAM, tuples[:60])
            client.unsubscribe(sub["subscription"])
            drained = client.drain_results(sub["subscription"])
            client.ingest(STREAM, tuples[60:])
            client.flush()
            assert client.drain_results(sub["subscription"]) == []
            assert len(drained) > 0

    def test_two_subscribers_same_query(self):
        tuples = moving_tuples(120)
        with fleet_client(2) as client:
            client.register("q", QUERY, fit=FIT)
            sub_a = client.subscribe("q", mode="discrete")
            sub_b = client.subscribe("q", mode="discrete")
            client.ingest(STREAM, tuples)
            client.flush()
            a = client.drain_results(sub_a["subscription"])
            b = client.drain_results(sub_b["subscription"])
        expected = discrete_reference(tuples)
        assert a == expected
        assert b == expected

    def test_attach_rebinds_to_new_session(self):
        tuples = moving_tuples(100)
        with loopback_fleet(2) as router:
            with PulseClient("127.0.0.1", router.port) as first:
                first.connect()
                first.register("q", QUERY, fit=FIT)
                sub = first.subscribe("q", mode="discrete")
                first.ingest(STREAM, tuples[:50])
                got = len(first.drain_results(sub["subscription"]))
                with PulseClient("127.0.0.1", router.port) as second:
                    second.connect()
                    ack = second.attach(sub["subscription"])
                    assert ack["cursor"] == got
                    second.ingest(STREAM, tuples[50:])
                    second.flush()
                    tail = second.drain_results(sub["subscription"])
                    assert len(tail) > 0
                    # the old session no longer receives anything
                    assert first.drain_results(sub["subscription"]) == []

    def test_router_level_replay_is_a_typed_refusal(self):
        with fleet_client(2) as client:
            client.register("q", QUERY, fit=FIT)
            sub = client.subscribe("q", mode="discrete")
            with pytest.raises(ServerError):
                client.attach(sub["subscription"], from_cursor=0)


# ----------------------------------------------------------------------
# satellite regressions: the reconnect loop the fleet recovery rides on
# ----------------------------------------------------------------------
class TestReconnectBackoff:
    def test_jittered_sleep_never_exceeds_cap(self, monkeypatch):
        """Regression: the jitter multiplier used to be applied *after*
        the clamp, so sleeps reached 2x ``reconnect_max_s``."""
        with ServerThread(ServerConfig()) as handle:
            client = PulseClient(
                "127.0.0.1",
                handle.port,
                reconnect_attempts=8,
                reconnect_base_s=0.05,
                reconnect_max_s=0.08,
            )
            client.connect()
        # server gone; every attempt now fails with connection refused
        client._rng.seed(1234)
        sleeps = []
        monkeypatch.setattr(
            "repro.server.client.time.sleep", sleeps.append
        )
        with pytest.raises(ReconnectExhausted):
            client.reconnect()
        assert len(sleeps) == 8
        assert all(delay <= 0.08 for delay in sleeps)
        # jitter still jitters below the cap (first delays are uncapped)
        assert sleeps[0] > 0.05

    def test_half_open_socket_closed_on_failed_hello(self, monkeypatch):
        """Regression: a TCP connect that succeeded but whose hello
        failed used to leak the socket and abort the retry budget."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        accepted = []

        def garbage_server():
            for _ in range(3):
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)
                try:
                    conn.recv(4096)  # the hello request
                    conn.sendall(b"this is not json\n")
                finally:
                    conn.close()

        thread = threading.Thread(target=garbage_server, daemon=True)
        thread.start()
        client = PulseClient.__new__(PulseClient)
        client._addr = ("127.0.0.1", port)
        client._timeout = 5.0
        client.reconnect_attempts = 3
        client.reconnect_base_s = 0.001
        client.reconnect_max_s = 0.002
        import random

        client._rng = random.Random(7)
        client._backpressure = None
        client._next_id = 1
        from collections import deque

        client.pushed = deque()
        client.hello = None
        client._sock = socket.socket()  # stand-in for the dead socket
        client._file = client._sock.makefile("rb")
        monkeypatch.setattr("repro.server.client.time.sleep", lambda s: None)
        with pytest.raises(ReconnectExhausted) as excinfo:
            client.reconnect()
        # the budget was spent on retries (not aborted by the first
        # protocol error), and no attempt left a half-open socket
        assert excinfo.value.attempts == 3
        assert client._sock.fileno() == -1
        listener.close()
        thread.join(timeout=5)


# ----------------------------------------------------------------------
# retained-output replay: the attach(from_cursor) layer fleet recovery
# depends on
# ----------------------------------------------------------------------
class TestRetainedReplay:
    def test_attach_from_cursor_replays_tail(self):
        tuples = moving_tuples(80)
        config = ServerConfig(retain_results=16)
        with ServerThread(config, [("q", QUERY, None)]) as handle:
            with PulseClient("127.0.0.1", handle.port) as client:
                client.connect()
                sub = client.subscribe("q", mode="discrete")
                client.ingest(STREAM, tuples)
                client.flush()
                results = client.drain_results(sub["subscription"])
                assert len(results) > 5
                cursor = len(results)
                ack = client.attach(
                    sub["subscription"], from_cursor=cursor - 5
                )
                assert ack["cursor"] == cursor
                replayed = client.drain_results(sub["subscription"])
                assert replayed == results[-5:]  # bit-exact re-delivery

    def test_attach_from_current_cursor_replays_nothing(self):
        config = ServerConfig(retain_results=16)
        with ServerThread(config, [("q", QUERY, None)]) as handle:
            with PulseClient("127.0.0.1", handle.port) as client:
                client.connect()
                sub = client.subscribe("q", mode="discrete")
                client.ingest(STREAM, moving_tuples(40))
                client.flush()
                cursor = len(client.drain_results(sub["subscription"]))
                client.attach(sub["subscription"], from_cursor=cursor)
                assert client.drain_results(sub["subscription"]) == []

    def test_replay_past_retention_is_a_typed_error(self):
        tuples = moving_tuples(80)
        config = ServerConfig(retain_results=2)
        with ServerThread(config, [("q", QUERY, None)]) as handle:
            with PulseClient("127.0.0.1", handle.port) as client:
                client.connect()
                sub = client.subscribe("q", mode="discrete")
                client.ingest(STREAM, tuples)
                client.flush()
                n = len(client.drain_results(sub["subscription"]))
                assert n > 2
                with pytest.raises(ServerError, match="retention"):
                    client.attach(sub["subscription"], from_cursor=0)

    def test_retention_disabled_rejects_from_cursor_gap(self):
        with ServerThread(
            ServerConfig(), [("q", QUERY, None)]
        ) as handle:
            with PulseClient("127.0.0.1", handle.port) as client:
                client.connect()
                sub = client.subscribe("q", mode="discrete")
                client.ingest(STREAM, moving_tuples(40))
                client.flush()
                n = len(client.drain_results(sub["subscription"]))
                assert n > 0
                with pytest.raises(ServerError, match="retention"):
                    client.attach(sub["subscription"], from_cursor=0)
