"""Loopback protocol round-trips: the server against an in-process run.

The headline property is **parity**: tuples streamed through a real TCP
socket produce bit-for-bit the results an in-process execution of the
same query over the same tuples produces, in both engine modes.  JSON
floats round-trip exactly (``repr`` precision), so plain ``==`` on the
serialized forms is a bit-exact comparison, not an approximation.

Everything runs over loopback against a :class:`ServerThread`; no test
here sleeps or polls — the flush-ack ordering guarantee (results are
written before the ack that produced them) makes drains deterministic.
"""

import base64
import json
import math
import random
import socket
import struct

import pytest

from repro.bench.queries import FOLLOWING_SQL, MACD_SQL
from repro.core.transform import to_continuous_plan
from repro.engine import tracing
from repro.engine.lowering import to_discrete_plan
from repro.engine.metrics import get_counter, reset_counters
from repro.engine.tuples import StreamTuple
from repro.fitting.model_builder import StreamModelBuilder
from repro.query import parse_query, plan_query
from repro.server import (
    PulseClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import serialize_results
from repro.workloads import MovingObjectConfig, MovingObjectGenerator

QUERY = "select * from objects where x > 0"
STREAM = "objects"
FIT = {"attrs": ["x", "y"], "key_fields": ["id"]}


def moving_tuples(n=200, seed=7):
    gen = MovingObjectGenerator(
        MovingObjectConfig(rate=float(n), seed=seed)
    )
    return [dict(t) for t in gen.tuples(n)]


@pytest.fixture(scope="module")
def server():
    config = ServerConfig()
    with ServerThread(config, [(
        "q", QUERY, None
    )]) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with PulseClient("127.0.0.1", server.port) as c:
        c.connect()
        yield c


def discrete_reference(tuples):
    query = to_discrete_plan(plan_query(parse_query(QUERY)))
    outputs = []
    for tup in tuples:
        outputs.extend(query.push(STREAM, StreamTuple(tup)))
    outputs.extend(query.flush())
    return serialize_results(outputs)


def continuous_reference(tuples, bound, sql=QUERY, stream=STREAM, fit=FIT):
    builder = StreamModelBuilder(
        tuple(fit["attrs"]),
        bound,
        key_fields=tuple(fit["key_fields"]),
        constants=tuple(fit["key_fields"]),
    )
    query = to_continuous_plan(plan_query(parse_query(sql)))
    outputs = []
    for tup in tuples:
        for seg in builder.add(StreamTuple(tup)):
            outputs.extend(query.push(stream, seg))
    for seg in builder.finish():
        outputs.extend(query.push(stream, seg))
    return serialize_results(outputs)


#: The paper's two queries, windows shrunk to these traces' ~60-90 s
#: span as in the benchmark, plus a modeled filter over the same vessels.
MACD = MACD_SQL.replace("[size 10 advance 2]", "[size 4 advance 1]").replace(
    "[size 60 advance 2]", "[size 12 advance 1]"
)
FOLLOWING = FOLLOWING_SQL.replace(
    "[size 600 advance 10]", "[size 60 advance 10]"
)
VESSEL_FIT = {"attrs": ["x", "y"], "key_fields": ["id"]}


def trades(n, seed=5):
    """Round-robin random-walk prices for three symbols, 10 per second."""
    rng = random.Random(seed)
    symbols = ("ibm", "aapl", "msft")
    price = {s: 100.0 + 10 * i for i, s in enumerate(symbols)}
    rows = []
    for i in range(n):
        s = symbols[i % len(symbols)]
        price[s] += rng.uniform(-1.0, 1.0)
        rows.append({"time": i * 0.1, "symbol": s, "price": round(price[s], 4)})
    return rows


def vessels(n, seed=5):
    """Three vessels on piecewise-linear courses, 10 reports per second."""
    rng = random.Random(seed)
    ids = ("v0", "v1", "v2")
    pos = {v: [10.0 * k, 5.0 * k] for k, v in enumerate(ids)}
    vel = {v: [1.0, 0.5] for v in ids}
    rows = []
    for i in range(n):
        v = ids[i % len(ids)]
        if rng.random() < 0.05:
            vel[v] = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        pos[v][0] += vel[v][0] * 0.3
        pos[v][1] += vel[v][1] * 0.3
        rows.append({"time": i * 0.1, "id": v, "x": pos[v][0], "y": pos[v][1]})
    return rows


PAPER_SHAPES = {
    "macd": (MACD, "trades", {"attrs": ["price"], "key_fields": ["symbol"]},
             0.01, lambda: trades(600)),
    "following": (FOLLOWING, "vessels", VESSEL_FIT, 5.0, lambda: vessels(900)),
    "filter": ("select * from vessels where x > 20", "vessels", VESSEL_FIT,
               0.05, lambda: vessels(600)),
}


class TestHandshake:
    def test_hello_reports_queries_and_streams(self, client):
        assert client.hello["server"] == "pulse-repro"
        assert client.hello["protocol"] == 2
        assert "q" in client.hello["queries"]
        assert STREAM in client.hello["streams"]

    def test_bad_backpressure_policy_rejected(self, server):
        with PulseClient("127.0.0.1", server.port) as c:
            with pytest.raises(ServerError):
                c.connect(backpressure="yolo")

    @pytest.mark.parametrize("shards", [0, 2])
    def test_num_shards_pinned_to_one(self, shards):
        assert "num_shards" not in ServerConfig().runtime_kwargs()
        with pytest.raises(ValueError):
            ServerConfig(num_shards=shards)


class TestDiscreteParity:
    def test_bit_exact_roundtrip(self, client):
        tuples = moving_tuples(200)
        sub = client.subscribe("q", mode="discrete")
        client.ingest(STREAM, tuples)
        client.flush()
        results = client.drain_results(sub["subscription"])
        expected = discrete_reference(tuples)
        assert len(results) == len(expected) > 0
        assert results == expected  # bit-exact, including float bits
        assert json.dumps(results, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        client.unsubscribe(sub["subscription"])

    def test_results_arrive_before_flush_ack(self, client):
        """The ordering guarantee itself: after ingest+flush return,
        every result is already buffered — no sleep happened."""
        sub = client.subscribe("q", mode="discrete")
        client.ingest(STREAM, moving_tuples(50))
        client.flush()
        assert len(client.drain_results(sub["subscription"])) > 0
        client.unsubscribe(sub["subscription"])


class TestContinuousParity:
    def test_bit_exact_roundtrip(self, server):
        tuples = moving_tuples(300)
        bound = 0.05
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qc", QUERY, fit=FIT)
            sub = c.subscribe("qc", mode="continuous", error_bound=bound)
            assert sub["error_bound"] == bound
            c.ingest(STREAM, tuples)
            c.flush()
            results = c.drain_results(sub["subscription"])
        expected = continuous_reference(tuples, bound)
        assert len(results) == len(expected) > 0
        assert results == expected

    @pytest.mark.parametrize("shape", sorted(PAPER_SHAPES))
    def test_paper_queries_bit_exact(self, shape):
        """The MACD and "following" queries (and a modeled filter) served
        through the socket equal their in-process run, pushed in
        batches of 50."""
        sql, stream, fit, bound, make_rows = PAPER_SHAPES[shape]
        rows = make_rows()
        reset_counters()
        with ServerThread(ServerConfig()) as handle:
            with PulseClient("127.0.0.1", handle.port) as c:
                c.connect()
                c.register("q", sql, fit=fit)
                sub = c.subscribe("q", error_bound=bound)
                for i in range(0, len(rows), 50):
                    c.ingest(stream, rows[i : i + 50])
                c.flush()
                results = c.drain_results(sub["subscription"])
        expected = continuous_reference(rows, bound, sql, stream, fit)
        assert len(results) == len(expected) > 0
        assert results == expected

    def test_shared_graph_serves_both_bounds_at_tightest(self, server):
        """Two bounds, one shared graph: both subscribers are served by
        the single graph solved at the tightest subscribed bound — a
        solution within 0.01 is trivially within 10.0 (Sec. IV bound
        inversion), and each subscriber's stream is bit-exact with the
        tightest-bound in-process reference."""
        tuples = moving_tuples(400)
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qb", QUERY, fit=FIT)
            tight = c.subscribe("qb", mode="continuous", error_bound=0.01)
            loose = c.subscribe("qb", mode="continuous", error_bound=10.0)
            assert tight["graph"] == loose["graph"]
            assert tight["error_bound"] == 0.01
            assert loose["error_bound"] == 10.0
            assert loose["solve_bound"] == 0.01  # tightest wins
            c.ingest(STREAM, tuples)
            c.flush()
            tight_results = c.drain_results(tight["subscription"])
            loose_results = c.drain_results(loose["subscription"])
        expected = continuous_reference(tuples, 0.01)
        assert tight_results == expected
        assert loose_results == expected

    def test_later_tighter_subscriber_retightens_shared_graph(self, server):
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qs", QUERY, fit=FIT)
            a = c.subscribe("qs", mode="continuous", error_bound=0.5)
            assert a["solve_bound"] == 0.5
            b = c.subscribe("qs", mode="continuous", error_bound=0.1)
            assert a["graph"] == b["graph"]
            assert b["solve_bound"] == 0.1
            graphs = c.stats()["engine"]["graphs"]
            info = graphs[a["graph"]]
            assert info["subscribers"] == 2
            assert info["retightens"] == 1
            # dropping the tight subscriber relaxes back to 0.5
            c.unsubscribe(b["subscription"])
            graphs = c.stats()["engine"]["graphs"]
            info = graphs[a["graph"]]
            assert info["error_bound"] == 0.5
            assert info["retightens"] == 2

    def test_continuous_without_fit_spec_errors(self, server):
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            with pytest.raises(ServerError) as info:
                c.subscribe("q", mode="continuous")
            assert info.value.code == "plan"


def _raw_request(server, line: bytes) -> dict:
    """Send one raw wire line on a fresh connection; return the reply."""
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        f = raw.makefile("rb")
        raw.sendall(line)
        return json.loads(f.readline())
    finally:
        raw.close()


def _f64(values) -> str:
    """A packed column's base64 payload (little-endian float64)."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


class TestIngestBoundary:
    def test_nonfinite_wire_literal_rejected_and_counted(self, server):
        """NaN over the wire: json.loads admits it, the server rejects
        it per-tuple, counts it, and the engine never sees it."""
        counter = get_counter("server.rejected_nonfinite")
        before = counter.value
        ack = _raw_request(
            server,
            b'{"op":"ingest","id":1,"stream":"objects","columns":{'
            b'"time":[0.0,0.1,0.2,0.3],"id":["a","a","a","a"],'
            b'"x":[NaN,Infinity,-Infinity,1.0],"y":[1.0,1.0,1.0,1.0]}}\n',
        )
        assert ack["type"] == "ack"
        assert ack["rejected"] == 3
        assert ack["rejected_nonfinite"] == 3
        assert ack["first_rejected"]["row"] == 0
        assert ack["first_rejected"]["code"] == "nonfinite"
        # the one finite tuple passes the boundary (whether a consumer
        # graph is live at this point is another test's business)
        assert ack["accepted"] + ack["no_consumer"] == 1
        assert counter.value == before + 3

    def test_nonfinite_packed_bits_rejected_and_counted(self, server):
        """The same three values as packed float64 bits: one finite
        check over the column rejects exactly those rows."""
        counter = get_counter("server.rejected_nonfinite")
        before = counter.value
        columns = {
            "time": {"f64": _f64([0.0, 0.1, 0.2, 0.3])},
            "id": ["a", "a", "a", "a"],
            "x": {"f64": _f64([1.0, math.nan, math.inf, -math.inf])},
            "y": {"f64": _f64([1.0, 1.0, 1.0, 1.0])},
        }
        line = json.dumps({
            "op": "ingest", "id": 1, "stream": STREAM, "columns": columns,
        }).encode() + b"\n"
        ack = _raw_request(server, line)
        assert ack["rejected"] == 3
        assert ack["rejected_nonfinite"] == 3
        assert ack["first_rejected"]["row"] == 1
        assert ack["accepted"] + ack["no_consumer"] == 1
        assert counter.value == before + 3

    def test_malformed_tuples_rejected_not_fatal(self, client):
        malformed = get_counter("server.rejected_malformed")
        before = malformed.value
        ack = client.ingest(
            STREAM,
            [
                {"time": 0.0, "x": 1.0, "y": 1.0, "id": "a"},
                {"x": 1.0},  # no time: a null in the time column
            ],
        )
        assert ack["rejected"] == 1
        assert ack["rejected_nonfinite"] == 0
        assert ack["first_rejected"]["row"] == 1
        assert malformed.value == before + 1
        # the session is still alive
        assert client.stats()["type"] == "stats"

    @pytest.mark.parametrize("time_value, value", [
        (True, 1.0),  # a boolean is not a time
        (0.0, {"nested": 1}),
        (0.0, [1.0]),
    ])
    def test_malformed_values_rejected(self, client, time_value, value):
        ack = client.ingest(
            STREAM,
            [
                {"time": time_value, "id": "a", "x": value, "y": 0.0},
                {"time": 1.0, "id": "a", "x": 1.0, "y": 0.0},
            ],
        )
        assert ack["rejected"] == 1
        assert ack["rejected_nonfinite"] == 0
        assert ack["first_rejected"] == {
            "row": 0, "code": "protocol",
            "error": ack["first_rejected"]["error"],
        }
        assert ack["accepted"] + ack["no_consumer"] == 1

    @pytest.mark.parametrize("columns, names", [
        ({"time": [0.0, 1.0], "x": [1.0]}, "'x'"),
        ({"time": {"f64": "not base64!"}}, "'time'"),
        ({"time": {"f64": base64.b64encode(b"1234567").decode()}}, "'time'"),
        ({"x": [1.0]}, "'time'"),
        ({"time": 0.0}, "'time'"),
    ], ids=["ragged", "bad-base64", "length-not-8k", "no-time", "not-a-column"])
    def test_batch_faults_are_one_typed_error(self, server, columns, names):
        """A fault of the batch itself refuses the whole request with a
        typed error naming the column; the session survives it."""
        line = json.dumps({
            "op": "ingest", "id": 4, "stream": STREAM, "columns": columns,
        }).encode() + b"\n"
        reply = _raw_request(server, line)
        assert reply["type"] == "error"
        assert reply["code"] == "protocol"
        assert reply["id"] == 4
        assert names in reply["error"]

    def test_row_form_request_is_a_typed_error(self, server):
        reply = _raw_request(
            server,
            b'{"op":"ingest","id":2,"stream":"objects",'
            b'"tuples":[{"time":0.0,"x":1.0}]}\n',
        )
        assert reply["type"] == "error"
        assert reply["code"] == "protocol"
        assert "version 2" in reply["error"]

    def test_unknown_stream_counts_no_consumer(self, client):
        ack = client.ingest("nowhere", [{"time": 0.0, "x": 1.0}])
        assert ack["no_consumer"] == 1
        assert ack["accepted"] == 0

    def test_fit_rejection_counted(self, server):
        """A tuple missing a modeled attr can't be fitted; it is
        rejected by the fit precondition, not crashed on."""
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qf", QUERY, fit=FIT)
            c.subscribe("qf", mode="continuous", error_bound=0.5)
            ack = c.ingest(
                STREAM, [{"time": 0.0, "id": "a", "x": 1.0}]  # no 'y'
            )
            # counted once per continuous consumer instance of the
            # stream, and at least by the one this test registered
            assert ack["fit_rejected"] >= 1

    def test_null_key_field_counts_fit_rejected(self, server):
        """``null`` means absent: a row whose key field is null passes
        the wire boundary but cannot be fitted under a key."""
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qk", QUERY, fit=FIT)
            c.subscribe("qk", mode="continuous", error_bound=0.5)
            ack = c.ingest(STREAM, [
                {"time": 0.0, "id": None, "x": 1.0, "y": 1.0},
                {"time": 0.1, "id": "a", "x": 1.0, "y": 1.0},
            ])
            assert ack["rejected"] == 0
            assert ack["fit_rejected"] >= 1
            assert ack["accepted"] == 2


class TestErrors:
    def test_unknown_query_subscribe(self, client):
        with pytest.raises(ServerError) as info:
            client.subscribe("nope", mode="discrete")
        assert info.value.code == "plan"

    def test_duplicate_register(self, client):
        client.register("qd", QUERY)
        with pytest.raises(ServerError):
            client.register("qd", QUERY)

    def test_unknown_op(self, server):
        raw = socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        )
        try:
            f = raw.makefile("rb")
            raw.sendall(b'{"op":"explode","id":9}\n')
            msg = json.loads(f.readline())
            assert msg["type"] == "error"
            assert msg["code"] == "protocol"
            assert msg["id"] == 9
            # session survives a protocol error
            raw.sendall(b'{"op":"stats","id":10}\n')
            assert json.loads(f.readline())["id"] == 10
        finally:
            raw.close()

    def test_invalid_json_line(self, server):
        raw = socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        )
        try:
            f = raw.makefile("rb")
            raw.sendall(b"{broken\n")
            assert json.loads(f.readline())["type"] == "error"
        finally:
            raw.close()

    def test_unsubscribe_foreign_subscription(self, client):
        with pytest.raises(ServerError):
            client.unsubscribe(999_999)


class TestBackpressure:
    def test_shed_newest_counts_and_notifies(self):
        config = ServerConfig(queue_capacity=10)
        with ServerThread(config, [("q", QUERY, None)]) as handle:
            with PulseClient("127.0.0.1", handle.port) as c:
                c.connect(backpressure="shed-newest")
                sub = c.subscribe("q", mode="discrete")
                # one big batch: all 100 enqueue before the pump runs,
                # so the 10-deep queue must shed
                ack = c.ingest(STREAM, moving_tuples(100))
                assert ack["shed"] > 0
                assert ack["accepted"] + ack["shed"] == 100
                notices = c.drain_notices("backpressure")
                assert notices and notices[0]["shed"] > 0
                # accepted tuples still produced results
                c.flush()
                assert len(
                    c.drain_results(sub["subscription"])
                ) <= ack["accepted"]

    def test_block_policy_counts_blocked(self):
        config = ServerConfig(queue_capacity=10)
        with ServerThread(config, [("q", QUERY, None)]) as handle:
            with PulseClient("127.0.0.1", handle.port) as c:
                c.connect(backpressure="block")
                c.subscribe("q", mode="discrete")
                ack = c.ingest(STREAM, moving_tuples(100))
                assert ack["blocked"] > 0


class TestSessionLifecycle:
    def test_stats_reflect_session(self, server):
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.ingest("nowhere", [{"time": 0.0, "x": 1.0}])
            stats = c.stats()
            assert stats["session"]["requests"] >= 2
            assert stats["engine"]["queries"]
            assert "queue_depths" in stats["engine"]

    def test_disconnect_tears_down_shared_graph(self, server):
        """Regression: the last subscriber's disconnect must tear the
        shared graph down — it used to stay registered (builders, delta
        tracker and all) forever after the session died."""
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            c.register("qgone", QUERY, fit=FIT)
            sub = c.subscribe("qgone", mode="continuous", error_bound=0.3)
            assert sub["graph"] in c.stats()["engine"]["graphs"]
        # session closed; its subscription died with it, and with no
        # subscribers left the graph is gone — later ingest finds no
        # consumer instead of feeding an orphaned graph
        with PulseClient("127.0.0.1", server.port) as c:
            c.connect()
            engine = c.stats()["engine"]
            assert sub["graph"] not in engine["graphs"]
            assert str(sub["subscription"]) not in engine["subscriptions"]
            ack = c.ingest(STREAM, moving_tuples(20))
            assert ack["no_consumer"] == 20
            assert ack["accepted"] == 0
            assert c.stats()["type"] == "stats"

    def test_clean_shutdown_under_load(self):
        """Stopping a server with live sessions joins both threads."""
        with ServerThread(ServerConfig(), [("q", QUERY, None)]) as handle:
            c = PulseClient("127.0.0.1", handle.port)
            c.connect()
            c.subscribe("q", mode="discrete")
            c.ingest(STREAM, moving_tuples(50))
            # exit without closing the client: stop() must still join
        c.close()


class TestTraceSpans:
    def test_session_and_ingest_spans_recorded(self):
        records: list = []
        tracing.enable_observability(records)
        try:
            with ServerThread(
                ServerConfig(), [("q", QUERY, None)]
            ) as handle:
                with PulseClient("127.0.0.1", handle.port) as c:
                    c.connect()
                    sub = c.subscribe("q", mode="discrete")
                    c.ingest(STREAM, moving_tuples(30))
                    c.flush()
                    c.drain_results(sub["subscription"])
        finally:
            tracing.disable_observability()
        by_kind = {}
        for rec in records:
            by_kind.setdefault(rec["kind"], []).append(rec)
        assert "session" in by_kind
        assert "ingest" in by_kind
        assert "emit" in by_kind
        session_ids = {r["span_id"] for r in by_kind["session"]}
        # ingest + emit spans parent into the session span
        assert all(
            r["parent_id"] in session_ids for r in by_kind["ingest"]
        )
        assert any(
            r["parent_id"] in session_ids for r in by_kind["emit"]
        )
        ingest = by_kind["ingest"][0]
        assert ingest["attrs"]["stream"] == STREAM
        assert ingest["attrs"]["accepted"] == 30


class TestEgressShedding:
    """Outbound-queue overflow accounting, driven white-box.

    The writer coroutine never runs here: a bare ``_Connection`` with a
    tiny ``outbound_limit`` lets each ``_send`` decision — shed-oldest,
    drop-new, notice injection — be asserted deterministically.
    """

    @staticmethod
    def _server(limit):
        from repro.server.server import PulseServer

        srv = PulseServer.__new__(PulseServer)
        srv.config = ServerConfig(outbound_limit=limit)
        srv._dropped_counter = get_counter("server.results_dropped")
        return srv

    @staticmethod
    def _conn():
        from repro.server.server import _Connection

        return _Connection(session_id=1, writer=None, peer="test")

    @staticmethod
    def _result(n):
        return {"type": "result", "results": [{"x": float(i)} for i in range(n)]}

    def test_shed_oldest_result_first(self):
        srv, conn = self._server(2), self._conn()
        srv._send(conn, self._result(3), sheddable=True)
        srv._send(conn, {"type": "ack"})
        srv._send(conn, self._result(1), sheddable=True)  # over limit
        queued = [m for m, _ in conn.outbound]
        # the oldest *result* was shed; the ack survived; the notice
        # lands immediately, ahead of the result that triggered it
        assert [m["type"] for m in queued] == [
            "ack", "backpressure", "result"
        ]
        assert queued[1]["dropped_results"] == 3
        assert len(queued[2]["results"]) == 1
        assert conn.results_dropped == 3
        assert conn.dropped_since_notice == 0

    def test_drop_new_is_counted_not_silent(self):
        srv, conn = self._server(2), self._conn()
        srv._send(conn, {"type": "ack"})
        srv._send(conn, {"type": "ack"})
        before = len(conn.outbound)
        srv._send(conn, self._result(4), sheddable=True)
        # nothing sheddable was queued, so the new push itself was
        # dropped — and accounted exactly like a shed
        assert len(conn.outbound) == before
        assert conn.results_dropped == 4
        assert conn.dropped_since_notice == 4

    def test_notice_precedes_next_result_and_resets(self):
        srv, conn = self._server(2), self._conn()
        srv._send(conn, {"type": "ack"})
        srv._send(conn, {"type": "ack"})
        srv._send(conn, self._result(4), sheddable=True)  # drop-new
        conn.outbound.clear()  # writer drains the acks
        srv._send(conn, self._result(2), sheddable=True)
        queued = [m for m, _ in conn.outbound]
        assert [m["type"] for m in queued] == ["backpressure", "result"]
        assert queued[0]["dropped_results"] == 4
        assert conn.dropped_since_notice == 0

    def test_acks_never_shed(self):
        srv, conn = self._server(1), self._conn()
        for _ in range(5):
            srv._send(conn, {"type": "ack"})
        assert len(conn.outbound) == 5
        assert conn.results_dropped == 0
