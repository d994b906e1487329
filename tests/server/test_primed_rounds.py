"""Served path with round priming: ``ServerConfig(num_shards=2)``.

Above one shard, the runtime pre-solves each drain round's predicted
solve tasks in one sweep before processing the round.  Through the
wire that must change nothing a subscriber can see: the same trace,
served at ``num_shards=1`` and ``num_shards=2``, yields byte-identical
result pushes.  The paper's MACD and "following" shapes are checked
(their first-hop operators are windowed aggregates and a constant-key
join, which predict no solve tasks), plus a modeled filter, whose
rounds do pre-solve tasks.
"""

import random

import pytest

from repro.bench.queries import FOLLOWING_SQL, MACD_SQL
from repro.core.solve_cache import reset_global_solve_cache
from repro.engine.metrics import reset_counters
from repro.server import PulseClient, ServerConfig, ServerThread, protocol

#: Windows shrunk to this trace's ~60-90 s span, as in the benchmark.
MACD = MACD_SQL.replace("[size 10 advance 2]", "[size 4 advance 1]").replace(
    "[size 60 advance 2]", "[size 12 advance 1]"
)
FOLLOWING = FOLLOWING_SQL.replace("[size 600 advance 10]", "[size 60 advance 10]")
FILTER = "select * from vessels where x > 20"

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


SHAPES = {
    "macd": (MACD, "trades", {"attrs": ["price"], "key_fields": ["symbol"]},
             0.01, trades(600)),
    "following": (FOLLOWING, "vessels", VESSEL_FIT, 5.0, vessels(900)),
    "filter": (FILTER, "vessels", VESSEL_FIT, 0.05, vessels(600)),
}


def serve(num_shards, shape):
    """Encoded result pushes and the ``stats`` reply of one served run."""
    sql, stream, fit, bound, rows = SHAPES[shape]
    reset_global_solve_cache()
    reset_counters()
    with ServerThread(ServerConfig(num_shards=num_shards)) as handle:
        with PulseClient("127.0.0.1", handle.port) as client:
            client.connect()
            client.register("q", sql, fit=fit)
            client.subscribe("q", error_bound=bound)
            for i in range(0, len(rows), 50):
                client.ingest(stream, rows[i : i + 50])
            client.flush()
            pushes = [
                protocol.encode(msg)
                for msg in client.pushed
                if msg.get("type") == "result"
            ]
            stats = client.stats()
    return pushes, stats


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_primed_rounds_push_identical_bytes(shape):
    unprimed, serial_stats = serve(1, shape)
    primed, stats = serve(2, shape)
    assert unprimed, f"{shape}: the trace produced no results"
    assert primed == unprimed
    assert "parallel" not in serial_stats["engine"]
    parallel = stats["engine"]["parallel"]
    assert set(parallel) == {"num_shards", "rounds_primed", "tasks_primed"}
    assert parallel["num_shards"] == 2
    assert parallel["rounds_primed"] > 0
    if shape == "filter":
        assert parallel["tasks_primed"] > 0
