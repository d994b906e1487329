"""Property: the router's merged stream is bit-exact against a single
server, for randomized key interleavings across 2-4 workers.

Hypothesis draws an ingest script — random key sequences (so runs
fragment differently every example), random batch splits, interleaved
flush barriers — and executes it twice: through a router over N
in-process workers, and through one plain server.  The merged
subscriber stream must equal the single-server stream bit for bit, in
both engine modes, for every drawn interleaving and every fleet width.

One key is *poisoned*: its fitted models carry a content marker that
faults the solver (value-addressed, exactly like the subscription
parity suite), so the circuit breaker trips for that key — on the one
worker that owns it in the fleet, and on the single server in the
reference.  Faults are confined by key either way, so the merged
stream still matches: breaker quarantine is topology-independent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch_solver import set_fault_hook
from repro.core.errors import SolverError
from repro.engine.metrics import reset_counters
from repro.engine.resilience import BreakerConfig
from repro.server import (
    PulseClient,
    PulseRouter,
    RouterConfig,
    ServerConfig,
    ServerThread,
)

QUERY = "select * from ticks where x > 0"
STREAM = "ticks"
FIT = {"attrs": ["x"], "key_fields": ["sym"]}
BOUND = 0.05
KEYS = ("a", "b", "c", "d", "e", "poison")
POISON_LEVEL = 500.0


def _content_fault(task):
    poly = task[0]
    if max(abs(c) for c in poly.coeffs) >= POISON_LEVEL:
        raise SolverError("poisoned content marker")
    return task


def _breaker():
    return BreakerConfig(failure_threshold=2, backoff=10_000)


def _reset():
    reset_counters()


@st.composite
def scripts(draw):
    """(num_workers, events): ingest batches and flush barriers over a
    monotone clock, with occasional poisoned content."""
    num_workers = draw(st.integers(min_value=2, max_value=4))
    events = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=3, max_value=7))):
        if events and draw(st.booleans()) and draw(st.booleans()):
            events.append(("flush",))
            continue
        chunk = []
        for _ in range(draw(st.integers(1, 12))):
            key = draw(st.sampled_from(KEYS))
            x = float(draw(st.integers(-3, 3)))
            if key == "poison" and draw(st.booleans()):
                x = 2 * POISON_LEVEL
            chunk.append({"time": t, "sym": key, "x": x})
            t += 0.25
        events.append(("ingest", tuple(chunk)))
    events.append(("flush",))
    return num_workers, events


def drive(client, events, mode):
    client.register("q", QUERY, fit=FIT)
    kwargs = (
        {"mode": "discrete"} if mode == "discrete"
        else {"error_bound": BOUND}
    )
    sub = client.subscribe("q", **kwargs)
    for event in events:
        if event[0] == "flush":
            client.flush()
        else:
            client.ingest(STREAM, list(event[1]))
    client.flush()
    return client.drain_results(sub["subscription"])


def run_single(events, mode):
    _reset()
    config = ServerConfig(breaker=_breaker())
    with ServerThread(config) as handle:
        with PulseClient("127.0.0.1", handle.port) as client:
            client.connect()
            return drive(client, events, mode)


def run_fleet(num_workers, events, mode):
    _reset()
    handles = []
    router = None
    try:
        for _ in range(num_workers):
            handles.append(
                ServerThread(ServerConfig(breaker=_breaker())).start()
            )
        addrs = tuple(("127.0.0.1", h.port) for h in handles)
        router = PulseRouter(RouterConfig(workers=addrs)).start()
        with PulseClient("127.0.0.1", router.port) as client:
            client.connect()
            return drive(client, events, mode)
    finally:
        if router is not None:
            router.stop()
        for handle in handles:
            handle.stop()


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@given(script=scripts())
@settings(max_examples=8, deadline=None)
def test_merged_stream_matches_single_server(mode, script):
    num_workers, events = script
    previous = set_fault_hook(_content_fault)
    try:
        single = run_single(events, mode)
        merged = run_fleet(num_workers, events, mode)
    finally:
        set_fault_hook(previous)
    assert merged == single  # bit-exact: same values, same order
