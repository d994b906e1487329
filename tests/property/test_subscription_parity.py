"""Shared-graph fan-out parity: the multi-subscription bit-exactness gate.

Hypothesis drives randomized subscription scripts — bound sets drawn
from a tight-to-loose ladder, subscribe/unsubscribe interleavings that
tighten, relax and tear down the shared graph mid-stream, ingest chunks
(including poisoned content that faults the solver and trips the
circuit breaker), and flush barriers — through two executors:

* **shared** — one :class:`~repro.server.bridge.EngineBridge` where all
  subscriptions to the query share ONE operator graph solved at the
  tightest currently-subscribed bound, and

* **oracle** — a dedicated per-(query, bound-schedule)
  :class:`~repro.engine.scheduler.QueryRuntime` plus its own fitting
  builder, stepped through the *same* tightest-bound schedule (seal at
  each retarget, tear down when the last subscriber leaves) with
  deliveries assigned to exactly the subscriptions live at each point.

The contract under test:

* **Per-subscriber outputs are bit-exact** between the two, compared by
  value (key, time range, model coefficients, constants) — seg_ids and
  lineage are excluded because runs allocate ids independently.
* **Cursors are honest**: every delivery's reported cursor equals the
  number of results that subscription had already received.
* **Faults stay topology-independent**: poisoned content faults by
  value, so the breaker quarantines the same keys whether one graph
  serves five subscribers or five graphs serve one each.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch_solver import set_fault_hook
from repro.core.errors import SolverError
from repro.core.transform import to_continuous_plan
from repro.engine.metrics import reset_counters
from repro.engine.resilience import BreakerConfig
from repro.engine.scheduler import QueryRuntime
from repro.engine.tuples import ColumnBatch, StreamTuple
from repro.fitting.model_builder import StreamModelBuilder
from repro.query import parse_query, plan_query
from repro.server.bridge import EngineBridge, FitSpec

SQL = "select * from ticks where x > 0"
STREAM = "ticks"
FIT = FitSpec(attrs=("x",), key_fields=("sym",))
#: Tight-to-loose ladder the scripts draw bounds from.
BOUNDS = (0.01, 0.05, 0.2, 1.0)
#: Content marker: a fitted polynomial with any coefficient this large
#: faults in the solver (value-addressed, so it fires identically in
#: the shared and oracle topologies).
POISON_LEVEL = 500.0


def _content_fault(task):
    poly = task[0]
    if max(abs(c) for c in poly.coeffs) >= POISON_LEVEL:
        raise SolverError("poisoned content marker")
    return task


def _breaker():
    return BreakerConfig(failure_threshold=2, backoff=10_000)


@st.composite
def scripts(draw):
    """A subscription/ingest interleaving with a monotone clock."""
    events = []
    t = 0.0
    n = draw(st.integers(min_value=6, max_value=16))
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ("sub", "sub", "ingest", "ingest", "ingest", "unsub", "flush")
            )
        )
        if kind == "sub":
            events.append(("sub", draw(st.sampled_from(BOUNDS))))
        elif kind == "unsub":
            events.append(("unsub", draw(st.integers(0, 7))))
        elif kind == "flush":
            events.append(("flush",))
        else:
            chunk = []
            for _ in range(draw(st.integers(1, 5))):
                key = draw(st.sampled_from(("a", "b", "poison")))
                x = float(draw(st.integers(-3, 3)))
                if key == "poison" and draw(st.booleans()):
                    x = 2 * POISON_LEVEL
                chunk.append({"time": t, "sym": key, "x": x})
                t += 0.25
            events.append(("ingest", tuple(chunk)))
    return events


def canon(outputs):
    """Value view of an output stream (no ids, no lineage)."""
    return [
        (
            s.key,
            s.t_start,
            s.t_end,
            {a: p.coeffs for a, p in sorted(s.models.items())},
            tuple(sorted(s.constants.items())),
        )
        for s in outputs
    ]


def _reset():
    reset_counters()


def run_shared(events):
    """The system under test: one bridge, one shared graph."""
    _reset()
    delivered: dict[int, list] = defaultdict(list)

    def on_outputs(subscribers, info, outputs):
        for sub_id, cursor in subscribers:
            # the cursor must equal what this subscription already has
            assert cursor == len(delivered[sub_id])
            delivered[sub_id].extend(outputs)

    bridge = EngineBridge(
        {"breaker": _breaker()}, on_outputs=on_outputs
    )
    bridge.start()
    try:
        bridge.register_query("q", SQL, FIT).result()
        next_id = 1
        active: list[int] = []
        for ev in events:
            if ev[0] == "sub":
                bridge.subscribe(
                    next_id, "q", "continuous", ev[1]
                ).result()
                active.append(next_id)
                next_id += 1
            elif ev[0] == "unsub":
                if not active:
                    continue
                sid = active.pop(ev[1] % len(active))
                bridge.unsubscribe(sid).result()
            elif ev[0] == "flush":
                bridge.flush().result()
            else:
                bridge.ingest(
                    None, STREAM, ColumnBatch.from_rows(ev[1])
                ).result()
    finally:
        bridge.stop()
    return {sid: canon(outs) for sid, outs in delivered.items()}


def run_oracle(events):
    """Dedicated builder + runtime following the tightest-bound
    schedule, with per-point delivery bookkeeping."""
    _reset()
    delivered: dict[int, list] = defaultdict(list)
    planned = plan_query(parse_query(SQL))
    rt = None
    builder = None
    active: list[tuple[int, float]] = []
    next_id = 1

    def deliver():
        rt.run_until_idle()
        outs = rt.outputs("q")
        for sid, _bound in active:
            delivered[sid].extend(outs)

    def retarget(bound):
        for seg in builder.retarget(bound):
            rt.enqueue(STREAM, seg)
        deliver()

    for ev in events:
        if ev[0] == "sub":
            bound = ev[1]
            if rt is None:
                rt = QueryRuntime(breaker=_breaker())
                rt.register("q", to_continuous_plan(planned))
                builder = StreamModelBuilder(
                    FIT.attrs,
                    bound,
                    key_fields=FIT.key_fields,
                    constants=FIT.effective_constants,
                )
            elif bound < builder.tolerance:
                # seal at the old bound for the existing subs,
                # then admit the tighter newcomer
                retarget(bound)
            active.append((next_id, bound))
            next_id += 1
        elif ev[0] == "unsub":
            if not active:
                continue
            _sid, bound = active.pop(ev[1] % len(active))
            if not active:
                rt = None
                builder = None
            elif bound == builder.tolerance:
                remaining = min(b for _s, b in active)
                if remaining != builder.tolerance:
                    retarget(remaining)
        elif ev[0] == "flush":
            if rt is not None:
                for seg in builder.finish():
                    rt.enqueue(STREAM, seg)
                deliver()
        else:
            if rt is None:
                continue  # no consumer: the bridge drops these too
            for d in ev[1]:
                for seg in builder.add(StreamTuple(d)):
                    rt.enqueue(STREAM, seg)
            deliver()
    return {sid: canon(outs) for sid, outs in delivered.items()}


@given(events=scripts())
@settings(max_examples=25, deadline=None)
def test_shared_graph_matches_dedicated_oracle(events):
    previous = set_fault_hook(_content_fault)
    try:
        shared = run_shared(events)
        oracle = run_oracle(events)
    finally:
        set_fault_hook(previous)
    # every subscription matches its oracle, delivery for delivery
    for sid in set(shared) | set(oracle):
        assert shared.get(sid, []) == oracle.get(sid, [])
