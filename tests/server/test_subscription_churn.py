"""Subscription churn soak: 1k subscribe→ingest→unsubscribe cycles.

The shared-plan runtime's cleanup contract: the *last* unsubscribe
tears the shared graph down completely — runtime registration, operator
fold memos, fitting builders — so unbounded subscription churn leaves the
process exactly where it started.  Asserted two ways:

* the ``subs.active`` / ``subs.shared_graphs`` gauges read zero (and
  the bridge's stats tables are empty) after the soak, and
* ``gc``-level object counts for the leak-prone classes
  (``_SharedGraph``, scheduler ``_Registration``, the operators'
  ``LruMemo`` fold memos, ``StreamModelBuilder``) return to their pre-churn baseline.

Each cycle also exercises the retarget machinery (a tight and a loose
subscriber join, the tight one leaves first → one relax re-solve per
cycle), so the soak covers the full tighten/relax/teardown path, not
just the no-op join.
"""

import gc

from repro.core.delta import LruMemo
from repro.engine.metrics import get_counter, get_gauge
from repro.engine.scheduler import _Registration
from repro.engine.tuples import ColumnBatch, StreamTuple
from repro.fitting.model_builder import StreamModelBuilder
from repro.server.bridge import EngineBridge, FitSpec, _SharedGraph

SQL = "select * from objects where x > 0"
STREAM = "objects"
FIT = FitSpec(attrs=("x",), key_fields=("id",))
CYCLES = 1000
#: Classes whose live-instance count must return to baseline.
TRACKED = (_SharedGraph, _Registration, LruMemo, StreamModelBuilder)


def _live(cls) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_churn_soak_leaves_zero_residue():
    bridge = EngineBridge()
    bridge.start()
    try:
        bridge.register_query("q", SQL, FIT).result()
        baseline = {cls: _live(cls) for cls in TRACKED}
        active = get_gauge("subs.active")
        graphs = get_gauge("subs.shared_graphs")
        retightens = get_counter("subs.retighten_resolves")
        retightens_before = retightens.value
        t = 0.0
        for i in range(CYCLES):
            tight_id, loose_id = 2 * i + 1, 2 * i + 2
            tight = bridge.subscribe(
                tight_id, "q", "continuous", 0.01
            ).result()
            loose = bridge.subscribe(
                loose_id, "q", "continuous", 1.0
            ).result()
            assert tight["graph"] == loose["graph"]
            assert active.value == 2
            assert graphs.value == 1
            # a zig-zag no line fits at 0.01: forces real segment cuts
            batch = [
                StreamTuple(
                    {"time": t + j * 0.1, "id": "k", "x": float(5 * (j % 2))}
                )
                for j in range(4)
            ]
            t += 1.0
            ack = bridge.ingest(
                None, STREAM, ColumnBatch.from_rows(batch)
            ).result()
            assert ack["accepted"] == 4
            if i % 100 == 0:
                bridge.flush().result()
            # tightest leaves first: one relax re-solve per cycle
            bridge.unsubscribe(tight_id).result()
            # last leaves: full teardown
            bridge.unsubscribe(loose_id).result()
            assert active.value == 0
            assert graphs.value == 0
        assert retightens.value - retightens_before == CYCLES
        stats = bridge.stats().result()
        assert stats["graphs"] == {}
        assert stats["subscriptions"] == {}
        assert stats["total_pending"] == 0
        assert not stats["queue_depths"]
        for cls in TRACKED:
            assert _live(cls) <= baseline[cls], (
                f"{cls.__name__} instances leaked across churn"
            )
    finally:
        bridge.stop()


def test_discrete_churn_also_tears_down():
    """Discrete subscriptions (no bounds, no builders) follow the same
    last-out-tears-down rule."""
    bridge = EngineBridge()
    bridge.start()
    try:
        bridge.register_query("q", SQL, None).result()
        graphs = get_gauge("subs.shared_graphs")
        for i in range(50):
            bridge.subscribe(i + 1, "q", "discrete", None).result()
            ack = bridge.ingest(
                None,
                STREAM,
                ColumnBatch.from_rows(
                    [StreamTuple({"time": float(i), "id": "k", "x": 1.0})]
                ),
            ).result()
            assert ack["accepted"] == 1
            bridge.unsubscribe(i + 1).result()
            assert graphs.value == 0
        stats = bridge.stats().result()
        assert stats["graphs"] == {}
    finally:
        bridge.stop()
