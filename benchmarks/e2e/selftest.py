"""Checks of the benchmark's own arithmetic.  No server, under 10 s.

    python benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(loadgen.SRC))

import spans  # noqa: E402

#: sha256 of each generator's columns for seed 11, 2000 tuples.  A change
#: here means every recorded baseline describes different input.
INPUT_DIGESTS = {
    "smooth_objects":
        "ddf7aab1e50ba216a786477c78f137da662244984bd146ff1d3899fbb2e60568",
    "trades":
        "23e3789bb14afa1de24666b780c2902141620faa9fd100f9daa589410cb3cdbd",
    "vessels":
        "b8ddfa8e99cd35a3aea5c25704b5e87d92d404b0881e9acf969b0dd819c8f3f1",
}


def span(id, layer, thread, start, end, parent, calls=1, busy=None):
    return {"id": id, "layer": layer, "name": f"{layer}#{id}",
            "thread": thread, "start": start, "end": end, "parent": parent,
            "calls": calls, "busy": end - start if busy is None else busy}


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_self_time_nested():
    """Same-thread children come off their parent, whole."""
    records = [
        span(1, "client", 0, 0.0, 10.0, 0),
        span(2, "bridge", 1, 1.0, 9.0, 1),        # cross-thread child of root
        span(3, "scheduler", 1, 2.0, 8.0, 2),
        span(4, "operators", 1, 3.0, 5.0, 3),
        span(5, "operators", 1, 5.0, 6.0, 3),
    ]
    out = spans.attribute(records)
    assert close(out["layers"]["bridge"], 2.0), out
    assert close(out["layers"]["scheduler"], 3.0), out
    assert close(out["layers"]["operators"], 3.0), out
    assert close(out["unattributed"], 2.0), out
    assert close(sum(out["layers"].values()) + out["unattributed"],
                 out["root_total"])


def test_self_time_overlapping_threads():
    """Two threads busy at once inside one request split the overlap;
    the sum still equals the root exactly."""
    records = [
        span(1, "client", 0, 0.0, 10.0, 0),
        span(2, "bridge", 1, 1.0, 7.0, 1),     # engine thread
        span(3, "protocol", 2, 5.0, 9.0, 1),   # loop thread, overlaps 5..7
        span(4, "client", 0, 8.0, 9.5, 1),     # generator decode, 8..9 overlaps
    ]
    out = spans.attribute(records)
    # bridge: 4 alone + 2/2; protocol: 5..7 halved, 7..8 alone, 8..9 halved
    assert close(out["layers"]["bridge"], 5.0), out
    assert close(out["layers"]["protocol"], 1.0 + 1.0 + 0.5), out
    assert close(out["layers"]["client"], 0.5 + 0.5), out
    assert close(out["unattributed"], 1.0 + 0.5), out
    assert close(sum(out["layers"].values()) + out["unattributed"], 10.0)


def test_self_time_scales_subtree_and_leaf_gaps():
    """An overlapped top scales its whole subtree; a coalesced leaf
    record gives the gaps between its calls back to unattributed."""
    records = [
        span(1, "client", 0, 0.0, 8.0, 0),
        span(2, "bridge", 1, 0.0, 4.0, 1),
        span(3, "fitting", 1, 1.0, 3.0, 2, calls=50, busy=1.0),  # nested leaf
        span(4, "protocol", 2, 2.0, 6.0, 1, calls=100, busy=2.0),  # top leaf
    ]
    out = spans.attribute(records)
    # bridge top: 0..2 alone, 2..4 halved -> 3 of 4 -> share 0.75
    assert close(out["layers"]["bridge"], (4.0 - 1.0) * 0.75), out
    assert close(out["layers"]["fitting"], 1.0 * 0.75), out
    # protocol top: 2..4 halved, 4..6 alone -> 3 of 4; busy for half of it
    assert close(out["layers"]["protocol"], 2.0 * 0.75), out
    assert close(out["unattributed"], 2.0 + 2.0 * 0.75), out
    assert close(sum(out["layers"].values()) + out["unattributed"], 8.0)


def test_recorder_round_trip():
    """Real wrappers on real threads: nesting, leaf coalescing, the
    submit hand-off, and calls outside any request."""
    import threading
    import time

    recorder = spans.Recorder()

    def work(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return [1, 2]

    leaf = recorder.wrap(spans.Entry("m:Builder.add", "fitting", "leaf",
                                     measure=("ret",)), work)

    def command():
        for _ in range(5):
            leaf(0.001)
        return "done"

    inbox = []

    class Bridge:
        def submit(self, fn):
            thread = threading.Thread(target=lambda: inbox.append(fn()))
            thread.start()
            thread.join()

    submit = recorder.wrap(
        spans.Entry("m:Bridge.submit", "server.bridge", "submit"),
        Bridge.submit)
    root = recorder.wrap(
        spans.Entry("m:Client.ingest", "server.client", "root"),
        lambda: submit(Bridge(), command))
    leaf(0.001)  # no request in flight: not recorded
    recorder.active = True
    root()
    recorder.active = False
    records = recorder.records()
    out = spans.attribute(records)
    assert inbox == ["done"]
    assert out["roots"] == 1
    assert recorder.stats[0].calls == 5 and recorder.stats[0].amount == 10
    by_layer = {r["layer"]: r for r in records}
    assert by_layer["fitting"]["calls"] == 5
    assert by_layer["fitting"]["parent"] == by_layer["server.bridge"]["id"]
    assert out["layers"]["fitting"] >= 0.005
    assert abs(sum(out["layers"].values()) + out["unattributed"]
               - out["root_total"]) < 1e-9
    assert recorder.queue_waits == 1


def test_percentile_needs_ten_beyond():
    samples = [float(i) for i in range(200)]
    assert loadgen.supported_percentile(samples, 95.0) is None  # 9 beyond
    samples.append(200.0)
    assert loadgen.supported_percentile(samples, 95.0) == 190.0  # 10 beyond
    assert loadgen.supported_percentile(samples, 99.0) is None
    assert loadgen.supported_percentile([1.0] * 83, 90.0) is None


def test_latency_counts_from_due_time():
    """A 25 ms stall delays the next two sends; both are charged from
    when they were due, and the generator's lateness is reported."""
    dues = [0.000, 0.010, 0.020, 0.030]
    starts = [0.000, 0.028, 0.031, 0.034]   # batch 0 acked at 0.028
    acks = [0.028, 0.031, 0.034, 0.037]
    latencies, lateness = loadgen.due_latencies(dues, starts, acks)
    assert [round(x, 3) for x in latencies] == [0.028, 0.021, 0.014, 0.007]
    assert [round(x, 3) for x in lateness] == [0.0, 0.018, 0.011, 0.004]


def test_inputs_deterministic():
    for name, digest in INPUT_DIGESTS.items():
        generate = getattr(workloads, name)
        rows, first = generate(11, 2000)
        again, second = generate(11, 2000)
        assert rows == again and first == second, name
        assert generate(12, 2000)[1] != first, name
        assert first == digest, f"{name}: input digest moved to {first}"
        assert len(rows) == 2000
        times = [r["time"] for r in rows]
        assert times == sorted(times), name
    short, _ = workloads.trades(11, 700)
    longer, _ = workloads.trades(11, 2000)
    assert longer[:700] == short, "trades must be prefix-stable"


def test_sizes_are_constants():
    for w in workloads.WORKLOADS.values():
        paced, saturate = w.sizes(10)
        assert paced % w.paced_batch == 0 and saturate % w.saturate_batch == 0
        assert paced == w.paced_rate * 5 // w.paced_batch * w.paced_batch
        assert w.offsets(10) == (
            1 + w.warmup, 1 + w.warmup + paced, 1 + w.warmup + paced + saturate)
        assert w.offsets(10, paced=False)[2] == 1 + w.warmup + saturate
        if w.mode == "continuous":
            assert w.error_bound is not None, w.name


def test_entry_points_resolve():
    recorder = spans.Recorder()
    patch = spans.Patch(recorder)
    try:
        assert patch.missing == [], patch.missing
        operators = [e.name for e in recorder.entries
                     if e.layer == "core.operators"]
        assert "ContinuousJoin.process" in operators, operators
        from repro.server import bridge, protocol

        assert hasattr(protocol.encode, "__wrapped__")
        # a from-import copy in another module is patched too
        assert hasattr(bridge.serialize_results, "__wrapped__")
    finally:
        patch.undo()
    from repro.server import bridge, protocol

    assert not hasattr(protocol.encode, "__wrapped__")
    assert not hasattr(bridge.serialize_results, "__wrapped__")


def test_missing_entry_point_degrades():
    table = spans.ENTRY_POINTS + (
        spans.Entry("repro.core.delta:LruMemo.gone", "core.solve_cache"),
        spans.Entry("repro.no_such_module:f", "engine.wal"),
    )
    recorder = spans.Recorder()
    patch = spans.Patch(recorder, table, with_operators=False)
    patch.undo()
    assert patch.missing == ["repro.core.delta:LruMemo.gone",
                             "repro.no_such_module:f"]
    budget = {"layers": {}, "names": {}, "unattributed": 0.0,
              "root_total": 1.0, "roots": 1}
    report = spans.layer_report(
        recorder, patch, budget, 1000,
        {"runs": 0, "spread": [], "counters": {}, "measured_results": 10})
    assert report["layers"]["core.solve_cache"] is None
    assert report["layers"]["engine.wal"] is None
    assert report["layers"]["fitting"] is not None
    flat = spans.flat_metrics({**report, "trace_overhead_share": 0.0})
    assert flat["engine.wal.calls"]["value"] == 0
    assert set(flat) == set(spans.PER_LAYER_UNITS)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [95.0, 96.0, 94.0, 95.5],
                           "higher", 0.10) == "within"
    assert compare.verdict(steady, [85.0, 86.0, 84.0, 85.5],
                           "higher", 0.10) == "worse"
    assert compare.verdict(steady, [115.0, 116.0, 114.0, 115.5],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady, [60.0, 140.0, 80.0, 120.0],
                           "lower", 0.10) == "unresolved"
    assert compare.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_manifest_matches_code():
    import run

    manifest = json.loads(compare.MANIFEST.read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"]
            for m in manifest["per_layer"]} == spans.PER_LAYER_UNITS
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
