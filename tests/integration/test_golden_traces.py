"""Golden-trace regression suite: the observability layer's lock.

Each scenario runs a fixed, fully deterministic workload through the
traced engine and compares the resulting span stream — **exactly** —
against a committed golden file in ``tests/golden/``.  The comparison
covers everything the engine controls (span ids, parent edges, names,
kinds, attributes, ordering) and drops only the wall-clock fields,
which are the one nondeterministic part of a trace.

Because span ids are allocated in execution order, these goldens pin
not just the *shape* of the instrumentation but the engine's entire
observable execution order: a change to operator cascade order, solve
batching, or span parenting shows up as a golden
diff.  That is the point — such changes must be deliberate.

After an intentional change, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_traces.py \
        --update-goldens

and commit the rewritten files.
"""

import json
from pathlib import Path

import pytest

from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.engine import tracing
from repro.engine.metrics import counter_snapshot, reset_counters
from repro.engine.scheduler import QueryRuntime
from repro.engine.tracing import TraceError, build_span_tree, read_trace
from repro.query import parse_query, plan_query

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Fields compared against the golden.  Wall-clock fields (``t_start``,
#: ``t_end``) are excluded — everything else must match exactly.
_STABLE_FIELDS = ("span_id", "parent_id", "name", "kind", "attrs")


def _trace_events():
    """A fixed two-stream workload: no RNG, pure literals."""
    events = []
    for k, bias in (("aapl", 0.0), ("ibm", 0.5)):
        for i in range(4):
            start = 1.25 * i
            events.append(
                ("ticks",
                 Segment((k,), start, start + 2.0,
                         {"x": Polynomial([bias - 1.0 + 0.5 * i, 1.0])},
                         constants={"sym": k}))
            )
            events.append(
                ("quotes",
                 Segment((k,), start, start + 2.0,
                         {"y": Polynomial([bias + 0.25 * i, -0.5])},
                         constants={"sym": k}))
            )
    return events


SCENARIOS = {
    "filter": "select * from ticks where x > 0",
    "join": (
        "select from ticks T join quotes Q "
        "on (T.sym = Q.sym and T.x > Q.y)"
    ),
    "aggregate": (
        "select sym, avg(x) as ax from ticks [size 4 advance 2] "
        "group by sym"
    ),
}


def run_traced_scenario(sql: str, trace_path) -> list[dict]:
    """Run one scenario's workload traced; return normalized records."""
    reset_counters()
    planned = plan_query(parse_query(sql))
    consumed = set(planned.stream_sources)
    with tracing.observability(str(trace_path)):
        rt = QueryRuntime()
        rt.register("q", to_continuous_plan(planned))
        for stream, seg in _trace_events():
            if stream in consumed:
                rt.enqueue(stream, seg)
        rt.run_until_idle()
    spans = read_trace(trace_path)
    build_span_tree(spans)  # every golden trace must be a valid tree
    return [normalize(s.to_record()) for s in spans]


def _assert_no_window_function_vanished():
    """Counters were reset when the scenario started: sum/avg must not
    have dropped a window-function piece into a sub-EPS hole."""
    assert counter_snapshot().get("aggregate.windows_skipped", 0) == 0


def normalize(record: dict) -> dict:
    return {f: record.get(f) for f in _STABLE_FIELDS}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trace_matches_golden(scenario, tmp_path, update_goldens):
    actual = run_traced_scenario(
        SCENARIOS[scenario], tmp_path / "trace.jsonl"
    )
    _assert_no_window_function_vanished()
    golden_path = GOLDEN_DIR / f"trace_{scenario}.json"
    if update_goldens:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(actual, indent=1) + "\n")
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; generate with "
        f"--update-goldens and commit it"
    )
    golden = json.loads(golden_path.read_text())
    assert actual == golden, (
        f"trace for scenario {scenario!r} diverged from "
        f"{golden_path.name}; if the change is intentional, rerun with "
        f"--update-goldens and commit the diff"
    )


MULTISUB_SQL = "select * from ticks where x > 0"


def _multisub_tuples():
    """Fixed literal tuples, no RNG: a zig-zag no line fits at 0.05."""
    values = [0.0, 1.0, 0.2, 1.4, 0.4, 1.8, 0.6, 2.2, 0.8, 2.6, 1.0, 3.0]
    return [
        {"time": 0.5 * i, "sym": "aapl", "x": v}
        for i, v in enumerate(values)
    ]


def run_multisub_scenario(trace_path):
    """Two bounds, one shared graph, driven through the bridge.

    A loose (0.2) subscriber joins first, then a tight (0.05) one —
    exactly one retighten, performed while the fitting builders are
    still empty, so the span stream stays fully deterministic.  Returns
    ``(normalized_spans_or_None, per_subscription_canonical_outputs)``.
    """
    import contextlib

    from repro.engine.tuples import ColumnBatch, StreamTuple
    from repro.server.bridge import EngineBridge, FitSpec

    reset_counters()
    delivered: dict[int, list] = {}

    def on_outputs(subscribers, info, outputs):
        for sub_id, _cursor in subscribers:
            delivered.setdefault(sub_id, []).extend(outputs)

    ctx = (
        tracing.observability(str(trace_path))
        if trace_path is not None
        else contextlib.nullcontext()
    )
    tuples = [StreamTuple(t) for t in _multisub_tuples()]
    with ctx:
        bridge = EngineBridge(on_outputs=on_outputs)
        bridge.start()
        try:
            bridge.register_query(
                "q", MULTISUB_SQL, FitSpec(attrs=("x",), key_fields=("sym",))
            ).result()
            bridge.subscribe(1, "q", "continuous", 0.2).result()
            bridge.subscribe(2, "q", "continuous", 0.05).result()
            for i in range(0, len(tuples), 4):
                bridge.ingest(
                    None, "ticks", ColumnBatch.from_rows(tuples[i : i + 4])
                ).result()
            bridge.flush().result()
        finally:
            bridge.stop()
    outputs = {
        sub_id: _canon_outputs(outs) for sub_id, outs in delivered.items()
    }
    if trace_path is None:
        return None, outputs
    spans = read_trace(trace_path)
    build_span_tree(spans)
    return [normalize(s.to_record()) for s in spans], outputs


def test_multisub_trace_matches_golden(tmp_path, update_goldens):
    """The multi-subscription fan-out golden: one shared graph, two
    bounds, per-subscriber emit events with cursors."""
    actual, delivered = run_multisub_scenario(tmp_path / "trace.jsonl")
    # the fan-out contract itself: both subscribers, identical streams
    assert set(delivered) == {1, 2}
    assert delivered[1] == delivered[2]
    assert len(delivered[1]) > 0
    _assert_no_window_function_vanished()
    golden_path = GOLDEN_DIR / "trace_multisub.json"
    if update_goldens:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(actual, indent=1) + "\n")
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; generate with "
        f"--update-goldens and commit it"
    )
    golden = json.loads(golden_path.read_text())
    assert actual == golden, (
        "multisub trace diverged from trace_multisub.json; if the "
        "change is intentional, rerun with --update-goldens and commit"
    )


def _canon_outputs(outputs):
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


def test_goldens_have_no_strays():
    """Every committed golden corresponds to a scenario (and exists)."""
    expected = {f"trace_{name}.json" for name in SCENARIOS} | {
        "trace_multisub.json"
    }
    present = {p.name for p in GOLDEN_DIR.glob("trace_*.json")}
    assert present == expected


class TestSuiteCatchesPerturbations:
    """Negative control: a perturbed trace must fail the comparison.

    A regression suite that cannot fail is decoration; these tests
    mutate a real trace the way plausible engine bugs would and assert
    the suite's own checks reject each mutation.
    """

    @pytest.fixture(scope="class")
    def filter_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("perturb")
        return run_traced_scenario(SCENARIOS["filter"], tmp / "trace.jsonl")

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(
            (GOLDEN_DIR / "trace_filter.json").read_text()
        )

    def test_reparented_span_detected(self, filter_run, golden):
        mutated = [dict(r) for r in filter_run]
        victim = next(
            r for r in mutated if r["parent_id"] is not None
        )
        victim["parent_id"] = None  # orphan an inner span
        assert mutated != golden

    def test_dropped_span_detected(self, filter_run, golden):
        mutated = [r for r in filter_run if r["kind"] != "emit"]
        assert len(mutated) < len(filter_run)
        assert mutated != golden

    def test_renamed_span_detected(self, filter_run, golden):
        mutated = [dict(r) for r in filter_run]
        mutated[0]["name"] = "renamed"
        assert mutated != golden

    def test_attr_change_detected(self, filter_run, golden):
        mutated = [dict(r) for r in filter_run]
        victim = next(r for r in mutated if r["attrs"])
        key = next(iter(victim["attrs"]))
        victim["attrs"] = {**victim["attrs"], key: "tampered"}
        assert mutated != golden

    def test_dangling_parent_fails_tree_validation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_traced_scenario(SCENARIOS["filter"], path)
        lines = path.read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        victim = next(r for r in recs if r["parent_id"] is not None)
        victim["parent_id"] = 10 ** 9  # points at a span never emitted
        from repro.engine.tracing import Span

        with pytest.raises(TraceError, match="unknown parent"):
            build_span_tree(Span.from_record(r) for r in recs)
