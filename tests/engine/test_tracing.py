"""The observability layer: spans, round-trips, and the zero-cost pin.

Three contracts under test:

* **Structure** — every emitted trace round-trips through JSONL into a
  valid span tree: unique ids, resolvable parents, ``t_end >= t_start``,
  and the nesting the engine promises (solve under operator under
  arrival under round; root_query under solve).
* **Zero cost when disabled** — a disabled run makes literally zero
  instrumentation calls: no ``Histogram.observe``, no tracer method, no
  clock read in the scheduler's fast path.  These tests monkeypatch the
  instrumentation entry points to raise, then run real workloads.
* **Watchdog** — the slow-solve budget check counts and flags without
  ever interfering with processing.
"""

import json

import pytest

from repro.core import batch_solver, equation_system, plan
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.engine import metrics, tracing
from repro.engine.metrics import reset_counters
from repro.engine.resilience import SlowSolveWatchdog
from repro.engine.scheduler import QueryRuntime
from repro.engine.tracing import (
    SPAN_KINDS,
    Span,
    TraceError,
    Tracer,
    ancestors,
    build_span_tree,
    read_trace,
)
from repro.query import parse_query, plan_query


def _events(rows_per_key=3, keys=("a", "b")):
    events = []
    for k in keys:
        for i in range(rows_per_key):
            start = 1.5 * i
            for stream, attr in (("ticks", "x"), ("quotes", "y")):
                events.append(
                    (stream,
                     Segment((k,), start, start + 2.0,
                             {attr: Polynomial([0.5 * i - 1.0, 1.0])},
                             constants={"sym": k}))
                )
    return events


def _run_runtime(budget_s=None, events=None):
    reset_counters()
    rt = QueryRuntime(slow_solve_budget_s=budget_s)
    rt.register(
        "filt",
        to_continuous_plan(
            plan_query(parse_query("select * from ticks where x > 0"))
        ),
    )
    rt.register(
        "join",
        to_continuous_plan(
            plan_query(parse_query(
                "select from ticks T join quotes Q "
                "on (T.sym = Q.sym and T.x > Q.y)"
            ))
        ),
    )
    for stream, seg in events or _events():
        rt.enqueue(stream, seg)
    rt.run_until_idle()
    return [rt.outputs(n) for n in rt.query_names], rt


# ----------------------------------------------------------------------
# Span / Tracer primitives
# ----------------------------------------------------------------------
class TestSpanRecord:
    def test_round_trip(self):
        s = Span(3, 1, "solve_tasks", "solve", 0.5, 0.75,
                 {"tasks": 4, "key": ("a", 1)})
        rec = json.loads(json.dumps(s.to_record()))
        back = Span.from_record(rec)
        assert (back.span_id, back.parent_id) == (3, 1)
        assert back.duration == pytest.approx(0.25)
        # Tuples coerce to lists at serialization time.
        assert back.attrs == {"tasks": 4, "key": ["a", 1]}

    def test_unfinished_span_has_no_duration(self):
        assert Span(1, None, "x", "solve", 0.0).duration is None

    def test_malformed_record_raises(self):
        with pytest.raises(TraceError):
            Span.from_record({"span_id": "not-an-int-at-all"})

    def test_attr_coercion_falls_back_to_repr(self):
        s = Span(1, None, "x", "solve", 0.0, 1.0,
                 {"poly": Polynomial([1.0, 2.0])})
        rec = s.to_record()
        json.dumps(rec)  # must be serializable
        assert "poly" in rec["attrs"]


class TestTracer:
    def test_stack_parents_and_nesting(self):
        records = []
        t = Tracer(records)
        outer = t.start("round", "round")
        inner = t.start("arrival", "arrival")
        t.event("emit", "emit", outputs=2)
        t.finish(inner)
        t.finish(outer)
        t.flush()
        by_name = {r["name"]: r for r in records}
        assert by_name["round"]["parent_id"] is None
        assert by_name["arrival"]["parent_id"] == by_name["round"]["span_id"]
        assert by_name["emit"]["parent_id"] == by_name["arrival"]["span_id"]
        assert by_name["emit"]["t_start"] == by_name["emit"]["t_end"]

    def test_buffer_drains_at_limit(self):
        records = []
        t = Tracer(records, buffer_limit=4)
        for _ in range(3):
            t.finish(t.start("s", "solve"))
        assert records == []  # still buffered
        t.finish(t.start("s", "solve"))
        assert len(records) == 4  # limit reached -> drained

    def test_file_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path)
        t.finish(t.start("s", "solve", n=1))
        t.close()
        spans = read_trace(path)
        assert [s.name for s in spans] == ["s"]

    def test_mismatched_finish_collapses_gracefully(self):
        records = []
        t = Tracer(records)
        outer = t.start("a", "round")
        inner = t.start("b", "arrival")
        t.finish(outer)  # out of order: collapses past the inner span
        follow = t.start("c", "round")
        assert follow.parent_id is None  # stack did not corrupt
        t.finish(follow)
        t.finish(inner)
        t.flush()
        assert len(records) == 3


class TestReplay:
    def test_read_trace_skips_blank_lines(self, tmp_path):
        p = tmp_path / "t.jsonl"
        rec = Span(1, None, "a", "round", 0.0, 1.0).to_record()
        p.write_text(json.dumps(rec) + "\n\n")
        assert len(read_trace(p)) == 1

    def test_read_trace_reports_line_numbers(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("{not json}\n")
        with pytest.raises(TraceError, match=":1:"):
            read_trace(p)

    def test_tree_rejects_duplicate_ids(self):
        spans = [Span(1, None, "a", "round", 0.0, 1.0),
                 Span(1, None, "b", "round", 0.0, 1.0)]
        with pytest.raises(TraceError, match="duplicate"):
            build_span_tree(spans)

    def test_tree_rejects_unknown_parent(self):
        with pytest.raises(TraceError, match="unknown parent"):
            build_span_tree([Span(2, 99, "a", "solve", 0.0, 1.0)])

    def test_tree_rejects_negative_duration(self):
        with pytest.raises(TraceError, match="ends before"):
            build_span_tree([Span(1, None, "a", "solve", 2.0, 1.0)])

    def test_ancestors_chain(self):
        spans = [
            Span(1, None, "round", "round", 0.0, 9.0),
            Span(2, 1, "arrival", "arrival", 1.0, 8.0),
            Span(3, 2, "solve", "solve", 2.0, 3.0),
        ]
        chain = ancestors(spans[2], spans)
        assert [s.name for s in chain] == ["arrival", "round"]


# ----------------------------------------------------------------------
# end-to-end: a real run round-trips into a valid, nested span tree
# ----------------------------------------------------------------------
class TestEndToEndTrace:
    @pytest.fixture(autouse=True)
    def _teardown(self):
        yield
        tracing.disable_observability()

    def _traced_run(self, tmp_path, budget_s=None):
        path = tmp_path / "trace.jsonl"
        with tracing.observability(str(path)):
            _run_runtime(budget_s=budget_s)
        return read_trace(path)

    def test_serial_trace_builds_valid_tree(self, tmp_path):
        spans = self._traced_run(tmp_path)
        roots, children = build_span_tree(spans)
        assert roots and all(r.kind == "round" for r in roots)
        assert {s.kind for s in spans} <= set(SPAN_KINDS)
        by_id = {s.span_id: s for s in spans}
        # Every solve span nests under an operator (or a solve above
        # it, for the batch layer); every operator under an arrival.
        operator = [s for s in spans if s.kind == "operator"]
        assert operator
        for s in operator:
            assert by_id[s.parent_id].kind == "arrival"
        solves = [s for s in spans if s.kind == "solve"]
        assert solves
        for s in solves:
            assert by_id[s.parent_id].kind in ("operator", "solve")
        for s in spans:
            if s.kind == "root_query":
                assert by_id[s.parent_id].kind == "solve"

    def test_every_arrival_gets_an_emit_event(self, tmp_path):
        spans = self._traced_run(tmp_path)
        arrivals = [s for s in spans if s.kind == "arrival"]
        emits = [s for s in spans if s.kind == "emit"]
        assert len(arrivals) == len(emits) > 0
        arrival_ids = {s.span_id for s in arrivals}
        assert all(e.parent_id in arrival_ids for e in emits)

    def test_histograms_filled_after_flush(self, tmp_path):
        self._traced_run(tmp_path)
        snap = metrics.histogram_snapshot("solver.")
        assert snap["solver.solve_tasks_seconds"]["count"] > 0
        assert snap["solver.system_solve_seconds"]["count"] > 0

    def test_metrics_only_mode_has_no_tracer(self):
        reset_counters()
        with tracing.observability(None) as tracer:
            assert tracer is None
            _run_runtime()
            assert tracing.observability_enabled()
        snap = metrics.histogram_snapshot("solver.")
        assert snap["solver.solve_tasks_seconds"]["count"] > 0

    def test_enable_twice_never_stacks(self, tmp_path):
        t1 = tracing.enable_observability(str(tmp_path / "a.jsonl"))
        t2 = tracing.enable_observability(str(tmp_path / "b.jsonl"))
        assert t1 is not t2
        assert tracing.current_tracer() is t2
        hook = batch_solver.solver_instrumentation()[0]
        # The installed hook belongs to the second enable: its spans go
        # to t2, so the first enable's state is fully torn down.
        assert hook.tracer is t2
        tracing.disable_observability()
        assert batch_solver.solver_instrumentation() == (None, None, None, None)

    def test_reentrant_site_falls_back_to_allocated_cm(self):
        records = []
        tracer = Tracer(records)
        site = tracing._TimedSpanSite(tracer, None, "s", "solve", "n")
        with site(1):
            inner = site(2)  # busy -> allocated per-call manager
            assert isinstance(inner, tracing._TimedSpanCM)
            with inner:
                pass
        tracer.flush()
        assert len(records) == 2
        by_n = {r["attrs"]["n"]: r for r in records}
        assert by_n[2]["parent_id"] == by_n[1]["span_id"]


# ----------------------------------------------------------------------
# the zero-cost pin: a disabled run makes no instrumentation calls
# ----------------------------------------------------------------------
class TestZeroCostWhenDisabled:
    def test_hooks_are_none_after_disable(self):
        tracing.enable_observability(None)
        tracing.disable_observability()
        assert batch_solver.solver_instrumentation() == (None, None, None, None)
        assert equation_system.system_instrumentation() == (None, None)
        assert plan.operator_trace() is None

    def test_disabled_run_makes_zero_instrumentation_calls(
        self, monkeypatch
    ):
        assert not tracing.observability_enabled()

        def forbid(*a, **k):
            raise AssertionError("instrumentation call on a disabled run")

        monkeypatch.setattr(metrics.Histogram, "observe", forbid)
        monkeypatch.setattr(Tracer, "start", forbid)
        monkeypatch.setattr(Tracer, "finish", forbid)
        monkeypatch.setattr(Tracer, "event", forbid)
        monkeypatch.setattr(tracing._TimedSpanSite, "__enter__", forbid)
        monkeypatch.setattr(tracing._OperatorSite, "__enter__", forbid)
        outputs, _ = _run_runtime()
        assert any(len(o) for o in outputs)

    def test_scheduler_fast_path_reads_no_clock(self, monkeypatch):
        import repro.engine.scheduler as sched

        class NoClock:
            def perf_counter(self):
                raise AssertionError("clock read on the disabled path")

        real_step = QueryRuntime.step
        calls = {"n": 0}

        def counting_step(self, *args, **kwargs):
            calls["n"] += 1
            return real_step(self, *args, **kwargs)

        monkeypatch.setattr(QueryRuntime, "step", counting_step)
        monkeypatch.setattr(sched, "time", NoClock())
        outputs, _ = _run_runtime()
        assert calls["n"] > 0 and any(len(o) for o in outputs)


# ----------------------------------------------------------------------
# the slow-solve watchdog
# ----------------------------------------------------------------------
class TestSlowSolveWatchdog:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            SlowSolveWatchdog(0.0)
        with pytest.raises(ValueError):
            SlowSolveWatchdog(-1.0)

    def test_counts_and_flags(self):
        reset_counters()
        wd = SlowSolveWatchdog(0.01)
        assert wd.check("q", ("k",), 0.005) is False
        assert wd.check("q", ("k",), 0.02) is True
        assert wd.items_checked == 2
        assert wd.slow_solves == 1
        snap = metrics.counter_snapshot("resilience.watchdog")
        assert snap["resilience.watchdog.items_checked"] == 2
        assert snap["resilience.watchdog.slow_solves"] == 1

    def test_runtime_surfaces_watchdog_stats(self):
        _, rt = _run_runtime(budget_s=1e-12)  # everything is "slow"
        stats = rt.resilience_stats()["watchdog"]
        assert stats["items_checked"] > 0
        assert stats["slow_solves"] == stats["items_checked"]

    def test_watchdog_events_appear_in_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing.observability(str(path)):
            _run_runtime(budget_s=1e-12)
        spans = read_trace(path)
        dogs = [s for s in spans if s.kind == "watchdog"]
        assert dogs
        assert all(s.attrs["seconds"] >= 0 for s in dogs)
