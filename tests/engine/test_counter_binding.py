"""Hot-path counter binding: registry lookups happen once, at bind time,
never per solve or per arrival."""

from repro.core.equation_system import EquationSystem
from repro.core.expr import Attr, Const
from repro.core.polynomial import Polynomial
from repro.core.predicate import Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.engine.metrics import counter_snapshot, reset_counters
from repro.engine.scheduler import QueryRuntime
from repro.query import parse_query, plan_query


class TestCounterBinding:
    def test_row_solve_counter_not_resolved_per_event(self, monkeypatch):
        """Registry lookups must stay constant while solves scale."""
        import repro.core.equation_system as eqs
        from repro.engine import metrics

        lookups = []
        real = metrics.CounterRegistry.counter

        def counting(self, name):
            lookups.append(name)
            return real(self, name)

        monkeypatch.setattr(metrics.CounterRegistry, "counter", counting)
        monkeypatch.setattr(eqs, "_row_solve_counter", None)  # force rebind
        reset_counters("equation_system.row_solves")

        system = EquationSystem.from_predicate(
            Comparison(Attr("x"), Rel.GT, Const(1.0)),
            {"x": Polynomial([0.0, 1.0])}.__getitem__,
        )
        n = 64
        for i in range(n):
            system.solve(0.0, 2.0 + 0.001 * i)

        assert counter_snapshot("equation_system")[
            "equation_system.row_solves"
        ] == n
        # One bind for row_solves; the solve-cache handles bind once
        # too, so allow their one-time registration — but nothing may
        # scale with n.
        assert lookups.count("equation_system.row_solves") == 1
        assert len(lookups) <= 4

    def test_scheduler_binds_counters_at_construction(self, monkeypatch):
        from repro.engine import metrics

        lookups = []
        real = metrics.CounterRegistry.counter

        def counting(self, name):
            lookups.append(name)
            return real(self, name)

        rt = QueryRuntime()
        rt.register(
            "q",
            to_continuous_plan(
                plan_query(parse_query("select * from s where x > 0"))
            ),
        )
        monkeypatch.setattr(metrics.CounterRegistry, "counter", counting)
        runtime_lookups_before = [
            n for n in lookups if n.startswith("runtime.")
        ]
        for i in range(16):
            rt.enqueue(
                "s",
                Segment(("k",), float(i), i + 1.0, {"x": Polynomial([1.0])}),
            )
        rt.run_until_idle()
        # No runtime.* counter is re-resolved per event after __init__.
        assert [
            n for n in lookups if n.startswith("runtime.")
        ] == runtime_lookups_before
