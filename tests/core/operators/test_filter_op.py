"""Tests for the continuous filter operator."""

import pytest

from repro.core.expr import Attr, Const
from repro.core.operators import ContinuousFilter
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment


def seg(lo, hi, key=("k",), constants=None, **models):
    return Segment(
        key=key,
        t_start=lo,
        t_end=hi,
        models={k: Polynomial(v) for k, v in models.items()},
        constants=constants or {},
    )


def pred(attr, rel, const):
    return Comparison(Attr(attr), rel, Const(const))


class TestFilter:
    def test_passes_whole_segment(self):
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        out = f.process(seg(0, 10, x=[5.0]))
        assert len(out) == 1
        assert (out[0].t_start, out[0].t_end) == (0, 10)

    def test_drops_whole_segment(self):
        f = ContinuousFilter(pred("x", Rel.LT, 0.0))
        assert f.process(seg(0, 10, x=[5.0])) == []

    def test_restricts_to_satisfying_range(self):
        # x = t - 5 > 0 on (5, 10).
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        out = f.process(seg(0, 10, x=[-5.0, 1.0]))
        assert len(out) == 1
        assert out[0].t_start == pytest.approx(5.0)
        assert out[0].t_end == pytest.approx(10.0)

    def test_equality_emits_point_segment(self):
        f = ContinuousFilter(pred("x", Rel.EQ, 0.0))
        out = f.process(seg(0, 10, x=[-5.0, 1.0]))
        assert len(out) == 1
        assert out[0].is_point
        assert out[0].contains_time(5.0)

    def test_quadratic_band_two_outputs(self):
        # x = (t-2)(t-8) < 0 on (2, 8); complement gives two ranges.
        poly = [16.0, -10.0, 1.0]
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        out = f.process(seg(0, 10, x=poly))
        assert len(out) == 2
        assert out[0].t_end == pytest.approx(2.0)
        assert out[1].t_start == pytest.approx(8.0)

    def test_output_preserves_models_and_lineage(self):
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        s = seg(0, 10, x=[-5.0, 1.0], y=[7.0])
        out = f.process(s)
        assert out[0].model("y") == Polynomial([7.0])
        assert out[0].lineage == s.lineage

    def test_discrete_only_predicate_short_circuits(self):
        f = ContinuousFilter(pred("tag", Rel.EQ, 3.0))
        s_match = seg(0, 10, constants={"tag": 3.0}, x=[1.0])
        s_miss = seg(0, 10, constants={"tag": 4.0}, x=[1.0])
        assert len(f.process(s_match)) == 1
        assert f.process(s_miss) == []
        assert f.systems_solved == 0  # never built an equation system

    def test_mixed_discrete_and_modeled(self):
        p = And(pred("tag", Rel.EQ, 1.0), pred("x", Rel.GT, 0.0))
        f = ContinuousFilter(p)
        s = seg(0, 10, constants={"tag": 1.0}, x=[-5.0, 1.0])
        out = f.process(s)
        assert len(out) == 1
        assert out[0].t_start == pytest.approx(5.0)
        # Wrong tag: equation system is never consulted.
        assert f.process(seg(0, 10, constants={"tag": 2.0}, x=[-5.0, 1.0])) == []

    def test_string_key_predicate(self):
        from repro.core.expr import Attr as A

        # symbol = 'IBM' with a string constant folded discretely: encode
        # the constant through a Const-like comparison using constants map.
        f = ContinuousFilter(
            Comparison(A("symbol"), Rel.EQ, A("wanted"))
        )
        s = seg(0, 1, constants={"symbol": "IBM", "wanted": "IBM"}, x=[1.0])
        assert len(f.process(s)) == 1
        s2 = seg(0, 1, constants={"symbol": "MSFT", "wanted": "IBM"}, x=[1.0])
        assert f.process(s2) == []

    def test_alias_qualified_attribute(self):
        f = ContinuousFilter(pred("S.x", Rel.GT, 0.0), alias="S")
        out = f.process(seg(0, 10, x=[-5.0, 1.0]))
        assert len(out) == 1

    def test_systems_solved_counter(self):
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        f.process(seg(0, 10, x=[1.0]))
        f.process(seg(10, 20, x=[1.0]))
        assert f.systems_solved == 2

    def test_slack_system_for_null_result(self):
        f = ContinuousFilter(pred("x", Rel.GT, 10.0))
        s = seg(0, 10, x=[5.0])  # never passes; slack = 5 away from 10
        assert f.process(s) == []
        system = f.slack_system(s)
        assert system is not None
        assert system.slack(0, 10) == pytest.approx(5.0, rel=1e-3)


class TestLookupBudget:
    """A probe is remembered in one place: the fold memo, one lookup."""

    @pytest.mark.parametrize("repeat", [1, 3])
    def test_probe_costs_one_fold_memo_lookup(self, repeat):
        from repro.engine.metrics import counter_snapshot, reset_counters

        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        reset_counters()
        for i in range(repeat):
            f.process(seg(0, 10, x=[-5.0 - i, 1.0]))
        lookups = {
            name: value
            for name, value in counter_snapshot().items()
            if name.rsplit(".", 1)[-1] in ("hits", "misses") and value
        }
        # the first probe folds, every later one is served the residual
        assert lookups == (
            {"memo.fold.misses": 1, "memo.fold.hits": repeat - 1}
            if repeat > 1
            else {"memo.fold.misses": 1}
        )


class TestRuns:
    """A run of inputs costs one kernel sweep, whatever its length."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        from repro.core import batch_solver

        calls: list[int] = []
        real = batch_solver.solve_relation_batch

        def counting(tasks, failures=None):
            calls.append(len(tasks))
            return real(tasks, failures)

        monkeypatch.setattr(batch_solver, "solve_relation_batch", counting)
        yield calls

    @staticmethod
    def _run(n):
        # distinct content, every piece crossing zero: n real solves
        return [seg(0, 10, x=[-1.0 - 0.5 * i, 1.0]) for i in range(n)]

    @staticmethod
    def _spans(outputs):
        return [[(s.t_start, s.t_end) for s in out] for out in outputs]

    def test_sixteen_solves_one_kernel_call(self, kernel_calls):
        run = self._run(16)
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        outputs = list(f.process_run(run))
        assert f.systems_solved == 16
        assert kernel_calls == [16]
        # one input at a time, the same solves cost a call each
        kernel_calls.clear()
        g = ContinuousFilter(pred("x", Rel.GT, 0.0))
        assert self._spans(g.process(s) for s in run) == self._spans(outputs)
        assert kernel_calls == [1] * 16

    def test_plan_hands_the_filter_its_run(self, kernel_calls):
        from repro.core.operators.base import ContinuousOperator
        from repro.core.plan import ContinuousPlan

        run = self._run(16)

        class Split(ContinuousOperator):
            def process(self, segment, port=0):
                return run

        plan = ContinuousPlan()
        src = plan.add_source("in")
        split = plan.add_operator(Split(), [src])
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        plan.set_output(plan.add_operator(f, [split]))
        out = plan.push("in", seg(0, 1))
        assert len(out) == 16
        assert kernel_calls == [16]
        assert plan.node(split).segments_out == 16

    def test_repeated_content_takes_one_kernel_call(self, kernel_calls):
        first = seg(0, 10, x=[-4.0, 1.0])
        again = seg(0, 10, x=[-4.0, 1.0])
        f = ContinuousFilter(pred("x", Rel.GT, 0.0))
        outputs = list(f.process_run([first, again]))
        # nothing is remembered: both inputs solve, in one sweep
        assert f.systems_solved == 2
        assert kernel_calls == [2]
        assert self._spans(outputs) == [[(4.0, 10.0)], [(4.0, 10.0)]]
