"""Tests for continuous min/max and sum/avg aggregate operators."""

import math

import pytest

from repro.core.errors import UnsupportedAggregateError
from repro.core.operators import (
    ContinuousExtremumAggregate,
    ContinuousGroupBy,
    ContinuousSumAggregate,
    make_aggregate,
)
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment


def seg(lo, hi, key="k", **models):
    return Segment(
        key=(key,),
        t_start=lo,
        t_end=hi,
        models={k: Polynomial(v) for k, v in models.items()},
    )


class TestExtremumAggregate:
    def test_first_segment_defines_envelope(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        out = agg.process(seg(0, 10, x=[5.0]))
        assert len(out) == 1
        assert agg.envelope(3.0) == 5.0

    def test_lower_value_updates(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        agg.process(seg(0, 10, key="a", x=[5.0]))
        out = agg.process(seg(0, 10, key="b", x=[3.0]))
        assert len(out) == 1
        assert agg.envelope(3.0) == 3.0

    def test_higher_value_ignored_for_min(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        agg.process(seg(0, 10, key="a", x=[5.0]))
        out = agg.process(seg(0, 10, key="b", x=[7.0]))
        assert out == []
        assert agg.envelope(3.0) == 5.0

    def test_crossing_models_split_envelope(self):
        # a: x = t (lower before 5); b: x = 10 - t (lower after 5).
        agg = ContinuousExtremumAggregate("x", func="min")
        agg.process(seg(0, 10, key="a", x=[0.0, 1.0]))
        out = agg.process(seg(0, 10, key="b", x=[10.0, -1.0]))
        assert len(out) == 1
        assert out[0].t_start == pytest.approx(5.0)
        assert agg.envelope(2.0) == pytest.approx(2.0)   # t
        assert agg.envelope(8.0) == pytest.approx(2.0)   # 10 - t

    def test_max_mirror(self):
        agg = ContinuousExtremumAggregate("x", func="max")
        agg.process(seg(0, 10, key="a", x=[0.0, 1.0]))
        agg.process(seg(0, 10, key="b", x=[10.0, -1.0]))
        assert agg.envelope(2.0) == pytest.approx(8.0)
        assert agg.envelope(8.0) == pytest.approx(8.0)

    def test_partial_overlap_gap_fill(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        agg.process(seg(0, 5, key="a", x=[4.0]))
        out = agg.process(seg(3, 8, key="b", x=[6.0]))
        # 6 > 4 on [3,5) but fills the gap [5,8).
        assert len(out) == 1
        assert (out[0].t_start, out[0].t_end) == (5, 8)

    def test_envelope_pointwise_invariant(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        segments = [
            seg(0, 10, key="a", x=[3.0, 0.5]),
            seg(0, 10, key="b", x=[8.0, -0.5]),
            seg(2, 8, key="c", x=[1.0, 0.0, 0.1]),
        ]
        for s in segments:
            agg.process(s)
        for i in range(100):
            t = 0.05 + i * 0.0999
            live = [
                s.model("x")(t) for s in segments if s.contains_time(t)
            ]
            assert agg.envelope(t) == pytest.approx(min(live), abs=1e-6)

    def test_windowed_value(self):
        agg = ContinuousExtremumAggregate("x", func="min", window=4.0)
        agg.process(seg(0, 10, x=[0.0, 1.0]))  # x = t
        # min over [2, 6] of t is 2.
        assert agg.windowed_value(6.0) == pytest.approx(2.0)

    def test_windowed_value_uses_stationary_points(self):
        # x = (t-5)^2: interior minimum 0 at t=5.
        agg = ContinuousExtremumAggregate("x", func="min", window=6.0)
        agg.process(seg(0, 10, x=[25.0, -10.0, 1.0]))
        assert agg.windowed_value(8.0) == pytest.approx(0.0, abs=1e-9)

    def test_windowed_value_requires_window(self):
        agg = ContinuousExtremumAggregate("x", func="min")
        agg.process(seg(0, 10, x=[1.0]))
        with pytest.raises(ValueError):
            agg.windowed_value(5.0)

    def test_eviction_drops_old_pieces(self):
        agg = ContinuousExtremumAggregate("x", func="min", window=2.0, slide=1.0)
        agg.process(seg(0, 1, x=[1.0]))
        agg.process(seg(1, 2, x=[1.0]))
        agg.process(seg(50, 51, x=[1.0]))
        assert agg.envelope.domain_start >= 47.0

    def test_rejects_unknown_func(self):
        with pytest.raises(UnsupportedAggregateError):
            ContinuousExtremumAggregate("x", func="count")

    def test_window_closes_on_slide_grid(self):
        agg = ContinuousExtremumAggregate("x", func="min", window=4.0, slide=2.0)
        assert agg.window_closes(0.5, 7.0) == [2.0, 4.0, 6.0]


class TestSumAggregate:
    def test_constant_signal_window_value(self):
        agg = ContinuousSumAggregate("x", window=2.0)
        agg.process(seg(0, 10, x=[3.0]))
        # integral of 3 over any 2-wide window is 6.
        assert agg.window_value(5.0) == pytest.approx(6.0)

    def test_average_divides_by_window(self):
        agg = ContinuousSumAggregate("x", window=2.0, average=True)
        agg.process(seg(0, 10, x=[3.0]))
        assert agg.window_value(5.0) == pytest.approx(3.0)

    def test_linear_signal(self):
        agg = ContinuousSumAggregate("x", window=2.0)
        agg.process(seg(0, 10, x=[0.0, 1.0]))  # x = t
        # integral_{3}^{5} t dt = (25 - 9)/2 = 8.
        assert agg.window_value(5.0) == pytest.approx(8.0)

    def test_window_spanning_multiple_segments(self):
        # Paper's multi-segment case: head + covered C + tail integrals.
        agg = ContinuousSumAggregate("x", window=3.0, retention=math.inf)
        agg.process(seg(0, 2, x=[1.0]))        # contributes 1 * overlap
        agg.process(seg(2, 4, x=[2.0]))
        agg.process(seg(4, 6, x=[3.0]))
        # Window [1.5, 4.5]: 0.5*1 + 2*2 + 0.5*3 = 6.0.
        assert agg.window_value(4.5) == pytest.approx(6.0)

    def test_emitted_window_functions_match_direct_evaluation(self):
        agg = ContinuousSumAggregate("x", window=2.0)
        outputs = []
        outputs += agg.process(seg(0, 3, x=[0.0, 1.0]))
        outputs += agg.process(seg(3, 6, x=[3.0]))
        outputs += agg.process(seg(6, 9, x=[9.0, -1.0]))
        assert outputs, "window functions must be emitted"
        for out in outputs:
            wf = out.model(agg.output_attr)
            for frac in (0.1, 0.5, 0.9):
                c = out.t_start + frac * (out.t_end - out.t_start)
                direct = _numeric_window_integral(c, 2.0)
                assert wf(c) == pytest.approx(direct, rel=1e-9), c

    def test_emission_covers_all_valid_closes_exactly_once(self):
        agg = ContinuousSumAggregate("x", window=2.0)
        outputs = []
        for i in range(5):
            outputs += agg.process(seg(i * 2, (i + 1) * 2, x=[float(i)]))
        covered = sorted((o.t_start, o.t_end) for o in outputs)
        # Valid closes are [w, signal_end) = [2, 10); contiguous, no overlap.
        assert covered[0][0] == pytest.approx(2.0)
        assert covered[-1][1] == pytest.approx(10.0)
        for (a0, a1), (b0, b1) in zip(covered[:-1], covered[1:]):
            assert a1 == pytest.approx(b0)

    def test_revision_overrides_future(self):
        # Successor [2, 5) replaces the signal from t=2 on (the paper's
        # update semantics): the predecessor's tail [5, 10) is discarded.
        agg = ContinuousSumAggregate("x", window=2.0, retention=math.inf)
        agg.process(seg(0, 10, x=[1.0]))
        agg.process(seg(2, 5, x=[9.0]))
        assert agg.revisions == 1
        assert agg.signal_range == (0.0, 5.0)
        # Window [2, 4]: all inside the revised region: 2 * 9.
        assert agg.window_value(4.0) == pytest.approx(18.0)

    def test_revision_preserves_history_before_its_start(self):
        agg = ContinuousSumAggregate("x", window=2.0, retention=math.inf)
        agg.process(seg(0, 10, x=[1.0]))
        agg.process(seg(2, 5, x=[9.0]))
        # Window [1, 3]: 1 second of old signal + 1 second revised.
        assert agg.window_value(3.0) == pytest.approx(1.0 + 9.0)

    def test_overlapping_successor_overrides(self):
        agg = ContinuousSumAggregate("x", window=2.0, retention=math.inf)
        agg.process(seg(0, 5, x=[1.0]))
        agg.process(seg(3, 8, x=[2.0]))  # overrides from t=3 on
        # Window [4, 6]: entirely in the revised region: 2*2 = 4.
        assert agg.window_value(6.0) == pytest.approx(4.0)
        # Window [2, 4]: one old second + one revised second = 1 + 2.
        assert agg.window_value(4.0) == pytest.approx(3.0)

    def test_revision_reemits_window_functions(self):
        agg = ContinuousSumAggregate("x", window=2.0, retention=math.inf)
        out1 = agg.process(seg(0, 10, x=[1.0]))
        assert any(o.t_start <= 5.0 < o.t_end for o in out1)
        out2 = agg.process(seg(2, 8, x=[3.0]))
        # Revised closes are re-emitted and reflect the new signal.
        covering = [o for o in out2 if o.t_start <= 5.0 < o.t_end]
        assert covering
        assert covering[0].model(agg.output_attr)(5.0) == pytest.approx(6.0)

    def test_gap_filled_as_zero(self):
        agg = ContinuousSumAggregate("x", window=4.0)
        agg.process(seg(0, 2, x=[1.0]))
        agg.process(seg(4, 8, x=[1.0]))
        assert agg.gaps_filled == 1
        # Window [2, 6]: gap contributes 0 on [2,4), second segment 2.
        assert agg.window_value(6.0) == pytest.approx(2.0)

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            ContinuousSumAggregate("x", window=0.0)

    def test_cumulative_outside_range_raises(self):
        agg = ContinuousSumAggregate("x", window=2.0)
        agg.process(seg(0, 5, x=[1.0]))
        with pytest.raises(ValueError):
            agg.cumulative(50.0)


class TestSumStateWork:
    """What an arrival costs depends on what it changes, not on how many
    pieces the window holds (counts, not timings)."""

    @staticmethod
    def _contains_calls_for_last_arrival(monkeypatch, live_pieces):
        from repro.core.intervals import Interval

        window = 100.0
        width = window / live_pieces
        agg = ContinuousSumAggregate("x", window=window)
        for i in range(2 * live_pieces):
            agg.process(seg(i * width, (i + 1) * width, x=[1.0, 0.5]))
        assert len(agg._cum) >= live_pieces
        calls = []
        real = Interval.contains
        monkeypatch.setattr(
            Interval, "contains",
            lambda self, t, tol=0.0: calls.append(t) or real(self, t, tol),
        )
        # narrower than every stored piece: one window function piece
        out = agg.process(seg(200.0, 200.0625, x=[2.0]))
        monkeypatch.undo()
        return len(calls), len(out)

    def test_lookups_per_emitted_piece_do_not_grow_with_the_window(
        self, monkeypatch
    ):
        small = self._contains_calls_for_last_arrival(monkeypatch, 50)
        large = self._contains_calls_for_last_arrival(monkeypatch, 800)
        # head and tail: two lookups, one containment check each
        assert small == large == (2, 1)


class TestWindowHoles:
    def test_lookup_in_a_sub_eps_hole_is_counted_not_silent(self):
        """An arrival starting within ``EPS`` *after* the signal's end is
        appended at its own start, leaving a hole narrower than ``EPS``
        between two pieces.  A window function piece whose tail instant
        lands in the hole has no model to subtract: it is not emitted,
        and that must leave a trace."""
        from repro.engine.metrics import counter_snapshot, reset_counters

        reset_counters("aggregate.windows_skipped")
        agg = ContinuousSumAggregate("x", window=3.0)
        outputs = agg.process(seg(0.0, 5.0, x=[1.0]))
        # hole (5, 5 + 0.9e-9) ...
        outputs += agg.process(seg(5.0 + 0.9e-9, 8.0 - 0.4e-9, x=[1.0]))
        assert (agg.gaps_filled, agg.windows_skipped) == (0, 0)
        # ... and closes in (8 - 0.4e-9, 8 + 0.9e-9) have their window
        # start in it
        outputs += agg.process(seg(8.0 - 0.4e-9, 12.0, x=[1.0]))
        assert agg.windows_skipped == 1
        assert counter_snapshot()["aggregate.windows_skipped"] == 1
        covered = sorted((o.t_start, o.t_end) for o in outputs)
        assert covered[0][0] == 3.0 and covered[-1][1] == 12.0
        gaps = [
            (a_end, b_start)
            for (_, a_end), (b_start, _) in zip(covered, covered[1:])
            if a_end != b_start
        ]
        # the hole itself (narrower than EPS: never a piece) and the
        # 1.3 EPS of closes whose window starts in it
        assert gaps == [
            (5.0, 5.0 + 0.9e-9), (8.0 - 0.4e-9, 8.0 + 0.9e-9)
        ]

    def test_exact_abutments_skip_nothing(self):
        agg = ContinuousSumAggregate("x", window=3.0)
        for i in range(40):
            agg.process(seg(0.7 * i, 0.7 * (i + 1), x=[1.0, 0.1 * i]))
        assert agg.windows_skipped == 0


def _numeric_window_integral(close, w, n=400):
    """Quadrature of the test signal defined in the emission test."""
    def signal(t):
        if 0 <= t < 3:
            return t
        if 3 <= t < 6:
            return 3.0
        if 6 <= t < 9:
            return 9.0 - t
        return 0.0

    lo = close - w
    total = 0.0
    step = w / n
    for i in range(n):
        t = lo + (i + 0.5) * step
        total += signal(t) * step
    return total


class TestMakeAggregate:
    def test_dispatch(self):
        assert isinstance(make_aggregate("min", "x"), ContinuousExtremumAggregate)
        assert isinstance(
            make_aggregate("sum", "x", window=2.0), ContinuousSumAggregate
        )
        avg = make_aggregate("avg", "x", window=2.0)
        assert isinstance(avg, ContinuousSumAggregate) and avg.average

    def test_count_rejected(self):
        with pytest.raises(UnsupportedAggregateError):
            make_aggregate("count", "x", window=2.0)

    def test_sum_requires_window(self):
        with pytest.raises(ValueError):
            make_aggregate("sum", "x")


class TestGroupBy:
    def test_groups_created_per_key(self):
        gb = ContinuousGroupBy(
            lambda: ContinuousSumAggregate("x", window=2.0)
        )
        gb.process(seg(0, 5, key="a", x=[1.0]))
        gb.process(seg(0, 5, key="b", x=[2.0]))
        assert gb.group_count == 2

    def test_groups_isolated(self):
        gb = ContinuousGroupBy(
            lambda: ContinuousSumAggregate("x", window=2.0)
        )
        gb.process(seg(0, 10, key="a", x=[1.0]))
        gb.process(seg(0, 10, key="b", x=[5.0]))
        assert gb.group(("a",)).window_value(5.0) == pytest.approx(2.0)
        assert gb.group(("b",)).window_value(5.0) == pytest.approx(10.0)

    def test_custom_group_key(self):
        gb = ContinuousGroupBy(
            lambda: ContinuousExtremumAggregate("x", func="min"),
            group_key=lambda s: ("all",),
        )
        gb.process(seg(0, 10, key="a", x=[3.0]))
        gb.process(seg(0, 10, key="b", x=[1.0]))
        assert gb.group_count == 1
        assert gb.group(("all",)).envelope(5.0) == 1.0

    def test_reset_clears_groups(self):
        gb = ContinuousGroupBy(
            lambda: ContinuousExtremumAggregate("x", func="min")
        )
        gb.process(seg(0, 10, key="a", x=[3.0]))
        gb.reset()
        assert gb.group_count == 0
