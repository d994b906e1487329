"""Tests for regression, segmentation algorithms and segment building."""

import numpy as np
import pytest

from repro.core.polynomial import Polynomial
from repro.engine.tuples import StreamTuple
from repro.fitting import (
    OnlineSegmenter,
    StreamModelBuilder,
    build_segments,
    compile_model_clause,
    fit_polynomial,
    predictive_segment,
)
from repro.query import parse_expression
from tests.offline_segmentation import (
    bottom_up_segmentation,
    sliding_window_segmentation,
    swab_segmentation,
)


class TestRegression:
    def test_exact_line_recovered(self):
        t = np.linspace(0, 10, 20)
        y = 3.0 + 2.0 * t
        fit = fit_polynomial(t, y, degree=1)
        assert fit.poly.approx_equal(Polynomial([3.0, 2.0]), tol=1e-8)
        assert fit.max_error < 1e-9

    def test_quadratic_fit(self):
        t = np.linspace(0, 5, 30)
        y = 1.0 - t + 0.5 * t**2
        fit = fit_polynomial(t, y, degree=2)
        assert fit.max_error < 1e-9

    def test_single_point(self):
        fit = fit_polynomial([2.0], [7.0])
        assert fit.poly(2.0) == 7.0
        assert fit.max_error == 0.0

    def test_degree_clamped(self):
        fit = fit_polynomial([0.0, 1.0], [1.0, 2.0], degree=5)
        assert fit.poly.degree <= 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_polynomial([], [])

    def test_large_timestamps_conditioning(self):
        t = 1.7e9 + np.linspace(0, 10, 50)
        y = 5.0 + 0.25 * (t - 1.7e9)
        fit = fit_polynomial(t, y, degree=1)
        assert fit.max_error < 1e-5


def _piecewise_signal(n_pieces=4, points_per_piece=25, slope_scale=2.0, seed=3):
    """A noiseless piecewise-linear test signal with known breakpoints."""
    rng = np.random.default_rng(seed)
    t_all, y_all = [], []
    t = 0.0
    y = 0.0
    for _ in range(n_pieces):
        slope = rng.uniform(-slope_scale, slope_scale)
        ts = t + np.arange(points_per_piece) * 0.1
        ys = y + slope * (ts - t)
        t_all.extend(ts)
        y_all.extend(ys)
        t = ts[-1] + 0.1
        y = ys[-1] + slope * 0.1
    return np.array(t_all), np.array(y_all)


class TestSegmentationAlgorithms:
    @pytest.mark.parametrize(
        "algo",
        [sliding_window_segmentation, bottom_up_segmentation, swab_segmentation],
    )
    def test_error_bound_respected(self, algo):
        t, y = _piecewise_signal()
        pieces = algo(t, y, tolerance=0.05)
        for piece in pieces:
            assert piece.max_error <= 0.05 + 1e-9

    @pytest.mark.parametrize(
        "algo",
        [sliding_window_segmentation, bottom_up_segmentation, swab_segmentation],
    )
    def test_pieces_tile_the_time_axis(self, algo):
        t, y = _piecewise_signal()
        pieces = algo(t, y, tolerance=0.05)
        assert pieces[0].t_start == t[0]
        for a, b in zip(pieces[:-1], pieces[1:]):
            assert a.t_end == pytest.approx(b.t_start)

    @pytest.mark.parametrize(
        "algo",
        [sliding_window_segmentation, bottom_up_segmentation, swab_segmentation],
    )
    def test_piece_count_near_ground_truth(self, algo):
        t, y = _piecewise_signal(n_pieces=4)
        pieces = algo(t, y, tolerance=0.05)
        assert 3 <= len(pieces) <= 8

    def test_empty_input(self):
        assert sliding_window_segmentation([], [], 1.0) == []
        assert bottom_up_segmentation([], [], 1.0) == []
        assert swab_segmentation([], [], 1.0) == []

    def test_bottom_up_merges_constant_signal_to_one(self):
        t = np.linspace(0, 10, 40)
        y = np.full_like(t, 5.0)
        assert len(bottom_up_segmentation(t, y, tolerance=0.01)) == 1

    def test_noise_increases_piece_count(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 10, 200)
        smooth = 2.0 * t
        noisy = smooth + rng.normal(0, 0.5, size=t.size)
        clean_count = len(sliding_window_segmentation(t, smooth, 0.1))
        noisy_count = len(sliding_window_segmentation(t, noisy, 0.1))
        assert noisy_count > clean_count


class TestOnlineSegmenter:
    def test_exact_line_never_cuts(self):
        seg = OnlineSegmenter(tolerance=0.01)
        for i in range(100):
            assert seg.add(i * 0.1, 1.0 + 0.2 * i * 0.1) is None
        final = seg.finish()
        assert final is not None
        assert final.poly.approx_equal(Polynomial([1.0, 0.2]), tol=1e-6)

    def test_slope_change_cuts(self):
        seg = OnlineSegmenter(tolerance=0.01)
        cuts = []
        for i in range(50):
            t = i * 0.1
            y = t if t < 2.5 else 2.5 - 5 * (t - 2.5)
            piece = seg.add(t, y)
            if piece is not None:
                cuts.append(piece)
        assert len(cuts) == 1
        assert cuts[0].t_end == pytest.approx(2.6, abs=0.2)

    def test_points_consumed_counter(self):
        seg = OnlineSegmenter(tolerance=1.0)
        for i in range(10):
            seg.add(float(i), 0.0)
        assert seg.points_consumed == 10

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            OnlineSegmenter(tolerance=0.1, degree=2)

    def test_finish_on_empty(self):
        assert OnlineSegmenter(tolerance=0.1).finish() is None


class TestModelBuilder:
    def _tuples(self, n=60):
        # Two keys with different exact lines.
        out = []
        for i in range(n):
            t = i * 0.1
            out.append(StreamTuple({"time": t, "id": "a", "x": 1.0 + 2.0 * t}))
            out.append(StreamTuple({"time": t, "id": "b", "x": 5.0 - 1.0 * t}))
        return out

    def test_build_segments_per_key(self):
        segs = build_segments(
            self._tuples(), attrs=("x",), tolerance=0.01,
            key_fields=("id",), constants=("id",),
        )
        keys = {s.key for s in segs}
        assert keys == {("a",), ("b",)}
        for s in segs:
            expected = (
                Polynomial([1.0, 2.0]) if s.key == ("a",) else Polynomial([5.0, -1.0])
            )
            assert s.model("x").approx_equal(expected, tol=1e-6)
            assert s.constants["id"] == s.key[0]

    def test_builder_counts(self):
        builder = StreamModelBuilder(("x",), tolerance=0.01, key_fields=("id",))
        for tup in self._tuples(10):
            builder.add(tup)
        builder.finish()
        assert builder.tuples_consumed == 20
        assert builder.segments_emitted >= 2

    def test_multi_attribute_shared_cut(self):
        # x cuts at t=2.5, y is a perfect line: both must cut together.
        tuples = []
        for i in range(50):
            t = i * 0.1
            x = t if t < 2.5 else 2.5 - 5 * (t - 2.5)
            tuples.append(
                StreamTuple({"time": t, "id": "a", "x": x, "y": 3.0 + t})
            )
        segs = build_segments(
            tuples, attrs=("x", "y"), tolerance=0.01, key_fields=("id",)
        )
        assert len(segs) == 2
        for s in segs:
            assert set(s.models) == {"x", "y"}


class TestModelClause:
    def test_compile_linear_model(self):
        # MODEL A.x = A.x + A.v * t with x=4, v=2 at origin 10.
        expr = parse_expression("A.x + A.v * t")
        poly = compile_model_clause(expr, {"x": 4.0, "v": 2.0}, t_origin=10.0)
        assert poly(10.0) == pytest.approx(4.0)
        assert poly(11.0) == pytest.approx(6.0)

    def test_compile_quadratic_model(self):
        expr = parse_expression("B.v * t + B.a * t^2")
        poly = compile_model_clause(expr, {"v": 1.0, "a": 0.5}, t_origin=0.0)
        assert poly(2.0) == pytest.approx(2.0 + 2.0)

    def test_missing_coefficient_raises(self):
        expr = parse_expression("A.x + A.v * t")
        with pytest.raises(KeyError):
            compile_model_clause(expr, {"x": 4.0}, t_origin=0.0)

    def test_predictive_segment(self):
        expr = parse_expression("x + vx * t")
        tup = StreamTuple({"time": 5.0, "id": "a", "x": 10.0, "vx": 3.0})
        seg = predictive_segment(
            tup, {"x": expr}, horizon=2.0, key_fields=("id",), constants=("id",)
        )
        assert (seg.t_start, seg.t_end) == (5.0, 7.0)
        assert seg.value_at("x", 6.0) == pytest.approx(13.0)
        assert seg.key == ("a",)
