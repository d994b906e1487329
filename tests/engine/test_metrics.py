"""Tests for the measurement primitives (stopwatch, run metrics, runner)
and the observability exports (histograms, snapshots)."""

import json
import time

import pytest

from repro.engine.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    CounterRegistry,
    Histogram,
    MetricsSnapshot,
    QueueingModel,
    RunMetrics,
    Stopwatch,
    measure_run,
    measure_service_time,
)


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert 0.005 < sw.elapsed < 0.5

    def test_accumulates_across_uses(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.005)
        first = sw.elapsed
        with sw:
            time.sleep(0.005)
        assert sw.elapsed > first


class TestRunMetrics:
    def test_throughput(self):
        m = RunMetrics(items_in=100, items_out=50, elapsed_seconds=2.0)
        assert m.throughput == 50.0
        assert m.service_time == 0.02

    def test_zero_elapsed(self):
        m = RunMetrics(items_in=10, items_out=10, elapsed_seconds=0.0)
        assert m.throughput == float("inf")

    def test_zero_items(self):
        m = RunMetrics(items_in=0, items_out=0, elapsed_seconds=1.0)
        assert m.service_time == 0.0


class TestMeasureHelpers:
    def test_measure_run_uses_items_attribute(self):
        def feed():
            return 7

        feed.items = 100
        m = measure_run(feed)
        assert m.items_in == 100
        assert m.items_out == 7

    def test_measure_run_defaults_items_to_outputs(self):
        m = measure_run(lambda: 5)
        assert m.items_in == 5

    def test_measure_service_time_counts_list_outputs(self):
        def process(item):
            return [item, item] if item % 2 == 0 else []

        m = measure_service_time(process, list(range(10)))
        assert m.items_in == 10
        assert m.items_out == 10  # five even items, two outputs each


class TestHistogram:
    def test_observe_buckets_and_overflow(self):
        h = Histogram("h", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.mean == pytest.approx((0.05 + 0.5 + 0.5 + 5.0) / 4)

    def test_bound_value_lands_in_its_bucket(self):
        # Bounds are upper bounds (Prometheus ``le`` semantics).
        h = Histogram("h", bounds=(0.1, 1.0))
        h.observe(0.1)
        assert h.counts == [1, 0, 0]

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_dict_round_trip(self):
        h = Histogram("h")
        for v in (1e-6, 1e-3, 0.3, 42.0):
            h.observe(v)
        back = json.loads(json.dumps(h.as_dict()))
        assert back == h.as_dict()
        assert back["counts"] == h.counts
        assert tuple(back["bounds"]) == h.bounds
        assert back["sum"] == pytest.approx(h.total)

    def test_quantile_interpolates(self):
        h = Histogram("h", bounds=(1.0, 2.0, 3.0))
        for v in (0.5, 1.5, 2.5, 2.6):
            h.observe(v)
        assert h.quantile(0.0) == 0.0 or h.quantile(0.0) <= 1.0
        assert 2.0 <= h.quantile(1.0) <= 3.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_overflow_reports_last_bound(self):
        h = Histogram("h", bounds=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_default_bounds_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestMetricsSnapshot:
    def _registry(self):
        reg = CounterRegistry()
        reg.counter("solver.row_solves").bump(7)
        reg.gauge("cache.entries").set(12.0)
        h = reg.histogram("solver.latency", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_collect_and_as_dict(self):
        snap = MetricsSnapshot.collect(registry=self._registry())
        d = snap.as_dict()
        assert d["counters"]["solver.row_solves"] == 7
        assert d["gauges"]["cache.entries"] == 12.0
        assert d["histograms"]["solver.latency"]["count"] == 2

    def test_collect_prefix_restricts(self):
        snap = MetricsSnapshot.collect(
            prefix="solver.", registry=self._registry()
        )
        assert "cache.entries" not in snap.gauges
        assert "solver.row_solves" in snap.counters

    def test_json_round_trips(self):
        snap = MetricsSnapshot.collect(registry=self._registry())
        assert json.loads(snap.to_json()) == snap.as_dict()

    def test_prometheus_exposition_shape(self):
        text = MetricsSnapshot.collect(
            registry=self._registry()
        ).to_prometheus()
        assert "# TYPE repro_solver_row_solves counter" in text
        assert "repro_solver_row_solves 7" in text
        assert "# TYPE repro_cache_entries gauge" in text
        assert 'repro_solver_latency_bucket{le="0.1"} 1' in text
        # Cumulative buckets: the +Inf bucket equals the total count.
        assert 'repro_solver_latency_bucket{le="+Inf"} 2' in text
        assert "repro_solver_latency_count 2" in text
        assert text.endswith("\n")

    def test_write_json_and_prom(self, tmp_path):
        snap = MetricsSnapshot.collect(registry=self._registry())
        jpath = tmp_path / "m.json"
        ppath = tmp_path / "m.prom"
        snap.write(jpath)
        snap.write(ppath)
        assert json.loads(jpath.read_text()) == snap.as_dict()
        assert ppath.read_text().startswith("# TYPE")


class TestRegistryReset:
    def test_reset_clears_histograms_too(self):
        reg = CounterRegistry()
        reg.counter("c").bump()
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(0.5)
        reg.reset()
        assert reg.value("c") == 0
        assert reg.gauge_snapshot()["g"] == 0.0
        assert reg.histogram_snapshot()["h"]["count"] == 0

    def test_named_reset_leaves_others(self):
        reg = CounterRegistry()
        reg.counter("a").bump()
        reg.counter("b").bump()
        reg.reset("a")
        assert reg.value("a") == 0
        assert reg.value("b") == 1


class TestQueueingModelEdges:
    def test_exactly_at_capacity(self):
        m = QueueingModel(service_time=0.001, queue_capacity=1000)
        r = m.offered(1000.0)
        # At the knife edge the queue stays bounded near zero growth.
        assert r.achieved_throughput == pytest.approx(1000.0, rel=0.05)

    def test_thrash_factor_deepens_collapse(self):
        gentle = QueueingModel(0.001, queue_capacity=500, thrash_factor=0.1)
        harsh = QueueingModel(0.001, queue_capacity=500, thrash_factor=5.0)
        assert (
            harsh.offered(3000.0).achieved_throughput
            < gentle.offered(3000.0).achieved_throughput
        )

    def test_queue_growth_reported(self):
        m = QueueingModel(0.001, queue_capacity=100)
        r = m.offered(5000.0, duration=10.0)
        assert r.final_queue_length > 100
        assert r.saturated

    def test_sweep_shapes(self):
        m = QueueingModel(0.001, queue_capacity=1000)
        results = m.sweep([100, 500, 900, 2000, 4000])
        achieved = [r.achieved_throughput for r in results]
        # Rises with offered rate until capacity, then collapses.
        assert achieved[1] > achieved[0]
        assert max(achieved) <= 1000 * 1.01
        assert achieved[-1] < achieved[-2]


class TestThreadSafety:
    """Regression pin for cross-thread counter updates.

    The server splits metric writers across two threads (event loop and
    engine); ``Counter.bump`` is a read-modify-write, so without the
    per-counter lock concurrent bumps lose increments.  Histograms stay
    deliberately unlocked under a documented single-writer invariant —
    see the :class:`~repro.engine.metrics.Histogram` docstring.
    """

    def test_concurrent_bumps_are_exact(self):
        import threading

        reg = CounterRegistry()
        counter = reg.counter("hammered")
        per_thread, threads = 20_000, 2
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                counter.bump()

        workers = [
            threading.Thread(target=hammer) for _ in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert counter.value == per_thread * threads

    def test_concurrent_gauge_adds_are_exact(self):
        import threading

        reg = CounterRegistry()
        gauge = reg.gauge("g")
        barrier = threading.Barrier(2)

        def add():
            barrier.wait()
            for _ in range(10_000):
                gauge.add(1.0)

        workers = [threading.Thread(target=add) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert gauge.value == pytest.approx(20_000.0)

    def test_concurrent_get_or_create_returns_one_object(self):
        import threading

        reg = CounterRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(reg.counter("shared"))

        workers = [threading.Thread(target=create) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(c is seen[0] for c in seen)
