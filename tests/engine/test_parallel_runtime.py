"""The key-sharded parallel runtime: partitioning, dispatch, parity.

The determinism contract under test: for any trace, any shard count and
any fault pattern, the sharded runtime produces *bit-identical* outputs
and identical semantic counters to the serial runtime.  Sharding and
priming may only move work (to shard workers, or earlier into the
prefill sweep) — never change it.
"""

import math
import random

import pytest

from repro.core import batch_solver
from repro.core.batch_solver import (
    SOLVER_CONFIG,
    real_roots_batch,
    set_roots_dispatch,
    task_root_query,
)
from repro.core.equation_system import EquationSystem
from repro.core.expr import Attr, Const
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment
from repro.core.solve_cache import (
    RootCache,
    SolveCache,
    reset_global_solve_cache,
    reset_worker_root_cache,
)
from repro.core.transform import to_continuous_plan
from repro.engine.parallel import InlineExecutor, ParallelSolveDispatcher
from repro.engine.resilience import BreakerConfig
from repro.engine.metrics import counter_snapshot, reset_counters
from repro.engine.scheduler import QueryRuntime
from repro.engine.sharding import (
    ShardQueues,
    ShardRouter,
    canonical_key_bytes,
    shard_of,
    stable_key_hash,
)
from repro.query import parse_query, plan_query
from repro.testing import inject_solver_faults


# ----------------------------------------------------------------------
# key partitioning
# ----------------------------------------------------------------------
class TestSharding:
    def test_assignment_is_process_independent(self):
        # Golden values: BLAKE2b-based, so they must never move between
        # runs, processes, or machines (PYTHONHASHSEED is irrelevant).
        assert [shard_of(k, 4) for k in ("aapl", "ibm", "msft", "goog")] == [
            1, 1, 1, 0,
        ]

    def test_no_concatenation_collisions(self):
        assert canonical_key_bytes(("ab", "c")) != canonical_key_bytes(
            ("a", "bc")
        )
        assert canonical_key_bytes(("a", ("b",))) != canonical_key_bytes(
            (("a",), "b")
        )

    def test_type_tags_distinguish_equal_values(self):
        # bool subclasses int and 1.0 == 1, but the keys are distinct.
        hashes = {
            stable_key_hash(True),
            stable_key_hash(1),
            stable_key_hash(1.0),
            stable_key_hash("1"),
        }
        assert len(hashes) == 4

    def test_single_shard_short_circuits(self):
        assert shard_of(("anything",), 1) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_of("k", 0)
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_router_matches_pure_function(self):
        router = ShardRouter(3)
        keys = [("k", i) for i in range(32)]
        for key in keys:
            assert router.shard_of(key) == shard_of(key, 3)
        # Second pass hits the memo; assignment must not drift.
        for key in keys:
            assert router.shard_of(key) == shard_of(key, 3)

    def test_partition_preserves_order_within_shard(self):
        router = ShardRouter(2)
        items = [("k%d" % (i % 5), i) for i in range(20)]
        shards = router.partition(items, key_of=lambda it: it[0])
        for shard, bucket in enumerate(shards):
            assert [router.shard_of(k) for k, _ in bucket] == [shard] * len(
                bucket
            )
            assert [i for _, i in bucket] == sorted(i for _, i in bucket)

    def test_queues_drain_in_global_arrival_order(self):
        queues = ShardQueues(3)
        pushed = []
        for i in range(30):
            key = ("key", i % 7)
            queues.push(key, i)
            pushed.append((key, i))
        assert len(queues) == 30
        drained = queues.drain_in_order()
        assert [(k, item) for _, k, item in drained] == pushed
        assert len(queues) == 0

    def test_drain_shard_only_empties_that_shard(self):
        queues = ShardQueues(2)
        for i in range(10):
            queues.push(("key", i), i)
        depth0 = queues.depth(0)
        out = queues.drain_shard(0)
        assert len(out) == depth0
        assert queues.depth(0) == 0
        assert len(queues) == 10 - depth0


# ----------------------------------------------------------------------
# dispatch machinery
# ----------------------------------------------------------------------
class TestInlineExecutor:
    def test_result_and_error_mirror_pool_futures(self):
        ex = InlineExecutor()
        assert ex.submit(lambda a, b: a + b, 2, 3).result() == 5
        failing = ex.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()


class TestParallelSolveDispatcher:
    def setup_method(self):
        reset_worker_root_cache()

    def test_primed_roots_match_inline_kernel(self):
        polys = [
            Polynomial([-1.0, 0.0, 1.0]),   # roots +-1
            Polynomial([0.5, -1.0]),        # root 0.5
            Polynomial([-6.0, 11.0, -6.0, 1.0]),  # roots 1, 2, 3
        ]
        items = [(p, -10.0, 10.0) for p in polys]
        expected = real_roots_batch(items)
        d = ParallelSolveDispatcher(num_shards=2, parallel=False)
        try:
            shipped = d.prime(
                {0: [(p.coeffs, -10.0, 10.0) for p in polys[:2]],
                 1: [(polys[2].coeffs, -10.0, 10.0)]}
            )
            assert shipped == 3
            assert d.dispatch_roots(items) == expected
            # All three were parent-cache hits, zero kernel recomputes.
            assert d.root_store_stats().hits == 3
        finally:
            d.shutdown()

    def test_unprimed_rows_fall_through_and_backfill(self):
        poly = Polynomial([-4.0, 0.0, 1.0])
        items = [(poly, -10.0, 10.0)]
        expected = real_roots_batch(items)
        d = ParallelSolveDispatcher(num_shards=2, parallel=False)
        try:
            assert d.dispatch_roots(items) == expected  # miss -> kernel
            assert d.dispatch_roots(items) == expected  # now a hit
            stats = d.root_store_stats()
            assert (stats.hits, stats.misses) == (1, 1)
        finally:
            d.shutdown()

    def test_failures_recorded_and_never_cached(self):
        poly = Polynomial([math.nan, 1.0])
        d = ParallelSolveDispatcher(num_shards=1, parallel=False)
        try:
            for _ in range(2):  # identical failure on every encounter
                failures = {}
                out = d.dispatch_roots([(poly, 0.0, 1.0)], failures)
                assert out == [[]]
                assert list(failures) == [0]
            assert len(d._root_cache) == 0
        finally:
            d.shutdown()

    def test_prime_dedupes_repeated_rows(self):
        row = ((1.0, -2.0), 0.0, 5.0)
        d = ParallelSolveDispatcher(num_shards=1, parallel=False)
        try:
            assert d.prime({0: [row, row, row]}) == 1
            assert d.prime({0: [row]}) == 0  # already in the parent store
            assert d.rows_dispatched == 1
        finally:
            d.shutdown()

    def test_activate_deactivate_restores_kernel_dispatch(self):
        assert batch_solver._ROOTS_DISPATCH is None
        d = ParallelSolveDispatcher(num_shards=1, parallel=False)
        try:
            d.activate()
            assert batch_solver._ROOTS_DISPATCH == d.dispatch_roots
            d.activate()  # idempotent: must not capture itself
            d.deactivate()
            assert batch_solver._ROOTS_DISPATCH is None
        finally:
            d.shutdown()
        assert batch_solver._ROOTS_DISPATCH is None

    def test_shutdown_deactivates_hook(self):
        d = ParallelSolveDispatcher(num_shards=1, parallel=False)
        d.activate()
        d.shutdown()
        assert batch_solver._ROOTS_DISPATCH is None
        with pytest.raises(RuntimeError):
            d.prime({0: [((1.0,), 0.0, 1.0)]})


# ----------------------------------------------------------------------
# prediction: solve tasks and shippable root rows
# ----------------------------------------------------------------------
MODELS = {
    "A.x": Polynomial([4.0, 1.0]),
    "B.y": Polynomial([0.0, 2.0, 0.5]),
}


class TestRowTasksAndRootQueries:
    def _system(self, pred):
        return EquationSystem.from_predicate(pred, MODELS.__getitem__)

    def test_row_tasks_cover_every_row(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.LT, Attr("B.y")),
            Comparison(Attr("A.x"), Rel.GT, Const(0.0)),
        )
        system = self._system(pred)
        tasks = system.row_tasks(0.0, 10.0)
        assert len(tasks) == len(system.rows)
        for (poly, rel, lo, hi), row in zip(tasks, system.rows):
            assert (poly, rel, lo, hi) == (row.poly, row.rel, 0.0, 10.0)

    def test_row_tasks_empty_domain(self):
        system = self._system(Comparison(Attr("A.x"), Rel.LT, Attr("B.y")))
        assert system.row_tasks(5.0, 5.0) == []
        assert system.row_tasks(6.0, 5.0) == []

    def test_equality_fast_path_predicts_nothing(self):
        pred = And(
            Comparison(Attr("A.x"), Rel.EQ, Attr("B.y")),
            Comparison(Attr("A.x"), Rel.EQ, Const(0.0)),
        )
        system = self._system(pred)
        assert len(system.rows) > 1
        assert system.row_tasks(0.0, 10.0) == []

    def test_task_root_query_classification(self):
        p = Polynomial([-1.0, 1.0])
        assert task_root_query((p, Rel.GT, 0.0, 5.0)) == (p.coeffs, 0.0, 5.0)
        # Degenerate rows never reach the root finder.
        assert task_root_query((p, Rel.GT, 5.0, 5.0)) is None
        assert task_root_query((Polynomial([3.0]), Rel.GT, 0.0, 5.0)) is None
        assert task_root_query((Polynomial([0.0]), Rel.GT, 0.0, 5.0)) is None
        # Out-of-guardrail coefficients fail in-parent, not in a worker.
        bad = Polynomial([math.nan, 1.0])
        assert task_root_query((bad, Rel.GT, 0.0, 5.0)) is None
        spike = Polynomial([0.0, 1e200])
        assert task_root_query((spike, Rel.GT, 0.0, 5.0)) is None
        deep = Polynomial([1.0] * (SOLVER_CONFIG.max_roots_per_row + 2))
        assert task_root_query((deep, Rel.GT, 0.0, 5.0)) is None


# ----------------------------------------------------------------------
# signed-zero canonicalization in cache keys
# ----------------------------------------------------------------------
class TestSignedZeroKeys:
    def test_solve_cache_key_canonicalizes_negative_zero(self):
        cache = SolveCache(maxsize=16)
        k_pos = cache.key(Polynomial([0.0, 1.0]), Rel.GT, 0.0, 1.0)
        k_neg = cache.key(Polynomial([-0.0, 1.0]), Rel.GT, -0.0, 1.0)
        assert k_pos == k_neg
        assert "-0.0" not in repr(k_neg)

    def test_root_cache_key_canonicalizes_negative_zero(self):
        k_pos = RootCache.key((0.0, 1.0), 0.0, 1.0)
        k_neg = RootCache.key((-0.0, 1.0), -0.0, 1.0)
        assert k_pos == k_neg
        assert "-0.0" not in repr(k_neg)

    def test_root_cache_key_fast_path_skips_zero_free_rows(self):
        # The common case (no zero coefficient) must not rewrite, and
        # the keyed values must round-trip exactly.
        coeffs = (1.5, -2.25, 3.0)
        row, lo, hi = RootCache.key(coeffs, -1.0, 1.0)
        assert row == coeffs and (lo, hi) == (-1.0, 1.0)

    def test_negative_zero_rows_share_one_entry(self):
        cache = RootCache(maxsize=16)
        cache.put(RootCache.key((-0.0, 1.0), 0.0, 1.0), (0.5,))
        assert cache.get(RootCache.key((0.0, 1.0), -0.0, 1.0)) == (0.5,)
        assert len(cache._entries) == 1


# ----------------------------------------------------------------------
# hot-path counter binding
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# serial vs sharded parity (the determinism contract, property-style)
# ----------------------------------------------------------------------
FILT_SQL = "select * from ticks where x > 1"
JOIN_SQL = (
    "select from ticks T join quotes Q on (T.sym = Q.sym and T.x > Q.y)"
)
#: Windowed group-by aggregate: exercises per-key window state, which
#: priming must never mutate and sharding must never reorder.
AGG_SQL = (
    "select sym, avg(x) as ax from ticks [size 4 advance 2] group by sym"
)


def random_trace(seed, keys=("a", "b", "c"), rows_per_key=6, degree=4):
    """Randomized two-stream trace with overlapping same-key updates."""
    rng = random.Random(seed)
    events = []
    clock = {k: 0.0 for k in keys}
    for _ in range(rows_per_key):
        for k in keys:
            start = clock[k]
            dur = rng.uniform(0.5, 2.5)
            for stream, attr in (("ticks", "x"), ("quotes", "y")):
                coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
                events.append(
                    (
                        stream,
                        Segment(
                            (k,), start, start + dur,
                            {attr: Polynomial(coeffs)},
                            constants={"sym": k},
                        ),
                    )
                )
            clock[k] = start + rng.uniform(0.2, 1.5)
    return events


def drive(num_shards, events, fault_rate=0.0, breaker=None, parallel=False):
    """Run one trace through a fresh runtime; return comparable state.

    Shards run inline unless ``parallel`` says otherwise, so what these
    cases compare does not depend on the host's core count.
    """
    reset_global_solve_cache()
    reset_worker_root_cache()
    reset_counters()
    kw = {} if breaker is None else {"breaker": breaker}
    rt = QueryRuntime(
        num_shards=num_shards, batch_size=32, parallel=parallel, **kw
    )
    try:
        rt.register(
            "filt", to_continuous_plan(plan_query(parse_query(FILT_SQL)))
        )
        rt.register(
            "join", to_continuous_plan(plan_query(parse_query(JOIN_SQL)))
        )
        rt.register(
            "agg", to_continuous_plan(plan_query(parse_query(AGG_SQL)))
        )
        for stream, seg in events:
            rt.enqueue(stream, seg)
        if fault_rate:
            # rate=1.0 fails every solve deterministically regardless of
            # call order, so serial and sharded trip breakers alike.
            with inject_solver_faults(rate=fault_rate):
                rt.run_until_idle()
            # Recovery phase: the trace replays clean, shifted in time.
            for stream, seg in events:
                rt.enqueue(
                    stream,
                    Segment(
                        seg.key, seg.t_start + 1000.0, seg.t_end + 1000.0,
                        dict(seg.models), constants=dict(seg.constants),
                    ),
                )
        rt.run_until_idle()
        outputs = {
            name: [
                (
                    s.key, s.t_start, s.t_end,
                    sorted(s.constants.items()),
                    # Model coefficients included so aggregate parity
                    # compares computed values, not just window bounds.
                    sorted((a, repr(p)) for a, p in s.models.items()),
                )
                for s in rt.outputs(name)
            ]
            for name in rt.query_names
        }
        counters = {
            **counter_snapshot("equation_system"),
            **counter_snapshot("resilience"),
            "step_errors": rt.step_errors,
        }
    finally:
        rt.close()
    return outputs, counters


class TestSerialShardParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_outputs_and_counters_identical(self, seed, num_shards):
        events = random_trace(seed)
        serial_out, serial_counters = drive(1, events)
        shard_out, shard_counters = drive(num_shards, events)
        assert shard_out == serial_out
        assert shard_counters == serial_counters

    def test_process_pools_match_serial_outputs(self):
        # The one case that forces real worker processes on every host.
        # Outputs only: counters that ride home from pool workers are
        # not part of the parity contract.
        events = random_trace(1)
        serial_out, _ = drive(1, events)
        pooled_out, _ = drive(2, events, parallel=True)
        assert pooled_out == serial_out

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_breaker_tripping_trace_stays_identical(self, num_shards):
        events = random_trace(7, rows_per_key=4)
        breaker = BreakerConfig(
            failure_threshold=2, backoff=3, probe_successes=1
        )
        serial_out, serial_counters = drive(
            1, events, fault_rate=1.0, breaker=breaker
        )
        shard_out, shard_counters = drive(
            num_shards, events, fault_rate=1.0, breaker=breaker
        )
        assert serial_counters["resilience.breaker.opened"] > 0
        assert shard_out == serial_out
        assert shard_counters == serial_counters

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_aggregate_group_by_parity_is_not_vacuous(self, num_shards):
        # The group-by windows must actually fire on this trace, and
        # the per-key averages must be bit-identical across shardings.
        events = random_trace(5, rows_per_key=8)
        serial_out, _ = drive(1, events)
        shard_out, _ = drive(num_shards, events)
        assert serial_out["agg"], "aggregate produced no output segments"
        assert shard_out["agg"] == serial_out["agg"]

    def test_aggregate_breaker_trip_parity(self):
        events = random_trace(13, rows_per_key=4)
        breaker = BreakerConfig(
            failure_threshold=2, backoff=3, probe_successes=1
        )
        serial_out, serial_counters = drive(
            1, events, fault_rate=1.0, breaker=breaker
        )
        shard_out, shard_counters = drive(
            3, events, fault_rate=1.0, breaker=breaker
        )
        assert serial_counters["resilience.breaker.opened"] > 0
        assert serial_out["agg"]
        assert shard_out == serial_out
        assert shard_counters == serial_counters

    def test_parallel_stats_surface(self):
        events = random_trace(11, rows_per_key=3)
        reset_global_solve_cache()
        reset_worker_root_cache()
        reset_counters()
        rt = QueryRuntime(num_shards=2, batch_size=16, parallel=False)
        try:
            rt.register(
                "join",
                to_continuous_plan(plan_query(parse_query(JOIN_SQL))),
            )
            for stream, seg in events:
                rt.enqueue(stream, seg)
            rt.run_until_idle()
            stats = rt.parallel_stats()
            assert stats["num_shards"] == 2
            assert stats["rows_dispatched"] > 0
        finally:
            rt.close()
