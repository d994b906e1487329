"""Key-sharded round priming: partitioning, priming, parity.

The determinism contract under test: for any trace, any shard count and
any fault pattern, the primed runtime produces *bit-identical* outputs
and identical semantic counters to the unprimed one.  Priming may only
move work earlier, into one prefill sweep per round — never change it.
"""

import random

import pytest

from repro.core import batch_solver
from repro.core.equation_system import EquationSystem
from repro.core.expr import Attr, Const
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment
from repro.core.solve_cache import SolveCache, reset_global_solve_cache
from repro.core.transform import to_continuous_plan
from repro.engine import scheduler
from repro.engine.resilience import BreakerConfig
from repro.engine.metrics import counter_snapshot, get_counter, reset_counters
from repro.engine.scheduler import QueryRuntime
from repro.engine.sharding import (
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


# ----------------------------------------------------------------------
# prediction: solve tasks
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
# unprimed vs primed parity (the determinism contract, property-style)
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


def canonical(segments):
    """Output segments as comparable values (segment ids left out)."""
    return [
        (
            s.key, s.t_start, s.t_end,
            sorted(s.constants.items()),
            # Model coefficients included so aggregate parity compares
            # computed values, not just window bounds.
            sorted((a, repr(p)) for a, p in s.models.items()),
        )
        for s in segments
    ]


def drive(num_shards, events, fault_rate=0.0, breaker=None):
    """Run one trace through a fresh runtime; return comparable state."""
    reset_global_solve_cache()
    reset_counters()
    kw = {} if breaker is None else {"breaker": breaker}
    rt = QueryRuntime(num_shards=num_shards, batch_size=32, **kw)
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
        outputs = {name: canonical(rt.outputs(name)) for name in rt.query_names}
        counters = {
            **counter_snapshot("equation_system"),
            **counter_snapshot("resilience"),
            "step_errors": rt.step_errors,
        }
    finally:
        rt.close()
    return outputs, counters


class TestRoundPriming:
    """What ``num_shards > 1`` does: one prefill sweep per round."""

    def _primed_join_round(self, monkeypatch, events, batch_size):
        """Run ``events`` through a primed join query; log each prefill
        call's task count and kernel sweeps, plus the solve-cache hits
        and misses the processing passes saw."""
        reset_global_solve_cache()
        reset_counters()
        hits = get_counter("solve_cache.hits")
        misses = get_counter("solve_cache.misses")
        prefills: list[dict] = []
        processing = {"hits": 0, "misses": 0, "sweeps": 0}
        in_prefill = [False]
        real_solve_tasks = scheduler.solve_tasks
        real_sweep = batch_solver.solve_relation_batch

        def solve_tasks(tasks, failures=None):
            call = {"tasks": len(tasks), "sweeps": 0}
            prefills.append(call)
            in_prefill[0] = True
            h, m = hits.value, misses.value
            try:
                return real_solve_tasks(tasks, failures)
            finally:
                in_prefill[0] = False
                # Prefill lookups are not the processing pass's.
                processing["hits"] -= hits.value - h
                processing["misses"] -= misses.value - m

        def sweep(tasks, failures=None):
            if in_prefill[0]:
                prefills[-1]["sweeps"] += 1
            else:
                processing["sweeps"] += 1
            return real_sweep(tasks, failures)

        monkeypatch.setattr(scheduler, "solve_tasks", solve_tasks)
        monkeypatch.setattr(batch_solver, "solve_relation_batch", sweep)
        h0, m0 = hits.value, misses.value
        with QueryRuntime(num_shards=2, batch_size=batch_size) as rt:
            rt.register(
                "join",
                to_continuous_plan(plan_query(parse_query(JOIN_SQL))),
            )
            for stream, seg in events:
                rt.enqueue(stream, seg)
            rt.run_until_idle()
            outputs = canonical(rt.outputs("join"))
            stats = rt.parallel_stats()
        processing["hits"] += hits.value - h0
        processing["misses"] += misses.value - m0
        return prefills, processing, outputs, stats

    def _unprimed_join(self, events):
        reset_global_solve_cache()
        reset_counters()
        with QueryRuntime(num_shards=1, batch_size=len(events)) as rt:
            rt.register(
                "join",
                to_continuous_plan(plan_query(parse_query(JOIN_SQL))),
            )
            for stream, seg in events:
                rt.enqueue(stream, seg)
            rt.run_until_idle()
            return canonical(rt.outputs("join"))

    def test_one_round_is_one_prefill_sweep(self, monkeypatch):
        events = random_trace(3)
        prefills, processing, outputs, stats = self._primed_join_round(
            monkeypatch, events, batch_size=len(events)
        )
        # The whole round's predicted work is one solve_tasks call whose
        # misses go through one kernel sweep.
        assert len(prefills) == 1
        predicted = prefills[0]["tasks"]
        assert predicted > 0
        assert prefills[0]["sweeps"] == 1
        assert stats == {
            "num_shards": 2, "rounds_primed": 1, "tasks_primed": predicted,
        }
        # Processing then finds every predicted task in the solve cache.
        assert processing["hits"] >= predicted
        assert processing["misses"] == 0
        assert processing["sweeps"] == 0
        assert outputs
        assert outputs == self._unprimed_join(events)

    def test_every_round_primes_once(self, monkeypatch):
        events = random_trace(4)
        prefills, _, outputs, stats = self._primed_join_round(
            monkeypatch, events, batch_size=8
        )
        assert len(prefills) == stats["rounds_primed"] > 1
        assert sum(call["tasks"] for call in prefills) == stats["tasks_primed"]
        assert all(call["sweeps"] <= 1 for call in prefills)
        assert outputs == self._unprimed_join(events)


class TestSerialShardParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_outputs_and_counters_identical(self, seed, num_shards):
        events = random_trace(seed)
        serial_out, serial_counters = drive(1, events)
        shard_out, shard_counters = drive(num_shards, events)
        assert shard_out == serial_out
        assert shard_counters == serial_counters

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
        reset_counters()
        with QueryRuntime() as serial:
            assert serial.parallel_stats() is None
        rt = QueryRuntime(num_shards=2, batch_size=16)
        try:
            rt.register(
                "join",
                to_continuous_plan(plan_query(parse_query(JOIN_SQL))),
            )
            for stream, seg in events:
                rt.enqueue(stream, seg)
            rt.run_until_idle()
            stats = rt.parallel_stats()
            assert set(stats) == {"num_shards", "rounds_primed", "tasks_primed"}
            assert stats["num_shards"] == 2
            assert stats["rounds_primed"] > 0
            assert stats["tasks_primed"] > 0
        finally:
            rt.close()
