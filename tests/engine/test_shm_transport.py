"""Shared-memory shard transport: round-trip, parity, lifecycle.

The transport contract has three legs:

* **byte-level**: a packed request segment and result arena round-trip
  a row batch through :func:`solve_rows_shm_worker` with results
  identical to the in-process kernel and to the pickled-payload worker
  (the transport moves bytes, never arithmetic);
* **lifecycle**: every segment a dispatcher creates is unlinked by the
  time it is done with the round — including broken-executor and
  degraded-transport paths — so ``/dev/shm`` never accumulates
  (:func:`active_segments` is the probe);
* **runtime parity**: a forced-``parallel=True`` sharded runtime stays
  bit-identical to the serial runtime, faults and breaker trips
  included, exactly like the inline-sharded one.
"""

import random

import pytest

from repro.core.batch_solver import real_roots_rows, solve_rows_worker
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.solve_cache import (
    reset_global_solve_cache,
    reset_worker_root_cache,
)
from repro.core.transform import to_continuous_plan
from repro.engine import shm_transport
from repro.engine.metrics import counter_snapshot, reset_counters
from repro.engine.parallel import ParallelSolveDispatcher
from repro.engine.resilience import BreakerConfig
from repro.engine.scheduler import QueryRuntime
from repro.query import parse_query, plan_query
from repro.testing import inject_solver_faults

DOMAIN = (0.0, 10.0)


def _rows(seed: int = 11, n: int = 40) -> list[tuple]:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        degree = rng.randint(1, 5)
        coeffs = tuple(rng.uniform(-3.0, 3.0) for _ in range(degree + 1))
        rows.append((coeffs, *DOMAIN))
    return rows


def _pack(rows):
    lengths, lo, hi, coeffs = ParallelSolveDispatcher._pack_arrays(rows)
    return shm_transport.pack_round(lengths, lo, hi, coeffs)


class TestWorkerRoundTrip:
    def test_matches_inline_kernel(self):
        rows = _rows()
        request, arena = _pack(rows)
        try:
            out = shm_transport.solve_rows_shm_worker(
                {
                    "request": request.meta(),
                    "result": arena.meta(),
                    "cache": False,
                    "shard": 0,
                }
            )
            offsets, flat = arena.read()
        finally:
            request.destroy()
            arena.destroy()
        assert out["failures"] == []
        assert out["n_roots"] == int(offsets[-1]) == len(flat)
        expect = real_roots_rows(rows)
        got = [
            [float(v) for v in flat[offsets[i] : offsets[i + 1]]]
            for i in range(len(rows))
        ]
        assert got == expect
        assert shm_transport.active_segments() == []

    def test_matches_pickle_worker_bit_exactly(self):
        rows = _rows(seed=23)
        lengths, lo, hi, coeffs = ParallelSolveDispatcher._pack_arrays(rows)
        via_pickle = solve_rows_worker(
            {
                "coeffs": coeffs,
                "lengths": lengths,
                "lo": lo,
                "hi": hi,
                "cache": False,
                "shard": 0,
            }
        )
        request, arena = _pack(rows)
        try:
            out = shm_transport.solve_rows_shm_worker(
                {
                    "request": request.meta(),
                    "result": arena.meta(),
                    "cache": False,
                    "shard": 0,
                }
            )
            offsets, flat = arena.read()
        finally:
            request.destroy()
            arena.destroy()
        assert list(offsets) == list(via_pickle["offsets"])
        assert list(flat) == list(via_pickle["roots"])
        assert out["failures"] == via_pickle["failures"]

    def test_failing_rows_reported_not_written(self):
        # A zero polynomial fails typed; its root span stays empty and
        # the healthy neighbours are unaffected.
        rows = [
            ((1.0, 1.0), *DOMAIN),
            ((0.0,), *DOMAIN),
            ((-4.0, 0.0, 1.0), *DOMAIN),
        ]
        request, arena = _pack(rows)
        try:
            out = shm_transport.solve_rows_shm_worker(
                {
                    "request": request.meta(),
                    "result": arena.meta(),
                    "cache": False,
                    "shard": 0,
                }
            )
            offsets, flat = arena.read()
        finally:
            request.destroy()
            arena.destroy()
        assert [idx for idx, _, _ in out["failures"]] == [1]
        assert offsets[1] == offsets[2]  # empty span for the failed row
        assert [float(v) for v in flat[offsets[2] : offsets[3]]] == [2.0]
        assert shm_transport.active_segments() == []


class TestSegmentLifecycle:
    def test_pack_round_allocates_and_destroy_unlinks(self):
        rows = _rows(n=8)
        request, arena = _pack(rows)
        names = {request.shm.name, arena.shm.name}
        assert names <= set(shm_transport.active_segments())
        request.destroy()
        arena.destroy()
        assert shm_transport.active_segments() == []

    def test_destroy_is_idempotent(self):
        request, arena = _pack(_rows(n=3))
        for _ in range(2):
            request.destroy()
            arena.destroy()
        assert shm_transport.active_segments() == []

    def test_dispatcher_leaves_no_segments(self):
        rows = _rows(n=30)
        dispatcher = ParallelSolveDispatcher(2, parallel=True)
        try:
            by_shard = {0: rows[:15], 1: rows[15:]}
            primed = dispatcher.prime(by_shard)
            stats = dispatcher.stats()
            if not dispatcher.inline_shards:
                assert stats["transport"] == "shm"
                assert stats["shm_rounds"] == 2
                assert stats["shm_bytes_shipped"] > 0
                assert primed == len(rows)
        finally:
            dispatcher.shutdown()
        assert shm_transport.active_segments() == []

    def test_inline_dispatcher_never_ships_segments(self):
        dispatcher = ParallelSolveDispatcher(2, parallel=False)
        try:
            dispatcher.prime({0: _rows(n=10)})
            assert dispatcher.shm_rounds == 0
        finally:
            dispatcher.shutdown()
        assert shm_transport.active_segments() == []


class TestDegradation:
    """Pickled payloads are the automatic fallback, reached only by
    shared-memory segment creation failing with ``OSError``."""

    @pytest.mark.parametrize("fail_on", [1, 2], ids=["request", "arena"])
    def test_falls_back_to_pickle_when_shm_unavailable(
        self, monkeypatch, fail_on
    ):
        real = shm_transport.shared_memory.SharedMemory
        created = []

        def flaky(*args, create=False, **kwargs):
            if create:
                created.append(kwargs.get("name"))
                if len(created) >= fail_on:
                    raise OSError("no /dev/shm in this container")
            return real(*args, create=create, **kwargs)

        monkeypatch.setattr(
            shm_transport.shared_memory, "SharedMemory", flaky
        )
        rows = _rows(n=20)
        dispatcher = ParallelSolveDispatcher(2, parallel=True)
        try:
            primed = dispatcher.prime({0: rows[:10], 1: rows[10:]})
            assert primed == len(rows)
            if not dispatcher.inline_shards:
                # Pool shards actually hit the broken allocator: the
                # degradation must stick and be reported honestly.
                assert dispatcher._shm_broken
                assert dispatcher.stats()["transport"] == "pickle"
                assert dispatcher.shm_rounds == 0
                # One failed allocation, then no further attempts.
                assert len(created) == fail_on
            # The fallback moved the same bytes: every primed row is
            # served from the root store, equal to the in-process kernel.
            items = [(Polynomial(list(c)), lo, hi) for c, lo, hi in rows]
            before = dispatcher.root_store_stats()
            assert dispatcher.dispatch_roots(items) == real_roots_rows(rows)
            after = dispatcher.root_store_stats()
            assert after.hits - before.hits == len(rows)
        finally:
            dispatcher.shutdown()
        # A request segment allocated before the arena failed is unlinked.
        assert shm_transport.active_segments() == []


# ----------------------------------------------------------------------
# forced-parallel runtime parity (process pools even on 1 CPU)
# ----------------------------------------------------------------------
FILT_SQL = "select * from ticks where x > 1"


def _trace(seed=5, keys=("a", "b"), rows_per_key=4, degree=4):
    rng = random.Random(seed)
    events = []
    clock = {k: 0.0 for k in keys}
    for _ in range(rows_per_key):
        for k in keys:
            start = clock[k]
            coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
            events.append(
                (
                    "ticks",
                    Segment(
                        (k,), start, start + rng.uniform(0.5, 2.0),
                        {"x": Polynomial(coeffs)},
                        constants={"sym": k},
                    ),
                )
            )
            clock[k] = start + rng.uniform(0.2, 1.0)
    return events


def _drive(num_shards, parallel, events, fault_rate=0.0, breaker=None):
    reset_global_solve_cache()
    reset_worker_root_cache()
    reset_counters()
    kw = {} if breaker is None else {"breaker": breaker}
    rt = QueryRuntime(
        num_shards=num_shards, parallel=parallel, batch_size=32, **kw
    )
    try:
        rt.register(
            "filt", to_continuous_plan(plan_query(parse_query(FILT_SQL)))
        )
        for stream, seg in events:
            rt.enqueue(stream, seg)
        if fault_rate:
            with inject_solver_faults(rate=fault_rate):
                rt.run_until_idle()
            for stream, seg in events:
                rt.enqueue(
                    stream,
                    Segment(
                        seg.key, seg.t_start + 1000.0, seg.t_end + 1000.0,
                        dict(seg.models), constants=dict(seg.constants),
                    ),
                )
        rt.run_until_idle()
        outputs = [
            (
                s.key, s.t_start, s.t_end,
                sorted(s.constants.items()),
                sorted((a, repr(p)) for a, p in s.models.items()),
            )
            for s in rt.outputs("filt")
        ]
        counters = {
            **counter_snapshot("equation_system"),
            **counter_snapshot("resilience"),
            "step_errors": rt.step_errors,
        }
    finally:
        rt.close()
    return outputs, counters


class TestForcedParallelParity:
    def test_serial_vs_shard_parity(self):
        events = _trace()
        serial_out, serial_counters = _drive(1, False, events)
        shard_out, shard_counters = _drive(2, True, events)
        assert shard_out == serial_out
        assert shard_counters == serial_counters
        assert shm_transport.active_segments() == []

    def test_breaker_tripping_trace_parity(self):
        events = _trace(seed=9)
        breaker = BreakerConfig(
            failure_threshold=2, backoff=3, probe_successes=1
        )
        serial_out, serial_counters = _drive(
            1, False, events, fault_rate=1.0, breaker=breaker
        )
        shard_out, shard_counters = _drive(
            2, True, events, fault_rate=1.0, breaker=breaker
        )
        assert serial_counters["resilience.breaker.opened"] > 0
        assert shard_out == serial_out
        assert shard_counters == serial_counters
        assert shm_transport.active_segments() == []
