"""Unit tests for the bounded LRU solve cache and its metrics wiring."""

import math

import pytest

from repro.core.batch_solver import SOLVER_CONFIG, solve_tasks
from repro.core.intervals import TimeSet
from repro.core.polynomial import Polynomial
from repro.core.relation import Rel
from repro.core.solve_cache import (
    SolveCache,
    global_solve_cache,
    reset_global_solve_cache,
)
from repro.engine.metrics import reset_counters

COUNTERS = ("solve_cache.hits", "solve_cache.misses", "solve_cache.evictions")


@pytest.fixture(autouse=True)
def fresh_cache_state():
    reset_counters(*COUNTERS)
    reset_global_solve_cache()
    yield
    reset_counters(*COUNTERS)
    reset_global_solve_cache()


class TestSolveCache:
    def test_put_get_round_trip(self):
        cache = SolveCache(maxsize=4)
        key = cache.key(Polynomial([1.0, 2.0]), Rel.LT, 0.0, 1.0)
        value = TimeSet.interval(0.0, 0.5)
        cache.put(key, value)
        assert cache.get(key) is value
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = SolveCache(maxsize=4)
        assert cache.get(("nope",)) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_capacity_bound_and_eviction_order(self):
        cache = SolveCache(maxsize=2)
        cache.put("a", TimeSet.empty())
        cache.put("b", TimeSet.empty())
        cache.put("c", TimeSet.empty())
        assert len(cache) == 2
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = SolveCache(maxsize=2)
        cache.put("a", TimeSet.empty())
        cache.put("b", TimeSet.empty())
        cache.get("a")  # "b" is now least recently used
        cache.put("c", TimeSet.empty())
        assert "a" in cache and "b" not in cache

    def test_signed_zero_keys_collide(self):
        cache = SolveCache(maxsize=4)
        k1 = cache.key(Polynomial([0.0, 1.0]), Rel.LT, -0.0, 1.0)
        k2 = cache.key(Polynomial([-0.0, 1.0]), Rel.LT, 0.0, 1.0)
        assert k1 == k2
        # ...and the stored key reprs the same whichever arrived first.
        assert repr(k1) == repr(k2)

    def test_nearby_floats_do_not_collide(self):
        cache = SolveCache(maxsize=4)
        p1 = Polynomial([1.0, 1.0])
        p2 = Polynomial([math.nextafter(1.0, 2.0), 1.0])
        assert cache.key(p1, Rel.LT, 0.0, 1.0) != cache.key(p2, Rel.LT, 0.0, 1.0)

    def test_distinct_relations_do_not_collide(self):
        cache = SolveCache(maxsize=4)
        p = Polynomial([1.0, 1.0])
        assert cache.key(p, Rel.LT, 0.0, 1.0) != cache.key(p, Rel.GE, 0.0, 1.0)

    def test_stats_and_clear(self):
        cache = SolveCache(maxsize=4)
        cache.put("a", TimeSet.empty())
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_rejects_degenerate_maxsize(self):
        with pytest.raises(ValueError):
            SolveCache(maxsize=0)


class TestGlobalCacheWiring:
    def test_solve_tasks_populates_and_hits(self):
        tasks = [
            (Polynomial([-2.0, 1.0]), Rel.LT, 0.0, 10.0),
            (Polynomial([-4.0, 0.0, 1.0]), Rel.GE, 0.0, 10.0),
        ]
        cold = solve_tasks(tasks)
        cache = global_solve_cache()
        assert cache.misses == len(tasks) and cache.hits == 0
        warm = solve_tasks(tasks)
        assert cache.hits == len(tasks)
        assert cold == warm

    def test_intra_batch_duplicates_hit_once_solved(self):
        task = (Polynomial([-2.0, 1.0]), Rel.LT, 0.0, 10.0)
        a, b = solve_tasks([task, task])
        cache = global_solve_cache()
        assert a == b
        # The duplicate never reaches the kernel twice: one miss fills
        # the entry the second task reads.
        assert cache.misses + cache.hits == 2
        assert cache.misses == 1

    def test_global_cache_tracks_config(self):
        first = global_solve_cache()
        saved = SOLVER_CONFIG.cache_size
        try:
            SOLVER_CONFIG.cache_size = saved + 1
            second = global_solve_cache()
        finally:
            SOLVER_CONFIG.cache_size = saved
        assert second is not first
        assert second.maxsize == saved + 1


class TestSignedZeroKeys:
    def test_solve_cache_key_canonicalizes_negative_zero(self):
        cache = SolveCache(maxsize=16)
        k_pos = cache.key(Polynomial([0.0, 1.0]), Rel.GT, 0.0, 1.0)
        k_neg = cache.key(Polynomial([-0.0, 1.0]), Rel.GT, -0.0, 1.0)
        assert k_pos == k_neg
        assert "-0.0" not in repr(k_neg)
