"""Unit tests for the delta module: LruMemo and SolutionStore.

These pin the invariants solution reuse rests on: bounded LRU recency
order with metered eviction, the solution store's exact/covered/
seam-reject lookup ladder and widest-domain store policy, the
compiled-but-unsolved entries the priming pass leaves behind, and the
pickling contracts (memos keep entries, stores drop them).
"""

import pickle

from repro.core.delta import SEAM_GUARD, LruMemo, SolutionStore
from repro.core.intervals import TimeSet
from repro.engine.metrics import get_counter, reset_counters


import pytest


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_counters()
    yield
    reset_counters()


# ----------------------------------------------------------------------
# LruMemo
# ----------------------------------------------------------------------
class TestLruMemo:
    def test_put_get_round_trip(self):
        memo = LruMemo(4, "memo.test")
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert "a" in memo and len(memo) == 1

    def test_eviction_is_lru_not_fifo(self):
        memo = LruMemo(2, "memo.test")
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # refresh "a": "b" is now the LRU entry
        memo.put("c", 3)
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert memo.get("c") == 3

    def test_counters_track_hits_misses_evictions(self):
        memo = LruMemo(1, "memo.test")
        memo.put("a", 1)
        memo.get("a")
        memo.get("zzz")
        memo.put("b", 2)  # evicts "a"
        assert get_counter("memo.test.hits").value == 1
        assert get_counter("memo.test.misses").value == 1
        assert get_counter("memo.test.evictions").value == 1

    def test_overwrite_same_key_does_not_evict(self):
        memo = LruMemo(1, "memo.test")
        memo.put("a", 1)
        memo.put("a", 2)
        assert memo.get("a") == 2
        assert get_counter("memo.test.evictions").value == 0

    def test_clear_empties_without_eviction_counts(self):
        memo = LruMemo(8, "memo.test")
        for i in range(5):
            memo.put(i, i)
        memo.clear()
        assert len(memo) == 0
        assert get_counter("memo.test.evictions").value == 0

    def test_pickle_round_trip_keeps_entries(self):
        memo = LruMemo(3, "memo.test")
        memo.put("a", 1)
        memo.put("b", 2)
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.get("a") == 1 and clone.get("b") == 2
        assert clone.maxsize == 3
        # The rebound clone still meters into the same counter names.
        clone.get("missing")
        assert get_counter("memo.test.misses").value == 1


# ----------------------------------------------------------------------
# SolutionStore
# ----------------------------------------------------------------------
SYSTEM = object()  # the store never looks inside what it is handed


class TestSolutionStore:
    def test_unknown_content_is_none(self):
        store = SolutionStore()
        assert store.lookup("sig", 0.0, 4.0) is None
        assert store.lookup(None, 0.0, 4.0) is None
        assert get_counter("delta.store.misses").value == 2

    def test_exact_domain_hit_is_verbatim(self):
        store = SolutionStore()
        sol = TimeSet.interval(1.0, 2.0)
        store.store("sig", SYSTEM, (0.0, 4.0, sol))
        system, got = store.lookup("sig", 0.0, 4.0)
        assert system is SYSTEM and got is sol
        assert get_counter("delta.store.hits").value == 1

    def test_covered_probe_returns_clip(self):
        store = SolutionStore()
        store.store("sig", SYSTEM, (0.0, 10.0, TimeSet.interval(1.0, 9.0)))
        assert store.lookup("sig", 2.0, 8.0) == (
            SYSTEM, TimeSet.interval(2.0, 8.0)
        )

    def test_uncovered_probe_keeps_the_system(self):
        store = SolutionStore()
        store.store("sig", SYSTEM, (0.0, 4.0, TimeSet.interval(1.0, 2.0)))
        assert store.lookup("sig", 2.0, 6.0) == (SYSTEM, None)
        assert get_counter("delta.store.misses").value == 1
        assert get_counter("delta.store.hits").value == 0

    def test_compiled_only_entry_serves_the_system(self):
        # What the priming pass leaves for the processing pass.
        store = SolutionStore()
        store.store("sig", SYSTEM)
        assert store.lookup("sig", 0.0, 4.0) == (SYSTEM, None)
        sol = TimeSet.interval(1.0, 2.0)
        store.store("sig", SYSTEM, (0.0, 4.0, sol))
        assert store.lookup("sig", 0.0, 4.0) == (SYSTEM, sol)
        # A later compile-only store never drops a solved domain.
        store.store("sig", SYSTEM)
        assert store.lookup("sig", 0.0, 4.0) == (SYSTEM, sol)

    def test_unhashable_content_is_never_stored(self):
        store = SolutionStore()
        store.store(None, SYSTEM, (0.0, 4.0, TimeSet.empty()))
        assert len(store) == 0

    def test_seam_guard_rejects_near_boundary_features(self):
        store = SolutionStore()
        # Stored solution has an endpoint a hair inside the probe seam:
        # clipping it is exactly the case where the clipped set could
        # diverge from a direct solve, so the store must refuse.
        store.store("sig", SYSTEM, (0.0, 10.0, TimeSet.interval(1.0, 5.0)))
        near = 1.0 + SEAM_GUARD / 2
        assert store.lookup("sig", near, 8.0) == (SYSTEM, None)
        assert get_counter("delta.store.seam_rejects").value == 1
        # Far from every stored feature the clip is safe.
        assert store.lookup("sig", 2.0, 8.0)[1] is not None

    def test_widest_domain_wins(self):
        store = SolutionStore()
        store.store("sig", SYSTEM, (2.0, 6.0, TimeSet.interval(3.0, 4.0)))
        # Narrower domain for the same sig is ignored...
        store.store("sig", SYSTEM, (3.0, 5.0, TimeSet.interval(3.0, 4.0)))
        assert store.lookup("sig", 2.0, 6.0)[1] is not None
        # ...a wider one replaces the entry.
        store.store("sig", SYSTEM, (0.0, 8.0, TimeSet.interval(3.0, 4.0)))
        assert store.lookup("sig", 1.0, 7.0)[1] == TimeSet.interval(3.0, 4.0)

    def test_shifted_domain_replaces_entry(self):
        store = SolutionStore()
        store.store("sig", SYSTEM, (0.0, 4.0, TimeSet.interval(1.0, 2.0)))
        store.store("sig", SYSTEM, (2.0, 6.0, TimeSet.interval(3.0, 4.0)))
        # The old domain is gone; the new one serves.
        assert store.lookup("sig", 0.0, 4.0) == (SYSTEM, None)
        assert store.lookup("sig", 2.0, 6.0)[1] == TimeSet.interval(3.0, 4.0)

    def test_lru_eviction_bounded(self):
        store = SolutionStore(maxsize=2)
        store.store("a", SYSTEM, (0.0, 1.0, TimeSet.empty()))
        store.store("b", SYSTEM, (0.0, 1.0, TimeSet.empty()))
        store.store("c", SYSTEM, (0.0, 1.0, TimeSet.empty()))
        assert len(store) == 2
        assert store.lookup("a", 0.0, 1.0) is None
        assert get_counter("delta.store.evictions").value == 1

    def test_pickles_empty(self):
        # Compiled systems and TimeSets are derived caches: a restored
        # runtime rebuilds them from replayed arrivals, so the store
        # ships no entries through a snapshot.
        store = SolutionStore()
        store.store("sig", SYSTEM, (0.0, 4.0, TimeSet.interval(1.0, 2.0)))
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == 0
        assert clone.maxsize == store.maxsize
        clone.store("sig", SYSTEM, (0.0, 4.0, TimeSet.interval(1.0, 2.0)))
        assert clone.lookup("sig", 0.0, 4.0)[1] is not None
