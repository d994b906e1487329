"""Unit tests for the delta module's LruMemo (the fold memo).

These pin bounded LRU recency order with metered eviction and the
pickling contract (a memo keeps its entries).
"""

import pickle

import pytest

from repro.core.delta import LruMemo
from repro.engine.metrics import get_counter, reset_counters


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
