"""Key partitioning: the stable ``shard_of`` the fleet router assigns
workers by."""

import pytest

from repro.engine.sharding import (
    canonical_key_bytes,
    shard_of,
    stable_key_hash,
)


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
