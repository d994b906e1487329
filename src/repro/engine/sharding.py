"""Stable key-to-shard assignment for the router fleet.

Pulse's per-key independence (PAPER.md Sections II-B/III-A: every
selective operator solves one ``(query, key)`` equation system at a
time) makes the workload embarrassingly parallel across keys — the same
property DBSP exploits by giving each shard a disjoint key range.
:mod:`repro.server.router` partitions arrivals over its workers with
:func:`shard_of`, a *stable* hash assignment of keys to ``N`` shards.
Python's built-in ``hash`` for strings is salted per process
(``PYTHONHASHSEED``), which would scatter the same key differently in
different processes; keys are instead canonically byte-encoded and
hashed with BLAKE2b, so the assignment is identical across processes,
runs and machines.  :class:`KeyOrdinals` lets the router's merge edge
restore a single engine's key order.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Hashable, Sequence


def canonical_key_bytes(key: Hashable) -> bytes:
    """A stable byte encoding of a stream key.

    Covers the key shapes the runtime produces — strings, numbers, and
    (nested) tuples of them (joins concatenate their sides' key tuples).
    Encodings are prefixed by a type tag and, for containers, a length,
    so distinct keys cannot collide by concatenation (``("ab", "c")``
    vs ``("a", "bc")``).  Unknown types fall back to ``repr``, which is
    stable for value-like objects.
    """
    if key is None:
        return b"n"
    if isinstance(key, bool):  # before int: bool subclasses int
        return b"b1" if key else b"b0"
    if isinstance(key, str):
        data = key.encode("utf-8")
        return b"s" + struct.pack("<q", len(data)) + data
    if isinstance(key, bytes):
        return b"y" + struct.pack("<q", len(key)) + key
    if isinstance(key, int):
        data = str(key).encode("ascii")
        return b"i" + struct.pack("<q", len(data)) + data
    if isinstance(key, float):
        return b"f" + struct.pack("<d", key)
    if isinstance(key, tuple):
        parts = [canonical_key_bytes(item) for item in key]
        return b"t" + struct.pack("<q", len(parts)) + b"".join(parts)
    if isinstance(key, frozenset):
        parts = sorted(canonical_key_bytes(item) for item in key)
        return b"z" + struct.pack("<q", len(parts)) + b"".join(parts)
    data = repr(key).encode("utf-8")
    return b"r" + struct.pack("<q", len(data)) + data


def tuple_key(tup, key_fields: Sequence[str]) -> tuple:
    """The routing key of one (mapping-like) stream tuple.

    Mirrors ``StreamTuple.key`` — a tuple of the key fields' values in
    declaration order — but tolerates missing fields (``None`` slots)
    so the router can assign *any* validated tuple a shard
    deterministically instead of failing mid-batch; the worker's own
    fit boundary still rejects the tuple with a typed count.
    """
    return tuple(tup.get(field) for field in key_fields)


def stable_key_hash(key: Hashable) -> int:
    """A 64-bit process-independent hash of a stream key."""
    digest = blake2b(canonical_key_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shard_of(key: Hashable, num_shards: int) -> int:
    """The shard owning ``key`` under an ``N``-way partition."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if num_shards == 1:
        return 0
    return stable_key_hash(key) % num_shards


class KeyOrdinals:
    """First-arrival ordinals for stream keys.

    ``StreamModelBuilder`` iterates its per-key state in insertion
    order, so a single engine's flush tail comes out in *first-arrival
    key order*.  A fleet flush drains worker-major instead; recording
    the ordinal at which each key was first routed lets the merge edge
    stable-sort the fleet's flush tail back into the exact order the
    single engine would have produced.
    """

    __slots__ = ("_ordinals",)

    def __init__(self):
        self._ordinals: dict[Hashable, int] = {}

    def observe(self, key: Hashable) -> int:
        """Record ``key`` if unseen; returns its first-arrival ordinal."""
        ordinal = self._ordinals.get(key)
        if ordinal is None:
            ordinal = len(self._ordinals)
            self._ordinals[key] = ordinal
        return ordinal

    def ordinal_of(self, key: Hashable) -> int:
        """The ordinal of a seen key; unseen keys sort last, stably."""
        return self._ordinals.get(key, len(self._ordinals))

    def __len__(self) -> int:
        return len(self._ordinals)
