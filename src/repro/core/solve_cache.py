"""Bounded LRU memoization of difference-row solves.

Joins re-solve byte-identical systems whenever only one side of an
alignment changes — the same repeated-subcomputation waste DBSP-style
incremental view maintenance eliminates by memoizing operator deltas.
:class:`SolveCache` memoizes ``solve_relation`` results keyed on the
coefficient tuple, the relation, and the solving domain;
values are immutable :class:`~repro.core.intervals.TimeSet` objects, so
sharing them between callers is safe.

Hit/miss/eviction counts are exported through the
:mod:`repro.engine.metrics` registry under ``solve_cache.hits`` /
``.misses`` / ``.evictions``.

All cache keys canonicalize ``-0.0`` to ``0.0``: the two hash and
compare equal, so without normalization a ``-0.0`` coefficient would
silently share an entry whose *stored key* reprs differently in
diagnostics (``(-0.0,)`` vs ``(0.0,)``) depending on which row arrived
first.  :func:`normalize_zero` is the single place that rule lives.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from .intervals import TimeSet
from .polynomial import Polynomial
from .relation import Rel

CacheKey = Hashable

#: Observer called with ``(event, entries)`` after every cache ``put``
#: (``event`` is ``"put"`` or ``"evict"``), installed by
#: :func:`repro.engine.tracing.enable_observability` to keep the
#: ``solve_cache.entries`` gauge live and surface eviction events in
#: traces.  ``None`` (the default) keeps ``put`` at one global load +
#: ``is None`` test.
_CACHE_OBSERVER = None


def set_cache_observer(observer) -> None:
    """Install (or clear) the cache event observer."""
    global _CACHE_OBSERVER
    _CACHE_OBSERVER = observer


def normalize_zero(value: float) -> float:
    """Canonicalize ``-0.0`` to ``0.0`` (all other values pass through).

    ``-0.0 == 0.0`` and both hash equal, so either works as a dict key —
    but the *stored* key keeps the sign bit it arrived with, which leaks
    into diagnostics (``repr``) and makes cache dumps depend on arrival
    order.  Every cache-key builder routes floats through here.
    """
    if value == 0.0:
        return 0.0
    return value


class SolveCache:
    """Bounded LRU cache of row-solve results.

    Parameters
    ----------
    maxsize:
        Entry bound; the least recently used entry is evicted beyond it.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[CacheKey, TimeSet] = OrderedDict()
        # Counter handles are bound once here, never looked up by name
        # on the get/put hot path.  Imported here so importing
        # repro.core alone never drags the engine package in at
        # module-import time.
        from ..engine.metrics import get_counter

        self._hits_counter = get_counter("solve_cache.hits")
        self._misses_counter = get_counter("solve_cache.misses")
        self._evictions_counter = get_counter("solve_cache.evictions")

    # ------------------------------------------------------------------
    def key(self, poly: Polynomial, rel: Rel, lo: float, hi: float) -> CacheKey:
        """Cache key for one row solve over ``[lo, hi)``.

        Coefficients and domain bounds canonicalize ``-0.0`` to ``0.0``
        (see :func:`normalize_zero`), so byte-identical systems that
        differ only in signed zeros still collide.
        """
        coeffs = poly.coeffs
        # containment compares with ==, so -0.0 is found; rows with no
        # zero at all (the common case) skip the per-element rewrite
        if 0.0 in coeffs:
            coeffs = tuple(normalize_zero(c) for c in coeffs)
        return (coeffs, rel, normalize_zero(lo), normalize_zero(hi))

    def get(self, key: CacheKey) -> TimeSet | None:
        entry = self._entries.get(key)
        if entry is None:
            self._misses_counter.bump()
            return None
        self._entries.move_to_end(key)
        self._hits_counter.bump()
        return entry

    def put(self, key: CacheKey, value: TimeSet) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        evicted = False
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions_counter.bump()
            evicted = True
        observer = _CACHE_OBSERVER
        if observer is not None:
            observer("evict" if evicted else "put", len(self._entries))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hits(self) -> int:
        return self._hits_counter.value

    @property
    def misses(self) -> int:
        return self._misses_counter.value

    @property
    def evictions(self) -> int:
        return self._evictions_counter.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_GLOBAL_CACHE: SolveCache | None = None


def global_solve_cache() -> SolveCache:
    """The process-wide solve cache, sized from :data:`SOLVER_CONFIG`."""
    global _GLOBAL_CACHE
    from .batch_solver import SOLVER_CONFIG

    if (
        _GLOBAL_CACHE is None
        or _GLOBAL_CACHE.maxsize != SOLVER_CONFIG.cache_size
    ):
        _GLOBAL_CACHE = SolveCache(maxsize=SOLVER_CONFIG.cache_size)
    return _GLOBAL_CACHE


def reset_global_solve_cache() -> None:
    """Drop the global cache (entries and identity; counters persist)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = None
