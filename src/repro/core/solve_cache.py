"""Bounded LRU memoization of difference-row solves.

Joins re-solve byte-identical systems whenever only one side of an
alignment changes — the same repeated-subcomputation waste DBSP-style
incremental view maintenance eliminates by memoizing operator deltas.
:class:`SolveCache` memoizes ``solve_relation`` results keyed on the
coefficient tuple, the relation, and the solving domain;
values are immutable :class:`~repro.core.intervals.TimeSet` objects, so
sharing them between callers is safe.

Two cache layers exist since the sharded parallel runtime:

* :class:`SolveCache` — the *parent-process* TimeSet cache consulted by
  the :func:`~repro.core.batch_solver.solve_tasks` funnel.  Its hit/miss
  /eviction counts are exported through the :mod:`repro.engine.metrics`
  registry under ``solve_cache.hits`` / ``.misses`` / ``.evictions``.
* :class:`RootCache` — a *per-worker* cache of raw root arrays used by
  :func:`~repro.core.batch_solver.solve_rows_worker`.  Workers may live
  in forked shard processes with no access to the parent's registry, so
  the root cache counts locally and exports a mergeable
  :class:`CacheStats` snapshot that the dispatcher ships back with each
  result payload; :func:`repro.engine.metrics.absorb_cache_stats`
  aggregates the per-shard snapshots into the shared registry.

All cache keys canonicalize ``-0.0`` to ``0.0``: the two hash and
compare equal, so without normalization a ``-0.0`` coefficient would
silently share an entry whose *stored key* reprs differently in
diagnostics (``(-0.0,)`` vs ``(0.0,)``) depending on which row arrived
first.  :func:`normalize_zero` is the single place that rule lives.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .intervals import TimeSet
from .polynomial import Polynomial
from .relation import Rel

CacheKey = Hashable

#: Observer called with ``(event, entries)`` after every parent-cache
#: ``put`` (``event`` is ``"put"`` or ``"evict"``), installed by
#: :func:`repro.engine.tracing.enable_observability` to keep the
#: ``solve_cache.entries`` gauge live and surface eviction events in
#: traces.  ``None`` (the default) keeps ``put`` at one global load +
#: ``is None`` test.
_CACHE_OBSERVER = None


def set_cache_observer(observer) -> None:
    """Install (or clear) the parent-cache event observer."""
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


@dataclass(frozen=True)
class CacheStats:
    """A mergeable point-in-time snapshot of one cache's counters.

    Shard workers return one of these with every result payload;
    snapshots add component-wise so the dispatcher can fold any number
    of per-worker snapshots into a single aggregate for the metrics
    registry (``entries`` sums too: it reads as the fleet-wide cached
    population across workers).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            entries=self.entries + other.entries,
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }

    @classmethod
    def merge(cls, snapshots: Iterable["CacheStats"]) -> "CacheStats":
        total = cls()
        for snap in snapshots:
            total = total + snap
        return total


class _LocalCounter:
    """Registry-free counter with the :class:`~..engine.metrics.Counter`
    interface, for caches living in worker processes."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, by: int = 1) -> None:
        self.value += by

    def reset(self) -> None:
        self.value = 0


class SolveCache:
    """Bounded LRU cache of row-solve results.

    Parameters
    ----------
    maxsize:
        Entry bound; the least recently used entry is evicted beyond it.
    use_registry:
        When ``True`` (the default) hit/miss/eviction counters live in
        the process-wide :mod:`repro.engine.metrics` registry.  Worker
        processes pass ``False`` to count locally — the engine package
        is never imported, and the counts travel back to the parent as
        a :class:`CacheStats` snapshot instead.
    """

    def __init__(self, maxsize: int = 4096, use_registry: bool = True):
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self.use_registry = use_registry
        self._entries: OrderedDict[CacheKey, TimeSet] = OrderedDict()
        # Counter handles are bound once here, never looked up by name
        # on the get/put hot path.
        if use_registry:
            # Imported here so importing repro.core alone never drags
            # the engine package in at module-import time.
            from ..engine.metrics import get_counter

            self._hits_counter = get_counter("solve_cache.hits")
            self._misses_counter = get_counter("solve_cache.misses")
            self._evictions_counter = get_counter("solve_cache.evictions")
        else:
            self._hits_counter = _LocalCounter()
            self._misses_counter = _LocalCounter()
            self._evictions_counter = _LocalCounter()

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

    def snapshot(self) -> CacheStats:
        """Mergeable counter snapshot (see :class:`CacheStats`)."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
        )

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class RootCache:
    """Bounded LRU cache of per-row *root arrays* (worker-side layer).

    Where :class:`SolveCache` memoizes finished :class:`TimeSet`
    solutions in the parent process, this caches the expensive middle of
    the pipeline — the sorted, deduplicated, domain-filtered real roots
    of one difference row over one domain — which is exactly what shard
    workers compute and ship back as float arrays.  Values are tuples of
    floats; failures are never cached, so a poisoned row re-raises
    identically on every encounter.

    The cache never touches the metrics registry (workers may be forked
    shard processes); counts are local and exported via
    :meth:`snapshot`.
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 16384):
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[CacheKey, tuple[float, ...]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(coeffs: Sequence[float], lo: float, hi: float) -> CacheKey:
        """Key for one row's root query; ``-0.0`` canonicalizes to ``0.0``.

        ``coeffs`` may be a slice of a float64 payload matrix — entries
        are passed through :func:`normalize_zero` so a ``-0.0``
        coefficient cannot create a shadow entry with a differing repr.
        """
        row = tuple(map(float, coeffs))
        # containment compares with ==, so -0.0 is found; rows with no
        # zero at all (the common case) skip the per-element rewrite
        if 0.0 in row:
            row = tuple(normalize_zero(c) for c in row)
        return (
            row,
            normalize_zero(float(lo)),
            normalize_zero(float(hi)),
        )

    def get(self, key: CacheKey) -> tuple[float, ...] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, roots: Sequence[float]) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = tuple(roots)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def snapshot(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
        )

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0


_GLOBAL_CACHE: SolveCache | None = None

#: The per-process root cache used by ``solve_rows_worker``.  In a shard
#: worker process this is that worker's private cache; in the parent it
#: doubles as the dispatcher-side root store that primed sweeps fill.
_WORKER_ROOT_CACHE: RootCache | None = None

#: Default bound for per-worker root caches.
WORKER_ROOT_CACHE_SIZE = 16384


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


def worker_root_cache() -> RootCache:
    """This process's root cache (created on first use)."""
    global _WORKER_ROOT_CACHE
    if _WORKER_ROOT_CACHE is None:
        _WORKER_ROOT_CACHE = RootCache(maxsize=WORKER_ROOT_CACHE_SIZE)
    return _WORKER_ROOT_CACHE


def reset_worker_root_cache() -> None:
    """Drop this process's root cache entirely (entries and counts)."""
    global _WORKER_ROOT_CACHE
    _WORKER_ROOT_CACHE = None
