"""What a selective operator remembers about the content it has probed.

:class:`LruMemo` — a bounded LRU mapping with hit/miss/evict counters —
is the one memo object a selective operator owns: its *fold memo*,
discrete signature -> folded residual predicate, which rejects
cross-key pairs before any equation system is compiled.  Compiled
systems and their solutions are not remembered: every probe that
reaches the solver compiles and solves afresh.

Durability.  :class:`LruMemo` keeps its entries across a pickle round
trip and rebinds its metric handles in the restored process.
"""

from __future__ import annotations

from collections import OrderedDict

_MISSING = object()


# ----------------------------------------------------------------------
# bounded LRU memo with metered eviction
# ----------------------------------------------------------------------
class LruMemo:
    """A bounded mapping with LRU eviction and hit/miss/evict counters.

    ``get`` refreshes recency, ``put`` evicts the single
    least-recently-used entry once ``maxsize`` is reached, and traffic
    is metered through the :mod:`repro.engine.metrics` registry under
    ``{metric_prefix}.hits`` / ``.misses`` / ``.evictions`` (handles
    bound once at construction, never resolved per call).
    """

    __slots__ = (
        "_map", "maxsize", "_metric_prefix",
        "_hits", "_misses", "_evictions",
    )

    def __init__(self, maxsize: int, metric_prefix: str):
        if maxsize < 1:
            raise ValueError("LruMemo maxsize must be at least 1")
        self._map: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self._metric_prefix = metric_prefix
        # Imported here: ``repro.core`` must stay importable without the
        # engine package being initialized first.
        from ..engine.metrics import get_counter

        self._hits, self._misses, self._evictions = (
            get_counter(f"{metric_prefix}.{name}")
            for name in ("hits", "misses", "evictions")
        )

    def get(self, key, default=None):
        entry = self._map.get(key, _MISSING)
        if entry is _MISSING:
            self._misses.bump()
            return default
        self._map.move_to_end(key)
        self._hits.bump()
        return entry

    def put(self, key, value) -> None:
        if key in self._map:
            self._map.move_to_end(key)
        self._map[key] = value
        if len(self._map) > self.maxsize:
            self._map.popitem(last=False)
            self._evictions.bump()

    def __contains__(self, key) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()

    # -- pickling: entries survive, metric handles (locks) do not ------
    def __getstate__(self):
        return {
            "entries": list(self._map.items()),
            "maxsize": self.maxsize,
            "metric_prefix": self._metric_prefix,
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["maxsize"], state["metric_prefix"])
        self._map.update(state["entries"])
