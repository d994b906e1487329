"""What a selective operator remembers about the content it has probed.

Two bounded, metered mappings — the only memo objects a selective
operator owns:

* :class:`LruMemo` — a bounded LRU mapping with hit/miss/evict
  counters.  Operators keep one as their *fold memo*: discrete
  signature -> folded residual predicate, which rejects cross-key pairs
  before any equation system is compiled.

* :class:`SolutionStore` — one entry per *content signature*
  (:attr:`Segment.content_sig <repro.core.segment.Segment.content_sig>`):
  the compiled equation system together with the solution over the
  widest domain solved so far.  Because the key is the full content of
  the segments a system was compiled from, a stale entry (pre-refit
  content) is simply unreachable: invalidation is by construction, not
  by scanning.  One :meth:`SolutionStore.lookup` per probe answers both
  "is this content compiled?" and "is this domain already solved?", so
  a probed system compiles once.

Bit-exactness.  A served solution must equal what a direct solve would
return.  An exact-domain hit is trivially exact (same deterministic
solve, same arguments).  A *covered* hit is served as
``stored.clip(lo, hi)``, which agrees with a direct solve on
``[lo, hi)`` except when a solution feature (interval endpoint, isolated
point) falls within the solver's ``EPS`` slop of a requested seam —
sliver spans are dropped, near-seam equality roots kept or dropped
depending on which side of the seam they landed.  The store therefore
refuses covered reuse whenever any stored feature lies within
:data:`SEAM_GUARD` of a requested boundary without being exactly on it,
and the caller solves.  ``SEAM_GUARD`` is three orders of magnitude
above ``EPS``, so the guard triggers only on genuinely seam-adjacent
geometry; ``tests/property/test_incremental_parity.py`` enforces the
equivalence against a full re-solve oracle (``tests/oracles.py``).

Durability.  Compiled systems and solved ``TimeSet``s are a derived
cache: a :class:`SolutionStore` pickles as an *empty* store (entries
are recomputed on demand after a restore, which only costs work, never
correctness), while :class:`LruMemo` keeps its entries and rebinds its
metric handles in the restored process.
"""

from __future__ import annotations

from collections import OrderedDict

from .intervals import TimeSet

#: Covered-reuse refusal band around a requested seam.  Any stored
#: solution feature strictly inside ``(0, SEAM_GUARD]`` of a requested
#: boundary makes the clipped result potentially diverge from a direct
#: solve (EPS-sliver handling), so such probes fall back to a full
#: solve.  Well above ``intervals.EPS`` (1e-9) by design.
SEAM_GUARD = 1e-6

_MISSING = object()


def _metric_counters(prefix: str, *names: str):
    """Registry counter handles for ``{prefix}.{name}``.

    Imported inside the function: ``repro.core`` must stay importable
    without the engine package being initialized first.
    """
    from ..engine.metrics import get_counter

    return tuple(get_counter(f"{prefix}.{name}") for name in names)


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
        self._hits, self._misses, self._evictions = _metric_counters(
            metric_prefix, "hits", "misses", "evictions"
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


# ----------------------------------------------------------------------
# content-addressed solution store
# ----------------------------------------------------------------------
class SolutionStore:
    """Compiled system and widest solved domain, per content signature.

    One entry per signature: ``(system, lo, hi, solution)``.  ``system``
    is whatever the owning operator compiled for that content (``None``
    for operators that solve bare rows); ``solution`` is the ``TimeSet``
    over ``[lo, hi)``, or ``None`` while the content has been compiled
    but not yet solved.  Only *successful* solves are stored, so
    a poisoned system fails inside every probe, and fault-injection /
    breaker behaviour does not depend on what was probed before.

    Bounded LRU; traffic is metered under ``delta.store.*`` (``hits`` =
    probes served a stored solution, ``misses``, ``evictions``,
    ``seam_rejects``).
    """

    __slots__ = (
        "_map", "maxsize", "_hits", "_misses", "_evictions", "_seam_rejects",
    )

    def __init__(self, maxsize: int = 4096):
        self._map: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        (
            self._hits, self._misses, self._evictions, self._seam_rejects,
        ) = _metric_counters(
            "delta.store", "hits", "misses", "evictions", "seam_rejects"
        )

    @staticmethod
    def _seam_clear(solution: TimeSet, lo: float, hi: float) -> bool:
        """No stored feature is *near* (but not on) a requested seam."""
        for seam in (lo, hi):
            for iv in solution.intervals:
                for f in (iv.lo, iv.hi):
                    d = abs(f - seam)
                    if 0.0 < d <= SEAM_GUARD:
                        return False
            for p in solution.points:
                d = abs(p - seam)
                if 0.0 < d <= SEAM_GUARD:
                    return False
        return True

    def lookup(self, sig, lo: float, hi: float):
        """The one probe: what is remembered about content ``sig``?

        ``None`` when the content was never stored (or ``sig`` is
        ``None``, i.e. unhashable content): the caller compiles, solves
        and :meth:`store`s.  Otherwise ``(system, solution)``, where
        ``solution`` is the stored answer over ``[lo, hi)`` — verbatim
        on an exact-domain match, clipped when strictly covered and the
        seam guard allows it (see the module docstring) — or ``None``
        when the caller must solve ``system`` itself.
        """
        entry = self._map.get(sig)
        if entry is None:
            self._misses.bump()
            return None
        self._map.move_to_end(sig)
        system, elo, ehi, solution = entry
        if solution is not None and elo <= lo and hi <= ehi:
            if elo == lo and ehi == hi:
                self._hits.bump()
                return system, solution
            if self._seam_clear(solution, lo, hi):
                self._hits.bump()
                return system, solution.clip(lo, hi)
            self._seam_rejects.bump()
            return system, None
        self._misses.bump()
        return system, None

    def store(self, sig, system, solved=None) -> None:
        """Remember ``system`` for ``sig``, and a successful solve of it.

        ``solved`` is ``(lo, hi, solution)`` or ``None`` (compiled, not
        yet solved).  Widest domain per signature wins: a narrower
        -than-stored domain, or no domain at all, leaves an existing
        entry as it is (it already serves the probe); anything else —
        wider, or shifted — replaces it, keeping the store aligned with
        the stream's moving validity ranges.
        """
        if sig is None:
            return
        lo, hi, solution = solved or (None, None, None)
        entry = self._map.get(sig)
        if entry is not None:
            _, elo, ehi, held = entry
            if solution is None or (
                held is not None and elo <= lo and hi <= ehi
            ):
                self._map.move_to_end(sig)
                return
        self._map[sig] = (system, lo, hi, solution)
        self._map.move_to_end(sig)
        if len(self._map) > self.maxsize:
            self._map.popitem(last=False)
            self._evictions.bump()

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        self._map.clear()

    # -- pickling: derived cache — entries are recomputed on demand ----
    def __getstate__(self):
        return {"maxsize": self.maxsize}

    def __setstate__(self, state) -> None:
        self.__init__(state["maxsize"])
