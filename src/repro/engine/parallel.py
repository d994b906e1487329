"""Parallel solve dispatch: shipping coefficient batches to shard workers.

The sharded runtime splits one drain round's predicted root work by key
shard (:mod:`repro.engine.sharding`), ships each shard's rows to its
worker as contiguous float64 ndarrays, and merges the returned root
arrays into a parent-side :class:`~repro.core.solve_cache.RootCache`.
Item processing then runs *unchanged and in arrival order*; the only
difference from the serial path is that the root finder's single entry
point (:func:`~repro.core.batch_solver.real_roots_batch`, intercepted
via :func:`~repro.core.batch_solver.set_roots_dispatch`) is served from
the pre-computed cache instead of recomputing.

Determinism argument (the parity contract the tests enforce):

* workers run :func:`~repro.core.batch_solver.real_roots_rows` — the
  *same* function the parent's kernel calls — and its per-row results
  are partition-invariant (stacked eigensolves are per-matrix, the
  Newton polish element-wise), so a worker-computed root array is
  bit-identical to what the parent would compute inline;
* cached arrays only replace the root-finding stage; sign tests,
  boolean structure, caching and output construction all still run in
  the parent, per item, in the original arrival order;
* rows the priming pass failed to predict (or whose worker solve
  failed) fall through to the in-parent kernel, so under-prediction is
  always safe.  Worker failures are typed and *never cached* — a
  poisoned row re-fails identically through the parent path, keeping
  failure behaviour (and breaker state) exactly serial.

Executor model: one **single-worker pool per shard** (not one shared
pool) so consecutive rounds of the same shard land on the same process
and hit its warm :func:`~repro.core.solve_cache.worker_root_cache`.
:class:`InlineExecutor` is the same-process fallback used for
``num_shards == 1``, ``parallel=False`` (debugging — one process, same
code path), and environments where forking is unavailable.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Hashable, Sequence

import numpy as np

from ..core.batch_solver import (
    SOLVER_CONFIG,
    real_roots_batch,
    set_roots_dispatch,
    solve_rows_worker,
)
from ..core.errors import SolverError
from ..core.polynomial import Polynomial
from ..core.solve_cache import CacheStats, RootCache
from . import shm_transport, tracing
from .metrics import absorb_cache_stats, get_counter, get_histogram
from .sharding import ShardRouter

#: One predicted root query: trimmed ascending coefficients + domain.
RootQuery = tuple[tuple[float, ...], float, float]


class _ImmediateFuture:
    """A completed future: :class:`InlineExecutor`'s return type."""

    __slots__ = ("_result", "_error")

    def __init__(self, result=None, error: BaseException | None = None):
        self._result = result
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result


class InlineExecutor:
    """Executes submissions synchronously in the calling process.

    The debug/fallback twin of a process pool: same submit/result
    surface, zero processes.  Worker functions hit this process's
    globals (e.g. the per-process root cache), which is exactly what a
    single-shard run wants.
    """

    def submit(self, fn: Callable, /, *args, **kwargs) -> _ImmediateFuture:
        try:
            return _ImmediateFuture(result=fn(*args, **kwargs))
        except BaseException as exc:  # mirrored into .result(), like a pool
            return _ImmediateFuture(error=exc)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        return None


class ParallelSolveDispatcher:
    """Ships per-shard coefficient batches to workers; serves roots back.

    Parameters
    ----------
    num_shards:
        Key-partition width.  ``1`` always runs inline (the serial
        baseline with a priming cache in front).
    parallel:
        ``True`` backs shards 0..N-1 with one single-worker
        ``ProcessPoolExecutor`` each; ``False`` runs every shard inline
        in this process (same code path, no processes — the debug mode).
        ``"auto"`` (the default) picks pools only when the host has more
        than one CPU: on a single core a process per shard is pure IPC
        overhead, while the in-process executors still deliver the
        cross-item batch amortization (one stacked eigensolve sweep per
        shard per round instead of a solver call per row).  Pools that
        cannot be created (no fork support) degrade to inline per
        shard, recorded in :attr:`inline_shards`.
    root_cache_size:
        Bound on the parent-side merged root store.

    Transport.  Pool shards ship their row batches through
    ``multiprocessing.shared_memory`` segments — the parent packs
    contiguous blocks once, workers attach zero-copy, roots come back
    through a shared result arena, and only scalar bookkeeping crosses
    the pickle boundary.  Inline shards use the in-process payload
    path: same address space, nothing to ship.  A host where segment
    allocation fails (``OSError``) degrades the dispatcher to pickled
    ndarray payloads for the rest of the run (the round that hit the
    failure still completes).
    """

    def __init__(
        self,
        num_shards: int,
        parallel: "bool | str" = "auto",
        root_cache_size: int = 65536,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if parallel == "auto":
            parallel = (os.cpu_count() or 1) > 1
        self.num_shards = num_shards
        self.parallel = bool(parallel) and num_shards > 1
        #: Set when a segment allocation failed; sticks for the run.
        self._shm_broken = False
        #: Shard rounds shipped via shared memory / bytes they mapped.
        self.shm_rounds = 0
        self.shm_bytes_shipped = 0
        self.router = ShardRouter(num_shards)
        self._root_cache = RootCache(maxsize=root_cache_size)
        self._executors: list[object | None] = [None] * num_shards
        #: Shards that fell back to inline execution (pool unavailable).
        self.inline_shards: set[int] = set()
        #: Aggregated per-call worker cache deltas (all shards).  The
        #: ``entries`` component is kept at 0 here — population is a
        #: level, not a delta — and tracked per shard instead.
        self.worker_stats = CacheStats()
        self._worker_entries: dict[int, int] = {}
        self.rows_primed = 0
        self.rows_dispatched = 0
        self.worker_failures = 0
        self._previous_dispatch: object = _UNSET
        self._closed = False

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _executor(self, shard: int):
        found = self._executors[shard]
        if found is not None:
            return found
        if self.parallel and shard not in self.inline_shards:
            try:
                found = concurrent.futures.ProcessPoolExecutor(max_workers=1)
            except (OSError, PermissionError, NotImplementedError):
                self.inline_shards.add(shard)
                found = InlineExecutor()
        else:
            if self.parallel is False:
                self.inline_shards.add(shard)
            found = InlineExecutor()
        self._executors[shard] = found
        return found

    # ------------------------------------------------------------------
    # priming: batch root work through the shard workers
    # ------------------------------------------------------------------
    def prime(self, queries_by_shard: dict[int, Sequence[RootQuery]]) -> int:
        """Solve a round's predicted root queries shard by shard.

        ``queries_by_shard`` maps shard index to that shard's predicted
        ``(coeffs, lo, hi)`` rows.  Rows already in the parent root
        store are skipped; the rest go out as one ndarray payload per
        shard, concurrently across shards.  Returns the number of rows
        shipped.

        The operators prune upstream: ``prime_tasks`` / ``prime_round``
        never predict rows whose solution store already answers the
        probe, so only rows that will really solve reach this dispatch.
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        observe = tracing.observability_enabled()
        submissions: list[tuple[int, object, list, tuple | None]] = []
        for shard in sorted(queries_by_shard):
            rows = queries_by_shard[shard]
            if not rows:
                continue
            fresh: list[RootQuery] = []
            keys: list[object] = []
            seen: set = set()
            for coeffs, lo, hi in rows:
                key = RootCache.key(coeffs, lo, hi)
                if key in seen or key in self._root_cache:
                    continue
                seen.add(key)
                keys.append(key)
                fresh.append((tuple(coeffs), lo, hi))
            if not fresh:
                continue
            future, segments = self._submit(shard, fresh, observe)
            submissions.append((shard, future, keys, segments))
            self.rows_dispatched += len(fresh)

        shipped = 0
        for shard, future, keys, segments in submissions:
            try:
                try:
                    out = future.result()
                except concurrent.futures.BrokenExecutor:
                    # The shard's worker died (e.g. OOM-killed).
                    # Degrade this shard to inline for the rest of the
                    # run; the unprimed rows simply solve in-parent.
                    self.inline_shards.add(shard)
                    self._executors[shard] = None
                    continue
                if segments is not None:
                    # Roots came back through the shared result arena;
                    # only bookkeeping rode the future.
                    offsets, flat = segments[1].read()
                else:
                    offsets = out["offsets"]
                    flat = out["roots"]
            finally:
                # Parent owns the segment lifecycle: close + unlink on
                # every exit path so a dead worker, a broken pool or a
                # read error cannot strand /dev/shm segments.
                if segments is not None:
                    segments[0].destroy()
                    segments[1].destroy()
            failed = {idx for idx, _, _ in out["failures"]}
            self.worker_failures += len(failed)
            for i, key in enumerate(keys):
                if i in failed:
                    continue  # never cache failures
                roots = tuple(
                    float(r) for r in flat[offsets[i] : offsets[i + 1]]
                )
                self._root_cache.put(key, roots)
                shipped += 1
            reported = out["cache_stats"]
            self._worker_entries[shard] = int(reported.get("entries", 0))
            delta = CacheStats(
                hits=reported["hits"],
                misses=reported["misses"],
                evictions=reported["evictions"],
            )
            self.worker_stats = self.worker_stats + delta
            absorb_cache_stats("root_cache.worker", delta)
            timings = out.get("timings")
            if timings:
                # Same fixed buckets on both sides, so worker snapshots
                # fold exactly into the parent-side histograms.
                get_histogram("parallel.worker_solve_seconds").merge(
                    timings["solve_seconds"]
                )
                get_histogram("parallel.worker_eigensolve_seconds").merge(
                    timings["eigensolve_seconds"]
                )
        self.rows_primed += shipped
        return shipped

    def _submit(
        self, shard: int, rows: Sequence[RootQuery], observe: bool
    ) -> tuple[object, tuple | None]:
        """Ship one shard round; returns ``(future, segments_or_None)``.

        Pool shards use the shared-memory transport (unless degraded
        to pickle); inline shards always take the direct payload path —
        same process, nothing to serialize either way.
        """
        executor = self._executor(shard)
        lengths, lo, hi, coeff_matrix = self._pack_arrays(rows)
        if not self._shm_broken and not isinstance(executor, InlineExecutor):
            try:
                request, arena = shm_transport.pack_round(
                    lengths, lo, hi, coeff_matrix
                )
            except (OSError, ValueError):
                # No usable shared memory on this host/container:
                # degrade to pickled payloads for the rest of the run.
                self._shm_broken = True
            else:
                meta = {
                    "request": request.meta(),
                    "result": arena.meta(),
                    "root_budget": SOLVER_CONFIG.max_roots_per_row,
                    "cache": True,
                    "shard": shard,
                    "observe": observe,
                }
                self.shm_rounds += 1
                nbytes = request.nbytes + arena.nbytes
                self.shm_bytes_shipped += nbytes
                get_counter("parallel.shm_rounds").bump()
                get_counter("parallel.shm_bytes_shipped").bump(nbytes)
                future = executor.submit(
                    shm_transport.solve_rows_shm_worker, meta
                )
                return future, (request, arena)
        payload = {
            "coeffs": coeff_matrix,
            "lengths": lengths,
            "lo": lo,
            "hi": hi,
            "root_budget": SOLVER_CONFIG.max_roots_per_row,
            "cache": True,
            "shard": shard,
        }
        if observe:
            payload["observe"] = True
        return executor.submit(solve_rows_worker, payload), None

    @staticmethod
    def _pack_arrays(
        rows: Sequence[RootQuery],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pack rows as contiguous arrays (both transports' wire shape)."""
        n = len(rows)
        lengths = np.fromiter(
            (len(coeffs) for coeffs, _, _ in rows), dtype=np.int64, count=n
        )
        width = int(lengths.max()) if n else 1
        coeff_matrix = np.zeros((n, width))
        for i, (coeffs, _, _) in enumerate(rows):
            coeff_matrix[i, : len(coeffs)] = coeffs
        lo = np.fromiter((lo for _, lo, _ in rows), dtype=float, count=n)
        hi = np.fromiter((hi for _, _, hi in rows), dtype=float, count=n)
        return lengths, lo, hi, coeff_matrix

    # ------------------------------------------------------------------
    # the roots dispatch served to the kernel
    # ------------------------------------------------------------------
    def dispatch_roots(
        self,
        items: Sequence[tuple[Polynomial, float, float]],
        failures: dict[int, SolverError] | None = None,
    ) -> list[list[float]]:
        """Drop-in for :func:`~repro.core.batch_solver.real_roots_batch`.

        Primed rows are served from the parent root store; everything
        else computes through the in-parent kernel (identical code
        path).  Failure semantics mirror the kernel's exactly: failures
        are never cached, so a failing row always reaches the kernel and
        raises/records precisely as the serial path would — and because
        successful rows cannot raise, thinning the kernel's input to the
        misses preserves the raise order among failing rows too.
        """
        results: list[list[float] | None] = [None] * len(items)
        misses: list[tuple[Polynomial, float, float]] = []
        miss_idx: list[int] = []
        miss_keys: list[object] = []
        cache = self._root_cache
        for i, (poly, lo, hi) in enumerate(items):
            key = RootCache.key(poly.coeffs, lo, hi)
            hit = cache.get(key)
            if hit is not None:
                results[i] = list(hit)
            else:
                misses.append((poly, lo, hi))
                miss_idx.append(i)
                miss_keys.append(key)
        if misses:
            sub: dict[int, SolverError] | None = (
                None if failures is None else {}
            )
            solved = real_roots_batch(misses, sub)
            for slot, i in enumerate(miss_idx):
                if sub and slot in sub:
                    failures[i] = sub[slot]  # type: ignore[index]
                    results[i] = []
                    continue
                results[i] = solved[slot]
                cache.put(miss_keys[slot], solved[slot])
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # kernel hook lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Install :meth:`dispatch_roots` as the kernel's roots dispatch."""
        if self._previous_dispatch is _UNSET:
            self._previous_dispatch = set_roots_dispatch(self.dispatch_roots)

    def deactivate(self) -> None:
        """Restore whatever dispatch was installed before :meth:`activate`."""
        if self._previous_dispatch is not _UNSET:
            set_roots_dispatch(self._previous_dispatch)  # type: ignore[arg-type]
            self._previous_dispatch = _UNSET

    # ------------------------------------------------------------------
    # observation / shutdown
    # ------------------------------------------------------------------
    def root_store_stats(self) -> CacheStats:
        return self._root_cache.snapshot()

    def stats(self) -> dict[str, object]:
        parent = self._root_cache.snapshot()
        return {
            "num_shards": self.num_shards,
            "parallel": self.parallel,
            "transport": "pickle" if self._shm_broken else "shm",
            "shm_rounds": self.shm_rounds,
            "shm_bytes_shipped": self.shm_bytes_shipped,
            "inline_shards": sorted(self.inline_shards),
            "rows_dispatched": self.rows_dispatched,
            "rows_primed": self.rows_primed,
            "worker_failures": self.worker_failures,
            "worker_cache": self.worker_stats.as_dict(),
            "worker_entries": sum(self._worker_entries.values()),
            "parent_root_cache": parent.as_dict(),
        }

    def shard_for_key(self, key: Hashable) -> int:
        return self.router.shard_of(key)

    def shutdown(self) -> None:
        """Deactivate the hook and tear down every shard executor."""
        self.deactivate()
        for i, executor in enumerate(self._executors):
            if executor is not None:
                executor.shutdown(wait=True)
                self._executors[i] = None
        self._closed = True

    def __enter__(self) -> "ParallelSolveDispatcher":
        self.activate()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_UNSET = object()
