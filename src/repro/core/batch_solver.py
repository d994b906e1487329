"""Batched companion-matrix solver kernel: the engine's one root solver.

Root finding is Pulse's hot path: every selective operator reduces to
solving difference rows ``d_i(t) R_i 0`` (Section III-A), and a single
join probe can instantiate dozens of byte-similar systems at once.
Filters, joins, equality systems and the min/max envelope all solve
through this module.  A row-at-a-time solver would pay one ``np.roots``
LAPACK round-trip plus a Python-level Newton polish *per row*; this
module solves many rows in one sweep:

* rows are **degree-bucketed** and their companion matrices stacked into
  one 3-D array, so all eigenvalues of a bucket come from a single
  ``np.linalg.eigvals`` gufunc call;
* the Newton polish runs **vectorized across every candidate root** of
  every row simultaneously, one mask per stopping rule;
* sign tests evaluate all subinterval midpoints of all rows through one
  padded coefficient-matrix sweep (``D`` rows gathered per midpoint)
  instead of per-row Horner loops.

A row's result does not depend on the batch it rides in: padded Horner
is bit-identical to unpadded Horner for finite arguments, and the
stacked eigensolver applies the same LAPACK kernel per matrix.
``tests/property/test_batch_solver_parity.py`` holds every entry point
to exact rational arithmetic (``tests/exact.py``).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed_form import cubic_candidates, quartic_candidates
from .errors import SolverError, SolverFailure
from .intervals import EPS, Interval, TimeSet
from .polynomial import Polynomial
from .relation import Rel
from .roots import (
    IMAG_TOL,
    _deflate,
    _quadratic_roots,
    check_coefficients,
)

#: Newton stops at ``|p(x)| < _NEWTON_TOL`` or a step below
#: ``_NEWTON_TOL * max(1, |x|)``.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
#: Horner's rounding error is about ``degree * eps * sum |c_i| |x|^i``:
#: an unconverged seed or final Newton step is a root only this close to
#: zero (``test_near_tangent_pair_reports_no_root``).
_NOISE = 64 * np.finfo(float).eps

#: One solve task: ``poly(t) rel 0`` over the half-open domain ``[lo, hi)``.
SolveTask = tuple[Polynomial, Rel, float, float]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class SolverConfig:
    """Global solver budgets.

    Attributes
    ----------
    max_rows_per_system:
        Guardrail budget: a single system presenting more difference
        rows than this fails with a typed ``"row-budget"``
        :class:`~repro.core.errors.SolverFailure` instead of grinding.
    max_roots_per_row:
        Guardrail budget on a row's polynomial degree (the root count
        bound); beyond it the row fails with ``"root-budget"``.
    """

    max_rows_per_system: int = 256
    max_roots_per_row: int = 64


SOLVER_CONFIG = SolverConfig()


def solver_config() -> SolverConfig:
    """The process-wide solver configuration (mutable)."""
    return SOLVER_CONFIG


# ----------------------------------------------------------------------
# fault injection hook
# ----------------------------------------------------------------------
#: A fault hook sees every solve task about to run and may raise a
#: :class:`SolverError` to fail it or return a replacement task (e.g.
#: with NaN coefficients) to corrupt it.  ``None`` passes the task
#: through untouched.  Installed by the fault-injection
#: harness (:mod:`repro.testing.faults`); never set in production.
FaultHook = Callable[[SolveTask], "SolveTask | None"]

_FAULT_HOOK: FaultHook | None = None


def set_fault_hook(hook: FaultHook | None) -> FaultHook | None:
    """Install (or clear) the solver fault hook; returns the previous one."""
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


def fault_hook() -> FaultHook | None:
    return _FAULT_HOOK


# ----------------------------------------------------------------------
# instrumentation hooks (observability integration points)
# ----------------------------------------------------------------------
#: Hooks installed by :func:`repro.engine.tracing.enable_observability`.
#: The span hooks are context-manager factories called with the batch
#: size; the eigen observer is called with ``(n_matrices, seconds)``
#: after each stacked eigensolve.  All default to ``None`` — a disabled
#: run pays exactly one global load plus an ``is None`` test per site
#: and makes zero instrumentation calls (pinned by
#: ``tests/engine/test_tracing.py``).
_SPAN_SOLVE_TASKS: Callable | None = None
_SPAN_ROOTS: Callable | None = None
_EIGEN_OBSERVER: Callable | None = None
#: Per-degree kernel observer: called as ``(degree, n_rows, seconds)``
#: after each closed-form kernel call and each companion degree bucket,
#: so the split between Cardano/Ferrari and eigensolve latency is
#: visible per degree (``solver.roots_seconds.degree_<d>`` histograms).
_DEGREE_OBSERVER: Callable | None = None


def set_solver_instrumentation(
    solve_span: Callable | None = None,
    roots_span: Callable | None = None,
    eigen_observer: Callable | None = None,
    degree_observer: Callable | None = None,
) -> None:
    """Install (or clear, the default) the solver instrumentation hooks."""
    global _SPAN_SOLVE_TASKS, _SPAN_ROOTS, _EIGEN_OBSERVER, _DEGREE_OBSERVER
    _SPAN_SOLVE_TASKS = solve_span
    _SPAN_ROOTS = roots_span
    _EIGEN_OBSERVER = eigen_observer
    _DEGREE_OBSERVER = degree_observer


def solver_instrumentation() -> tuple:
    return (_SPAN_SOLVE_TASKS, _SPAN_ROOTS, _EIGEN_OBSERVER, _DEGREE_OBSERVER)


# ----------------------------------------------------------------------
# padded-matrix polynomial evaluation
# ----------------------------------------------------------------------
def pad_coefficient_matrix(
    coeff_rows: Sequence[Sequence[float]], width: int | None = None
) -> np.ndarray:
    """Stack ascending coefficient rows into one zero-padded matrix.

    This is the batched ``D`` of Equation (1): row ``i`` holds the
    coefficients of ``d_i`` padded to the common width, so one sweep
    evaluates every row at once.
    """
    if width is None:
        width = max((len(c) for c in coeff_rows), default=1)
    matrix = np.zeros((len(coeff_rows), width))
    for i, coeffs in enumerate(coeff_rows):
        matrix[i, : len(coeffs)] = coeffs
    return matrix


def horner_rows(matrix: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate ``matrix[i]``'s polynomial at ``ts[i]`` for every ``i``.

    A column sweep of fused multiply-adds: starting from the (padded)
    leading column, ``r = r * t + c``.  For finite ``ts`` this is
    bit-identical to scalar Horner on the unpadded coefficients — the
    zero-pad prefix contributes exact zeros — so a row's sign tests do
    not depend on the rows padded with it.
    """
    result = matrix[:, -1].copy()
    for col in range(matrix.shape[1] - 2, -1, -1):
        result = result * ts + matrix[:, col]
    return result


def derivative_matrix(matrix: np.ndarray) -> np.ndarray:
    """Row-wise derivative coefficients of a padded ascending matrix."""
    if matrix.shape[1] <= 1:
        return np.zeros((matrix.shape[0], 1))
    return matrix[:, 1:] * np.arange(1, matrix.shape[1], dtype=float)


def vandermonde_values(matrix: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``D @ [1, t, t^2, ...]`` for every sample: shape (rows, len(ts)).

    The slack path's batched evaluation — one matrix product instead of
    per-row Horner loops over the sample grid.
    """
    powers = np.vander(np.asarray(ts, dtype=float), matrix.shape[1], increasing=True)
    return matrix @ powers.T


# ----------------------------------------------------------------------
# batched Newton polish
# ----------------------------------------------------------------------
def _at_noise(coeffs: np.ndarray, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Whether each ``fx = p(x)`` is zero to within Horner's rounding
    error, ``_NOISE * sum |c_i| |x|^i``."""
    return np.abs(fx) <= _NOISE * horner_rows(np.abs(coeffs), np.abs(x))


def _newton_polish_batch(
    coeffs: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Newton–Raphson over one candidate per row.

    ``coeffs`` holds one padded ascending coefficient row per candidate;
    ``x0`` the starting points.  Returns ``(x, ok)`` where ``ok[i]`` is
    False on a zero/non-finite derivative, divergence, or a final value
    that is not zero to rounding error.
    """
    n = x0.shape[0]
    deriv = derivative_matrix(coeffs)
    x = x0.astype(float).copy()
    result = x.copy()
    ok = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if not active.any():
                break
            fx = horner_rows(coeffs, x)
            conv = active & (np.abs(fx) < _NEWTON_TOL)
            result[conv] = x[conv]
            ok |= conv
            active &= ~conv
            d = horner_rows(deriv, x)
            dead = active & ((d == 0.0) | ~np.isfinite(d))
            active &= ~dead
            step = fx / d
            x_next = x - step
            x = np.where(active, x_next, x)
            diverged = active & ~np.isfinite(x)
            active &= ~diverged
            conv = active & (np.abs(step) < _NEWTON_TOL * np.maximum(1.0, np.abs(x)))
            result[conv] = x[conv]
            ok |= conv
            active &= ~conv
        if active.any():
            fx = horner_rows(coeffs, x)
            final = active & _at_noise(coeffs, x, fx)
            result[final] = x[final]
            ok |= final
    return result, ok


# ----------------------------------------------------------------------
# batched companion-matrix root finding
# ----------------------------------------------------------------------
def _stacked_companion_eigvals(rows: list[list[float]]) -> np.ndarray:
    """Eigenvalues of the companion matrices of descending-coeff rows.

    All rows share one length ``N >= 2``; the returned array has shape
    ``(len(rows), N - 1)``.  The matrix layout matches ``np.roots``
    (ones on the first subdiagonal, ``-p[1:]/p[0]`` in the first row) so
    a row's eigenvalues do not depend on the rows stacked with it.
    """
    observer = _EIGEN_OBSERVER
    if observer is None:
        return _stacked_companion_eigvals_impl(rows)
    t0 = time.perf_counter()
    out = _stacked_companion_eigvals_impl(rows)
    observer(len(rows), time.perf_counter() - t0)
    return out


def _stacked_companion_eigvals_impl(rows: list[list[float]]) -> np.ndarray:
    p = np.asarray(rows, dtype=float)
    m, length = p.shape
    size = length - 1
    matrices = np.zeros((m, size, size))
    if size > 1:
        idx = np.arange(size - 1)
        matrices[:, idx + 1, idx] = 1.0
    matrices[:, 0, :] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(matrices)


def real_roots_batch(
    items: Sequence[tuple[Polynomial, float, float]],
    failures: dict[int, SolverError] | None = None,
) -> list[list[float]]:
    """All real roots of each polynomial within its ``[lo, hi]``, sorted.

    Each item is ``(poly, lo, hi)``.  Degree <= 2 rows use the closed
    forms; higher degrees share stacked companion-matrix eigensolves
    (bucketed by effective degree) and one vectorized Newton polish
    across every candidate root of every row.

    Roots are deduplicated; a root of even multiplicity appears once.
    Zero polynomials (uncountably many roots), non-finite or absurd
    coefficients and over-budget degrees fail with a typed
    :class:`SolverFailure`.  When ``failures`` is given, per-item failures are recorded
    there (the item's result slot stays ``[]``) instead of raised, so one
    poisoned row cannot sink the whole batch; when a stacked eigensolve
    fails, the bucket falls back row by row so only the offending row is
    charged.
    """
    return real_roots_rows(
        [(poly.coeffs, lo, hi) for poly, lo, hi in items],
        failures=failures,
        budget=SOLVER_CONFIG.max_roots_per_row,
    )


def real_roots_rows(
    rows: Sequence[tuple[tuple[float, ...], float, float]],
    failures: dict[int, SolverError] | None = None,
    budget: int | None = None,
) -> list[list[float]]:
    """The raw-row core of :func:`real_roots_batch`.

    ``rows`` holds ``(coeffs, lo, hi)`` with *trimmed ascending*
    coefficient tuples (exactly :attr:`Polynomial.coeffs` semantics: no
    exactly-zero leading entries, the zero polynomial is ``(0.0,)``).
    The result of each row is
    *partition-invariant*: degree bucketing stacks independent
    companion matrices (the eigensolver gufunc loops per matrix) and the
    Newton polish is element-wise, so solving a row inside a pooled
    run's sweep or alone in its arrival's batch gives the same roots.
    """
    hook = _SPAN_ROOTS
    if hook is None:
        return _real_roots_rows_impl(rows, failures, budget)
    with hook(len(rows)):
        return _real_roots_rows_impl(rows, failures, budget)


#: Closed-form dispatch tallies for this process: rows solved by the
#: Cardano/Ferrari kernels vs rows they handed back to the companion
#: eigensolve (non-finite branch).  Cumulative; read by the ablation
#: bench and the fallback-coverage tests.
CLOSED_FORM_STATS = {"rows": 0, "fallback_rows": 0}


def closed_form_stats() -> dict[str, int]:
    """A snapshot of the cumulative closed-form dispatch tallies."""
    return dict(CLOSED_FORM_STATS)


def _real_roots_rows_impl(
    rows: Sequence[tuple[tuple[float, ...], float, float]],
    failures: dict[int, SolverError] | None = None,
    budget: int | None = None,
) -> list[list[float]]:
    n = len(rows)
    deflated: list[tuple[float, ...]] = [()] * n
    candidates: list[list[float]] = [[] for _ in range(n)]
    failed: set[int] = set()
    # inner companion length -> list of (item index, descending inner coeffs)
    buckets: dict[int, list[tuple[int, list[float]]]] = defaultdict(list)
    # inner lengths 4/5 peel off to the closed-form kernels
    cf_buckets: dict[int, list[tuple[int, list[float]]]] = defaultdict(list)
    needs_polish: set[int] = set()

    def record(j: int, exc: SolverError) -> None:
        if failures is None:
            raise exc
        failed.add(j)
        candidates[j] = []
        failures[j] = exc

    if budget is None:
        budget = SOLVER_CONFIG.max_roots_per_row
    for j, (coeffs, lo, hi) in enumerate(rows):
        try:
            if len(coeffs) == 1 and coeffs[0] == 0.0:
                raise SolverFailure(
                    "zero-polynomial",
                    "the zero polynomial has no discrete root set",
                )
            check_coefficients(coeffs)
            if len(coeffs) - 1 > budget:
                raise SolverFailure(
                    "root-budget",
                    f"degree {len(coeffs) - 1} exceeds the root budget "
                    f"{budget}",
                )
        except SolverError as exc:
            record(j, exc)
            continue
        c = _deflate(coeffs, lo, hi)
        deflated[j] = c
        if len(c) == 2:
            candidates[j] = [-c[0] / c[1]]
        elif len(c) == 3:
            candidates[j] = _quadratic_roots(c[0], c[1], c[2])
        elif len(c) > 3:
            needs_polish.add(j)
            desc = list(reversed(c))
            # np.roots semantics: exact trailing zeros factor out as
            # roots at t = 0, polished like the rest.
            while desc[-1] == 0.0 and len(desc) > 1:
                desc.pop()
                candidates[j].append(0.0)
            if len(desc) >= 2:
                if len(desc) in (4, 5):
                    cf_buckets[len(desc)].append((j, desc))
                else:
                    buckets[len(desc)].append((j, desc))

    # Closed-form ladder rung: degree-3/4 rows through the vectorized
    # Cardano/Ferrari kernels.  A row whose kernel branch went
    # non-finite (ok=False) drops into the companion bucket below —
    # the per-row eigval fallback.
    observer = _DEGREE_OBSERVER
    for length, jobs in sorted(cf_buckets.items()):
        kernel = cubic_candidates if length == 4 else quartic_candidates
        desc_matrix = np.asarray([coeffs for _, coeffs in jobs], dtype=float)
        if observer is None:
            cand, ok = kernel(desc_matrix)
        else:
            t0 = time.perf_counter()
            cand, ok = kernel(desc_matrix)
            observer(length - 1, len(jobs), time.perf_counter() - t0)
        finite = np.isfinite(cand)
        for slot, (j, coeffs) in enumerate(jobs):
            if ok[slot]:
                CLOSED_FORM_STATS["rows"] += 1
                candidates[j].extend(float(v) for v in cand[slot][finite[slot]])
            else:
                CLOSED_FORM_STATS["fallback_rows"] += 1
                buckets[length].append((j, coeffs))

    for length, jobs in sorted(buckets.items()):
        if observer is not None:
            t0 = time.perf_counter()
        try:
            eigen = _stacked_companion_eigvals([coeffs for _, coeffs in jobs])
        except (np.linalg.LinAlgError, ValueError):
            # The stacked eigensolve failed as a whole.  Retry row by
            # row so a single poisoned companion matrix is charged to
            # its own item rather than sinking the degree bucket.
            eigen = []
            for j, coeffs in jobs:
                try:
                    eigen.append(_stacked_companion_eigvals([coeffs])[0])
                except (np.linalg.LinAlgError, ValueError) as exc:
                    record(
                        j,
                        SolverFailure(
                            "eigvals", f"companion eigensolve failed: {exc}"
                        ),
                    )
                    eigen.append(None)
        for (j, _), row in zip(jobs, eigen):
            if row is None:
                continue
            keep = np.abs(row.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(row.real))
            candidates[j].extend(float(v) for v in row.real[keep])
        if observer is not None:
            observer(length - 1, len(jobs), time.perf_counter() - t0)

    # One Newton polish across every candidate of every degree->=3 item.
    polish_items = [
        j for j in sorted(needs_polish - failed) if candidates[j]
    ]
    if polish_items:
        owner = np.concatenate(
            [np.full(len(candidates[j]), j, dtype=int) for j in polish_items]
        )
        x0 = np.concatenate(
            [np.asarray(candidates[j], dtype=float) for j in polish_items]
        )
        width = max(len(deflated[j]) for j in polish_items)
        coeff_rows = pad_coefficient_matrix(
            [deflated[j] for j in polish_items], width
        )
        index_of = {j: k for k, j in enumerate(polish_items)}
        gathered = coeff_rows[[index_of[j] for j in owner]]
        polished, ok = _newton_polish_batch(gathered, x0)
        # A seed the polish could not confirm is a root only if it is
        # one to rounding error already.
        keep = ok.copy()
        if not ok.all():
            rest, seeds = gathered[~ok], x0[~ok]
            with np.errstate(all="ignore"):
                keep[~ok] = _at_noise(rest, seeds, horner_rows(rest, seeds))
        final = np.where(ok, polished, x0)
        for j in polish_items:
            mask = (owner == j) & keep
            candidates[j] = [float(v) for v in final[mask]]

    # Per-row post-processing: finite filter, sort, dedupe, domain pad.
    out: list[list[float]] = []
    for j, (_, lo, hi) in enumerate(rows):
        roots = [r for r in candidates[j] if math.isfinite(r)]
        roots.sort()
        merged: list[float] = []
        for r in roots:
            if not merged or r > merged[-1]:
                merged.append(r)
        span = max((abs(r) for r in merged), default=1.0)
        pad = EPS * max(1.0, span)
        out.append([r for r in merged if lo - pad <= r <= hi + pad])
    return out


# ----------------------------------------------------------------------
# batched relation solving
# ----------------------------------------------------------------------
def solve_relation_batch(
    tasks: Sequence[SolveTask],
    failures: dict[int, SolverError] | None = None,
) -> list[TimeSet]:
    """Solve each ``poly(t) R 0`` over its half-open domain ``[lo, hi)``.

    Returns one :class:`TimeSet` per task: intervals where an inequality
    holds, and isolated points for ``=`` (Section III-C), with the typed
    :class:`SolverFailure` guardrails.  With a ``failures`` dict,
    per-task failures are recorded (result slot ``TimeSet.empty()``)
    instead of raised.
    """
    n = len(tasks)
    results: list[TimeSet | None] = [None] * n
    pending: list[int] = []
    for i, (poly, rel, lo, hi) in enumerate(tasks):
        if lo >= hi:
            results[i] = TimeSet.empty()
            continue
        try:
            check_coefficients(poly.coeffs)
        except SolverFailure as exc:
            if failures is None:
                raise
            failures[i] = exc
            results[i] = TimeSet.empty()
            continue
        if poly.is_zero:
            results[i] = (
                TimeSet.interval(lo, hi)
                if rel.includes_equality
                else TimeSet.empty()
            )
        elif poly.is_constant:
            results[i] = (
                TimeSet.interval(lo, hi)
                if rel.holds(poly.coeffs[0])
                else TimeSet.empty()
            )
        else:
            pending.append(i)
    if not pending:
        return results  # type: ignore[return-value]

    slot_failures: dict[int, SolverError] | None = (
        None if failures is None else {}
    )
    roots_per = real_roots_batch(
        [(tasks[i][0], tasks[i][2], tasks[i][3]) for i in pending],
        slot_failures,
    )
    if slot_failures:
        for slot, exc in slot_failures.items():
            failures[pending[slot]] = exc  # type: ignore[index]
            results[pending[slot]] = TimeSet.empty()

    failed_tasks = set() if slot_failures is None else {
        pending[slot] for slot in slot_failures
    }

    # Collect every sign-test midpoint across all pending rows, then
    # evaluate them in one gathered coefficient-matrix sweep.
    sign_jobs: list[tuple[int, list[float], list[tuple[float, float, float]]]] = []
    eval_rows: list[int] = []  # index into `pending` per midpoint
    eval_ts: list[float] = []
    for slot, i in enumerate(pending):
        if i in failed_tasks:
            continue
        poly, rel, lo, hi = tasks[i]
        roots = roots_per[slot]
        # The roots a relation that includes equality holds at: the
        # domain rule is the same for ``=``, ``<=`` and ``>=``.
        on_domain = [r for r in roots if lo - EPS <= r < hi]
        if rel is Rel.EQ:
            results[i] = TimeSet.from_points(on_domain)
            continue
        interior = [r for r in on_domain if lo < r]
        boundaries = [lo, *interior, hi]
        spans: list[tuple[float, float, float]] = []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            if b - a <= EPS:
                continue
            # A root-free whole line has no midpoint; any point will do.
            mid = 0.5 * (a + b) if a > -math.inf or b < math.inf else 0.0
            spans.append((a, b, mid))
            eval_rows.append(slot)
            eval_ts.append(mid)
        sign_jobs.append((i, on_domain, spans))

    midpoint_values: dict[tuple[int, float], float] = {}
    if eval_ts:
        ts = np.asarray(eval_ts, dtype=float)
        finite = np.isfinite(ts)
        coeff_matrix = pad_coefficient_matrix(
            [tasks[pending[s]][0].coeffs for s in sorted(set(eval_rows))]
        )
        order = {s: k for k, s in enumerate(sorted(set(eval_rows)))}
        gathered = coeff_matrix[[order[s] for s in eval_rows]]
        with np.errstate(all="ignore"):
            values = horner_rows(gathered, ts)
        for k, (slot, t) in enumerate(zip(eval_rows, eval_ts)):
            if finite[k]:
                midpoint_values[(slot, t)] = float(values[k])
            else:
                # Padded Horner is only Horner-exact for finite t;
                # infinite-domain midpoints fall back to the row's own
                # scalar evaluation.
                midpoint_values[(slot, t)] = tasks[pending[slot]][0](t)

    slot_of = {i: slot for slot, i in enumerate(pending)}
    for i, on_domain, spans in sign_jobs:
        poly, rel, lo, hi = tasks[i]
        intervals = [
            Interval(a, b)
            for a, b, mid in spans
            if rel.holds(midpoint_values[(slot_of[i], mid)])
        ]
        points: list[float] = []
        if rel.includes_equality:
            solution = TimeSet(intervals=intervals)
            for r in on_domain:
                if not solution.contains(r, tol=EPS):
                    points.append(r)
        results[i] = TimeSet(intervals=intervals, points=points)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def solve_tasks(
    tasks: Sequence[SolveTask],
    failures: dict[int, SolverError] | None = None,
) -> list[TimeSet]:
    """Solve many difference rows in one kernel sweep.

    This is the single funnel every relation-row solve goes through —
    filter, join and min/max rows alike (the equality fast path applies
    the same fault hook itself): the fault hook (if any) sees each task,
    then the batched kernel solves the rest.  With a ``failures`` dict, a failed task's typed error is
    recorded under its index (result slot ``TimeSet.empty()``) instead
    of raised.
    """
    hook = _SPAN_SOLVE_TASKS
    if hook is None:
        return _solve_tasks_impl(tasks, failures)
    with hook(len(tasks)):
        return _solve_tasks_impl(tasks, failures)


def _solve_tasks_impl(
    tasks: Sequence[SolveTask],
    failures: dict[int, SolverError] | None = None,
) -> list[TimeSet]:
    hook = _FAULT_HOOK
    if hook is None:
        return solve_relation_batch(tasks, failures=failures)
    hooked: dict[int, SolveTask] = {}
    for i, task in enumerate(tasks):
        try:
            replacement = hook(task)
        except SolverError as exc:
            if failures is None:
                raise
            failures[i] = exc
            continue
        hooked[i] = task if replacement is None else replacement
    live = list(hooked)
    live_failures: dict[int, SolverError] | None = (
        None if failures is None else {}
    )
    solved = solve_relation_batch(list(hooked.values()), live_failures)
    results = [TimeSet.empty()] * len(tasks)
    for k, i in enumerate(live):
        results[i] = solved[k]
    for k, exc in (live_failures or {}).items():
        failures[live[k]] = exc  # type: ignore[index]
    return results
