"""Simultaneous equation systems — the paper's core computational element.

A selective operator's predicate compiles, per (pair of) aligned segment(s),
into a system of *difference rows* ``d_i(t) R_i 0`` that must hold
simultaneously (Equation (1): ``D t R 0`` where ``D`` is the difference
coefficient matrix and ``t`` the vector of time powers).  Solving the
system yields the time ranges within the segment's validity during which
the discrete query would produce results.

Three solution strategies are provided, mirroring Section III-A:

* the **general algorithm**: solve each row independently by root finding
  and sign tests, then combine solution :class:`TimeSet`\\ s through the
  predicate's boolean structure (intersection for conjunction, union for
  disjunction);
* the **equality fast path**: when every row uses ``=`` (natural/equi
  joins), row-reduce the coefficient matrix ``D`` first (Gaussian
  elimination) to detect inconsistency cheaply and to solve only one
  minimal-degree row, verifying candidates against the rest;
* **slack** evaluation (Section IV): ``min_t ||D t||_inf`` over the valid
  range — how close the system came to producing a result, used to
  suppress validation work after nulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .batch_solver import (
    SOLVER_CONFIG,
    SolveTask,
    fault_hook,
    real_roots_rows,
    solve_tasks,
    vandermonde_values,
)
from .errors import SolverError, SolverFailure
from .expr import ModelResolver
from .intervals import Interval, TimeSet
from .polynomial import Polynomial
from .predicate import And, BoolExpr, Comparison, Literal, Not, Or, normalize
from .relation import Rel
from .roots import check_coefficients


# ----------------------------------------------------------------------
# instrumentation hooks (observability integration points)
# ----------------------------------------------------------------------
#: Context-manager factories installed by
#: :func:`repro.engine.tracing.enable_observability`; called with the
#: row/system count of the solve they wrap.  ``None`` (the default)
#: keeps the hot path at one global load + ``is None`` test per solve.
_SPAN_SYSTEM: Callable | None = None
_SPAN_BATCH: Callable | None = None


def set_system_instrumentation(
    system_span: Callable | None = None,
    batch_span: Callable | None = None,
) -> None:
    """Install (or clear, the default) the system-solve span hooks."""
    global _SPAN_SYSTEM, _SPAN_BATCH
    _SPAN_SYSTEM = system_span
    _SPAN_BATCH = batch_span


def system_instrumentation() -> tuple:
    return (_SPAN_SYSTEM, _SPAN_BATCH)


#: Bare numerical errors a solve wraps as ``SolverFailure("internal")``.
_NUMERIC_FAULTS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


def _internal_failure(exc: Exception) -> SolverFailure:
    """``exc`` wrapped as ``SolverFailure("internal")``, chained to it."""
    failure = SolverFailure("internal", f"{type(exc).__name__}: {exc}")
    failure.__cause__ = exc
    return failure


_row_solve_counter = None


def row_solve_counter():
    """The global row-solve counter (``equation_system.row_solves``).

    Lives in the :mod:`repro.engine.metrics` registry so benchmarks and
    the fold memo share one resettable stats surface; fetched lazily
    to keep ``repro.core`` importable on its own.  The handle is bound
    on first use and reused: ``reset_counters`` zeroes counters in
    place without replacing them, so per-solve registry lookups would
    be pure hot-path overhead.
    """
    global _row_solve_counter
    if _row_solve_counter is None:
        from ..engine.metrics import get_counter

        _row_solve_counter = get_counter("equation_system.row_solves")
    return _row_solve_counter


@dataclass(frozen=True)
class DifferenceRow:
    """One row of the system: ``poly(t) R 0``."""

    poly: Polynomial
    rel: Rel

    def holds_at(self, t: float, tol: float = 0.0) -> bool:
        return self.rel.holds(self.poly(t), tol)

    def __repr__(self) -> str:
        return f"{self.poly!r} {self.rel} 0"


class _Node:
    """Boolean-structure node referencing row indices."""

    __slots__ = ()


@dataclass(frozen=True)
class _AtomNode(_Node):
    row: int


@dataclass(frozen=True)
class _AndNode(_Node):
    children: tuple[_Node, ...]


@dataclass(frozen=True)
class _OrNode(_Node):
    children: tuple[_Node, ...]


@dataclass(frozen=True)
class _NotNode(_Node):
    child: _Node


@dataclass(frozen=True)
class _LiteralNode(_Node):
    value: bool


class EquationSystem:
    """A compiled predicate: difference rows plus boolean structure.

    Build one per (pair of) aligned segment(s) with
    :meth:`from_predicate`; the rows' polynomials already have the models
    substituted (steps 2–3 of the transform).

    Row solves are counted in the ``equation_system.row_solves`` counter
    of :mod:`repro.engine.metrics` (the old mutable ``solve_counter``
    class attribute, made resettable and shared with the memo stats).
    """

    def __init__(self, rows: Sequence[DifferenceRow], structure: _Node):
        self.rows = tuple(rows)
        self._structure = structure

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_predicate(
        cls, predicate: BoolExpr, resolve: ModelResolver
    ) -> "EquationSystem":
        """Compile a (normalized or raw) predicate against segment models.

        ``resolve`` maps attribute names to their polynomial models within
        the current segment alignment.
        """
        predicate = normalize(predicate)
        rows: list[DifferenceRow] = []

        def build(node: BoolExpr) -> _Node:
            if isinstance(node, Literal):
                return _LiteralNode(node.value)
            if isinstance(node, Comparison):
                poly = node.difference_expr().to_polynomial(resolve)
                rows.append(DifferenceRow(poly, node.rel))
                return _AtomNode(len(rows) - 1)
            if isinstance(node, And):
                return _AndNode(tuple(build(c) for c in node.children))
            if isinstance(node, Or):
                return _OrNode(tuple(build(c) for c in node.children))
            if isinstance(node, Not):
                return _NotNode(build(node.child))
            raise SolverError(f"unsupported predicate node {node!r}")

        structure = build(predicate)
        return cls(rows, structure)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_conjunctive(self) -> bool:
        if isinstance(self._structure, _AtomNode):
            return True
        return isinstance(self._structure, _AndNode) and all(
            isinstance(c, _AtomNode) for c in self._structure.children
        )

    @property
    def all_equalities(self) -> bool:
        return bool(self.rows) and all(r.rel is Rel.EQ for r in self.rows)

    def coefficient_matrix(self) -> np.ndarray:
        """The difference coefficient matrix ``D`` of Equation (1).

        Row ``i`` holds the coefficients of ``d_i`` padded to the maximum
        degree, constant term first, so ``D @ [1, t, t^2, ...]`` evaluates
        every row at once.
        """
        width = max((len(r.poly.coeffs) for r in self.rows), default=1)
        matrix = np.zeros((len(self.rows), width))
        for i, row in enumerate(self.rows):
            matrix[i, : len(row.poly.coeffs)] = row.poly.coeffs
        return matrix

    def holds_at(self, t: float, tol: float = 0.0) -> bool:
        """Evaluate the whole predicate at instant ``t``."""

        def walk(node: _Node) -> bool:
            if isinstance(node, _LiteralNode):
                return node.value
            if isinstance(node, _AtomNode):
                return self.rows[node.row].holds_at(t, tol)
            if isinstance(node, _AndNode):
                return all(walk(c) for c in node.children)
            if isinstance(node, _OrNode):
                return any(walk(c) for c in node.children)
            if isinstance(node, _NotNode):
                return not walk(node.child)
            raise SolverError(f"unknown node {node!r}")

        return walk(self._structure)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, lo: float, hi: float) -> TimeSet:
        """Solve the system over the half-open domain ``[lo, hi)``.

        Uses the equality fast path for all-equality conjunctions; every
        other system solves all its rows in one batch (one kernel
        sweep) and combines them through the boolean structure.

        Guardrail contract: every failure escapes as a typed
        :class:`SolverError` (usually a :class:`SolverFailure` with a
        machine-readable reason) — never a bare numerical exception —
        so the resilience layer can quarantine the offending key and
        degrade to the discrete path.
        """
        hook = _SPAN_SYSTEM
        if hook is None:
            return self._solve_impl(lo, hi)
        with hook(len(self.rows)):
            return self._solve_impl(lo, hi)

    def _solve_impl(self, lo: float, hi: float) -> TimeSet:
        if lo >= hi:
            return TimeSet.empty()
        self.check_budget()
        try:
            if (
                self.all_equalities
                and self.is_conjunctive
                and len(self.rows) > 1
            ):
                return self._solve_equality_system(lo, hi)
            return self.evaluate_structure(self.solve_rows(lo, hi), lo, hi)
        except SolverError:
            raise
        except _NUMERIC_FAULTS as exc:
            raise _internal_failure(exc) from exc

    def check_budget(self) -> None:
        """Enforce the configured per-system row budget."""
        budget = SOLVER_CONFIG.max_rows_per_system
        if len(self.rows) > budget:
            raise SolverFailure(
                "row-budget",
                f"{len(self.rows)} rows exceed the system budget {budget}",
            )

    def solve_rows(self, lo: float, hi: float) -> list[TimeSet]:
        """Solve every row over ``[lo, hi)`` in one batch."""
        row_solve_counter().bump(len(self.rows))
        return solve_tasks([(r.poly, r.rel, lo, hi) for r in self.rows])

    def evaluate_structure(
        self, row_sets: Sequence[TimeSet], lo: float, hi: float
    ) -> TimeSet:
        """Combine pre-solved per-row TimeSets through the boolean tree."""

        def walk(node: _Node) -> TimeSet:
            if isinstance(node, _LiteralNode):
                return (
                    TimeSet.interval(lo, hi) if node.value else TimeSet.empty()
                )
            if isinstance(node, _AtomNode):
                return row_sets[node.row]
            if isinstance(node, _AndNode):
                result = TimeSet.interval(lo, hi)
                for child in node.children:
                    result = result & walk(child)
                    if result.is_empty:
                        return result
                return result
            if isinstance(node, _OrNode):
                result = TimeSet.empty()
                for child in node.children:
                    result = result | walk(child)
                return result
            if isinstance(node, _NotNode):
                return walk(node.child).complement(Interval(lo, hi))
            raise SolverError(f"unknown node {node!r}")

        return walk(self._structure)

    def _solve_equality_system(self, lo: float, hi: float) -> TimeSet:
        """Fast path for pure equality systems.

        Pre-analyzes the coefficient matrix ``D`` before any root
        finding, as Section III-A suggests for natural/equi joins:
        Gaussian elimination row-reduces ``D`` to detect inconsistency
        and isolate a minimal-degree residual row, whose roots are then
        verified against every original row.
        """
        row_solve_counter().bump()
        hook = fault_hook()
        for row in self.rows:
            task: SolveTask = (row.poly, row.rel, lo, hi)
            if hook is not None:
                replacement = hook(task)
                if replacement is not None:
                    task = replacement
            check_coefficients(task[0].coeffs)
        candidate_poly = self._gaussian_candidate(self.coefficient_matrix())
        if candidate_poly is _INCONSISTENT:
            return TimeSet.empty()
        if candidate_poly is None:
            # All rows identically zero: the system holds everywhere.
            return TimeSet.interval(lo, hi)
        scale = max(abs(c) for r in self.rows for c in r.poly.coeffs)
        tol = 1e-7 * max(1.0, scale)
        (roots,) = real_roots_rows([(candidate_poly.coeffs, lo, hi)])
        points = [
            r
            for r in roots
            if lo <= r < hi
            and all(abs(row.poly(r)) <= tol for row in self.rows)
        ]
        return TimeSet.from_points(points)

    def _gaussian_candidate(self, matrix: np.ndarray) -> "Polynomial | None":
        reduced = _row_reduce(matrix)
        candidate: Polynomial | None = None
        for row in reduced:
            if np.allclose(row, 0.0, atol=1e-12):
                continue
            poly = Polynomial(row)
            if poly.is_constant:
                return _INCONSISTENT  # c = 0 with c != 0
            if candidate is None or poly.degree < candidate.degree:
                candidate = poly
        return candidate

    # ------------------------------------------------------------------
    # slack (Section IV)
    # ------------------------------------------------------------------
    def slack(self, lo: float, hi: float, samples: int = 64) -> float:
        """``min_t ||D t||_inf`` over ``[lo, hi]``.

        The continuous measure of how close the query came to producing a
        result.  Computed by dense sampling followed by golden-section
        refinement around the best sample — the objective is piecewise
        smooth, so local refinement recovers the minimum to high accuracy.
        """
        if not self.rows:
            return 0.0
        if hi <= lo:
            return self._inf_norm(lo)
        ts = np.linspace(lo, hi, samples)
        # One D @ [1, t, t^2, ...] matrix product over the whole sample
        # grid instead of per-row Horner loops.
        values = np.max(
            np.abs(vandermonde_values(self.coefficient_matrix(), ts)),
            axis=0,
        )
        best = int(np.argmin(values))
        a = ts[max(best - 1, 0)]
        b = ts[min(best + 1, samples - 1)]
        refined_t = _golden_section(self._inf_norm, a, b)
        return min(float(values[best]), self._inf_norm(refined_t))

    def _inf_norm(self, t: float) -> float:
        return max(abs(row.poly(t)) for row in self.rows)

    def __repr__(self) -> str:
        return f"EquationSystem({len(self.rows)} rows)"


def solve_systems_batch(
    jobs: Sequence[tuple["EquationSystem", float, float]],
    failures: dict[int, SolverError] | None = None,
) -> list[TimeSet]:
    """Solve many systems' rows through one batched kernel sweep.

    ``jobs`` holds ``(system, lo, hi)`` triples — e.g. every candidate
    pair produced by one join probe.  All rows of all general systems
    are pooled into a single :func:`solve_tasks` call (one
    degree-bucketed eigensolve); equality fast-path systems keep
    their own pre-analysis.

    With a ``failures`` dict, a failing system records its typed error
    under its job index (result ``TimeSet.empty()``) instead of sinking
    the whole sweep — one poisoned candidate pair costs only itself.
    As in :meth:`EquationSystem.solve`, a bare numerical error surfaces
    as ``SolverFailure("internal")``; one that breaks the pooled sweep
    itself is charged, like any failure, only to the job that raises it
    when solved alone.
    """
    hook = _SPAN_BATCH
    if hook is None:
        return _solve_systems_batch_impl(jobs, failures)
    with hook(len(jobs)):
        return _solve_systems_batch_impl(jobs, failures)


def _solve_systems_batch_impl(
    jobs: Sequence[tuple["EquationSystem", float, float]],
    failures: dict[int, SolverError] | None = None,
) -> list[TimeSet]:
    results: list[TimeSet | None] = [None] * len(jobs)
    spans: list[tuple[int, int, int]] = []  # (job index, start, stop)
    tasks: list[SolveTask] = []
    for ji, (system, lo, hi) in enumerate(jobs):
        if (
            lo >= hi
            or not system.rows
            or (
                system.all_equalities
                and system.is_conjunctive
                and len(system.rows) > 1
            )
        ):
            _solve_alone(jobs, ji, results, failures)
            continue
        try:
            system.check_budget()
        except SolverError as exc:
            _charge(failures, ji, results, exc)
            continue
        start = len(tasks)
        tasks.extend((r.poly, r.rel, lo, hi) for r in system.rows)
        row_solve_counter().bump(len(system.rows))
        spans.append((ji, start, len(tasks)))
    if not tasks:
        return results  # type: ignore[return-value]
    task_failures: dict[int, SolverError] | None = (
        None if failures is None else {}
    )
    try:
        solved = solve_tasks(tasks, failures=task_failures)
    except SolverError:
        raise
    except _NUMERIC_FAULTS as exc:
        if failures is None:
            raise _internal_failure(exc) from exc
        # The pooled sweep cannot say whose row broke it: solve its
        # jobs one by one so only the offending one is charged.
        for ji, _, _ in spans:
            _solve_alone(jobs, ji, results, failures)
        return results  # type: ignore[return-value]
    for ji, start, stop in spans:
        system, lo, hi = jobs[ji]
        if task_failures:
            bad = [
                task_failures[k]
                for k in range(start, stop)
                if k in task_failures
            ]
            if bad:
                _charge(failures, ji, results, bad[0])
                continue
        try:
            results[ji] = system.evaluate_structure(
                solved[start:stop], lo, hi
            )
        except SolverError as exc:
            _charge(failures, ji, results, exc)
        except _NUMERIC_FAULTS as exc:
            _charge(failures, ji, results, _internal_failure(exc))
    return results  # type: ignore[return-value]


def _solve_alone(
    jobs: Sequence[tuple["EquationSystem", float, float]],
    ji: int,
    results: list,
    failures: dict[int, SolverError] | None,
) -> None:
    """Job ``ji`` through :meth:`EquationSystem.solve` into ``results``."""
    system, lo, hi = jobs[ji]
    try:
        results[ji] = system.solve(lo, hi)
    except SolverError as exc:
        _charge(failures, ji, results, exc)


def _charge(
    failures: dict[int, SolverError] | None,
    ji: int,
    results: list,
    exc: SolverError,
) -> None:
    """Job ``ji`` failed: raise ``exc`` or, given a ``failures`` dict,
    record it there and leave the job's result empty."""
    if failures is None:
        raise exc
    failures[ji] = exc
    results[ji] = TimeSet.empty()


#: Sentinel distinguishing "inconsistent system" from "no candidate row".
_INCONSISTENT = Polynomial([1.0])


def _row_reduce(matrix: np.ndarray) -> np.ndarray:
    """Reduced row-echelon form, eliminating from the highest power down.

    Pivoting on the *highest*-degree columns first drives the reduction
    toward a minimal-degree residual row, which is the cheapest to solve by
    root finding.
    """
    m = matrix.astype(float).copy()
    rows, cols = m.shape
    pivot_row = 0
    for col in range(cols - 1, -1, -1):
        if pivot_row >= rows:
            break
        pivot = pivot_row + int(np.argmax(np.abs(m[pivot_row:, col])))
        if abs(m[pivot, col]) < 1e-12:
            continue
        m[[pivot_row, pivot]] = m[[pivot, pivot_row]]
        m[pivot_row] /= m[pivot_row, col]
        for r in range(rows):
            if r != pivot_row and abs(m[r, col]) > 1e-14:
                m[r] -= m[r, col] * m[pivot_row]
        pivot_row += 1
    return m


def _golden_section(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> float:
    """Golden-section minimization of ``f`` on ``[a, b]``."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
