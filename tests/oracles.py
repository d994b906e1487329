"""Reference implementations the parity suites compare the engine against.

The engine runs one path: the batched kernel behind the solve cache,
closed-form cubic/quartic candidates, and a content-addressed solution
store in front of every selective operator.  The slower twins it is
held equal to live here, as plain functions and context managers for
tests and tools — none of them is reachable from ``src/``:

* **scalar** — :func:`repro.core.roots.real_roots` and
  :func:`repro.core.roots.solve_relation` row by row, uncached;
* **companion** — the stacked companion-matrix eigensolve for every
  degree, i.e. the bucket the closed-form kernels fall back to;
* **full re-solve** — every probe solved from scratch: the solution
  store still shares compiled systems but never serves a solution.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core import batch_solver
from repro.core.delta import SolutionStore
from repro.core.equation_system import EquationSystem
from repro.core.intervals import TimeSet
from repro.core.roots import solve_relation


# ----------------------------------------------------------------------
# scalar
# ----------------------------------------------------------------------
def scalar_solve_tasks(tasks: Sequence[tuple]) -> list[TimeSet]:
    """``(poly, rel, lo, hi)`` tasks solved one row at a time."""
    return [solve_relation(poly, rel, lo, hi) for poly, rel, lo, hi in tasks]


def scalar_system_solve(
    system: EquationSystem, lo: float, hi: float
) -> TimeSet:
    """``system`` over ``[lo, hi)`` with every row solved by the scalar
    path and combined through the system's own boolean structure."""
    rows = scalar_solve_tasks(
        [(row.poly, row.rel, lo, hi) for row in system.rows]
    )
    return system.evaluate_structure(rows, lo, hi)


# ----------------------------------------------------------------------
# companion eigensolve
# ----------------------------------------------------------------------
def _decline(desc_matrix: np.ndarray):
    """A closed-form kernel that hands every row back (``ok`` all False)."""
    n, length = desc_matrix.shape
    return np.full((n, length - 1), np.nan), np.zeros(n, dtype=bool)


def companion_roots_rows(rows) -> list[list[float]]:
    """:func:`~repro.core.batch_solver.real_roots_rows` with degree-3/4
    rows routed to the companion eigensolve.

    Replaces both closed-form kernels with one that declines every row,
    so the dispatcher takes its own per-row fallback: the rows land in
    the companion bucket exactly as rows of degree >= 5 do.  Takes
    ``(coeffs, lo, hi)`` rows like the function it mirrors.
    """
    saved = batch_solver.cubic_candidates, batch_solver.quartic_candidates
    batch_solver.cubic_candidates = _decline
    batch_solver.quartic_candidates = _decline
    try:
        return batch_solver.real_roots_rows(rows)
    finally:
        batch_solver.cubic_candidates, batch_solver.quartic_candidates = saved


# ----------------------------------------------------------------------
# full re-solve
# ----------------------------------------------------------------------
@contextmanager
def full_resolve() -> Iterator[None]:
    """Make every solution-store lookup miss its *solution*.

    Compiled systems are still found (compiling is deterministic, so
    sharing them cannot change an output); what is switched off is the
    reuse of a solved ``TimeSet`` for re-confirmed content — each probe
    solves over its own domain, which is the behaviour the store must
    reproduce bit for bit.
    """
    real = SolutionStore.lookup

    def lookup(self, sig, lo, hi):
        found = real(self, sig, lo, hi)
        return None if found is None else (found[0], None)

    SolutionStore.lookup = lookup
    try:
        yield
    finally:
        SolutionStore.lookup = real
