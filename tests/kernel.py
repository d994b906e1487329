"""One-row calls into the shipped batched root kernel.

The behaviour tests of root finding and sign solving exercise the path
the engine runs, :mod:`repro.core.batch_solver`, one row at a time; the
scalar references they are *not* are in :mod:`tests.oracles`.
"""

from __future__ import annotations

import math

from repro.core.batch_solver import real_roots_batch, solve_relation_batch


def kernel_real_roots(poly, lo=-math.inf, hi=math.inf):
    (roots,) = real_roots_batch([(poly, lo, hi)])
    return roots


def kernel_solve_relation(poly, rel, lo, hi):
    (solution,) = solve_relation_batch([(poly, rel, lo, hi)])
    return solution
