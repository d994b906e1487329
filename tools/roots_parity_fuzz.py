#!/usr/bin/env python
"""Fuzz the closed-form kernel ladder against the companion eigensolve.

The dispatch ladder in :mod:`repro.core.batch_solver` sends degree-3/4
rows through the Cardano/Ferrari kernels and everything at degree >= 5
through the stacked companion eigensolve.  Both paths share the Newton
polish / residual filter / dedupe tail, so for every row the final root
list must agree to tight tolerance regardless of which kernel produced
the candidates.  This script is that contract as a fuzzer:

* random dense polynomials of degree 1..6 at coefficient scales from
  1e-3 to 1e8 (the trig/radical cubic branches and the Ferrari vs
  biquadratic quartic branches all get exercised);
* constructed repeated and near-multiple roots (the branches where
  naive formulas lose digits);
* trailing-zero monomial gaps (rows whose effective degree drops after
  the batch pops exact zeros);
* scalar-vs-batch parity: the scalar reference ``real_roots`` of
  ``tests/oracles.py`` must agree with a one-row ``real_roots_rows``
  call exactly, since the reference delegates degree-3/4 work to the
  batch.

Rows with **near-multiple roots are held to a weaker contract**: at a
multiplicity-``k`` root a coefficient perturbation of ``eps`` moves
the root by ``eps**(1/k)``, so the two kernels can legitimately
disagree on both position and *count* (a tangential double root sits
on the residual filter's knife edge).  For those rows — detected via a
``np.roots`` referee cluster-gap test — the check is containment: every
root either path reports must lie near a true root cluster.  Rows with
well-separated roots get the strict list-equality comparison.

Exit status 0 when every comparison agrees, 1 with a per-case report
otherwise.  CI runs this as the blocking ``roots-parity`` job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.batch_solver import real_roots_rows
from repro.core.polynomial import Polynomial
from tests.oracles import companion_roots_rows, real_roots

DOMAIN = (-10.0, 10.0)
SCALES = (1e-3, 1.0, 1e3, 1e8)
#: Relative tolerance for cross-kernel root agreement after polish.
REL_TOL = 1e-7
#: A row whose true roots (np.roots referee) come closer than this
#: (relative) is "clustered": conditioning, not the kernel, bounds
#: agreement there.
CLUSTER_TOL = 1e-3
#: On clustered rows every reported root must still sit within this
#: (relative) of a true root — divergence beyond conditioning fails.
LOOSE_TOL = 1e-2


def _random_rows(n: int, seed: int) -> list[list[float]]:
    """Ascending-coefficient rows covering the ladder's branch space."""
    rng = np.random.default_rng(seed)
    rows: list[list[float]] = []
    while len(rows) < n:
        kind = len(rows) % 4
        degree = int(rng.integers(1, 7))
        scale = float(SCALES[int(rng.integers(0, len(SCALES)))])
        if kind == 0:
            # Dense random coefficients at the chosen scale.
            coeffs = (rng.normal(0.0, 1.0, degree + 1) * scale).tolist()
            if coeffs[-1] == 0.0:
                coeffs[-1] = scale
        elif kind == 1:
            # Product of linear factors: known real roots in-domain,
            # including exact repeats (multiplicity 2).
            roots = rng.uniform(DOMAIN[0], DOMAIN[1], max(degree, 1))
            if degree >= 2 and rng.random() < 0.5:
                roots[1] = roots[0]
            p = Polynomial([scale])
            for r in roots:
                p = p * Polynomial([-float(r), 1.0])
            coeffs = list(p.coeffs)
        elif kind == 2:
            # Near-multiple roots: a cluster separated by ~1e-7.
            base = float(rng.uniform(DOMAIN[0], DOMAIN[1]))
            eps = 1e-7 * float(rng.uniform(0.5, 2.0))
            p = Polynomial([scale])
            for k in range(max(degree, 2)):
                p = p * Polynomial([-(base + k * eps), 1.0])
            coeffs = list(p.coeffs)
        else:
            # Monomial gaps: zero out interior/trailing coefficients so
            # the batch's exact-zero popping changes effective degree.
            coeffs = (rng.normal(0.0, 1.0, degree + 1) * scale).tolist()
            for idx in rng.integers(0, degree + 1, size=degree // 2 + 1):
                coeffs[int(idx)] = 0.0
            if all(c == 0.0 for c in coeffs):
                coeffs[0] = scale
        rows.append([float(c) for c in coeffs])
    return rows


def _agree(a: list[float], b: list[float]) -> bool:
    if len(a) != len(b):
        return False
    return all(
        abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))
        for x, y in zip(a, b)
    )


def _referee_roots(coeffs: list[float]) -> np.ndarray:
    """All complex roots per ``np.roots`` (descending input)."""
    desc = list(reversed(coeffs))
    while desc and desc[0] == 0.0:
        desc.pop(0)
    if len(desc) < 2:
        return np.empty(0, dtype=complex)
    return np.roots(desc)


def _is_clustered(true_roots: np.ndarray) -> bool:
    for i in range(len(true_roots)):
        for j in range(i + 1, len(true_roots)):
            gap = abs(true_roots[i] - true_roots[j])
            if gap <= CLUSTER_TOL * max(1.0, abs(true_roots[i])):
                return True
    return False


def _contained(roots: list[float], true_roots: np.ndarray) -> bool:
    """Every reported root lies within LOOSE_TOL of some true root."""
    return all(
        any(
            abs(r - t) <= LOOSE_TOL * max(1.0, abs(r))
            for t in true_roots
        )
        for r in roots
    )


def run(n: int, seed: int) -> int:
    rows = _random_rows(n, seed)
    domain_rows = [(r, *DOMAIN) for r in rows]
    closed = real_roots_rows(domain_rows)
    eig = companion_roots_rows(domain_rows)
    failures = 0
    clustered_rows = 0
    for i, (coeffs, c_roots, e_roots) in enumerate(zip(rows, closed, eig)):
        if _agree(c_roots, e_roots):
            continue
        true_roots = _referee_roots(coeffs)
        if _is_clustered(true_roots):
            # Conditioning-bound row: both paths must stay near the
            # true cluster, but count/position parity is not owed.
            clustered_rows += 1
            if _contained(c_roots, true_roots) and _contained(
                e_roots, true_roots
            ):
                continue
        failures += 1
        print(
            f"[cross-kernel] row {i}: coeffs={coeffs}\n"
            f"  closed-form: {c_roots}\n"
            f"  eigval:      {e_roots}",
            file=sys.stderr,
        )
    # Scalar-vs-batch: exact equality, the scalar path delegates.
    scalar_failures = 0
    for i, (coeffs, batch_roots) in enumerate(zip(rows, closed)):
        if all(c == 0.0 for c in coeffs[1:]):
            continue  # constant rows: scalar API rejects degree 0
        s_roots = real_roots(Polynomial(coeffs), *DOMAIN)
        if s_roots != batch_roots:
            scalar_failures += 1
            print(
                f"[scalar-vs-batch] row {i}: coeffs={coeffs}\n"
                f"  scalar: {s_roots}\n"
                f"  batch:  {batch_roots}",
                file=sys.stderr,
            )
    print(
        f"roots-parity fuzz: {n} rows, seed {seed} — "
        f"{failures} cross-kernel mismatches, "
        f"{scalar_failures} scalar-vs-batch mismatches "
        f"({clustered_rows} clustered rows held to containment)"
    )
    return 1 if failures or scalar_failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="rows to fuzz")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return run(args.n, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
