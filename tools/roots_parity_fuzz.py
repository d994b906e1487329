#!/usr/bin/env python
"""Fuzz the closed-form kernel ladder and the companion eigensolve
against exact arithmetic.

The dispatch ladder in :mod:`repro.core.batch_solver` sends degree-3/4
rows through the Cardano/Ferrari kernels and everything at degree >= 5
through the stacked companion eigensolve; ``tests.oracles.
companion_roots_rows`` sends every row through the eigensolve.  Both
root lists of every row (one, when they agree to 1e-7) are held to
:mod:`tests.exact` by
``tests.kernel.assert_roots_match_exact``, except on the near-multiple
clusters below:

* random dense polynomials of degree 1..6 at coefficient scales from
  1e-3 to 1e8 (the trig/radical cubic branches and the Ferrari vs
  biquadratic quartic branches all get exercised);
* constructed repeated and near-multiple roots (the branches where
  naive formulas lose digits).  A cluster of ``k`` roots moves by
  ``eps ** (1 / k)`` under rounding, so the kernels owe it no root
  count or position: each root they report there must only be an exact
  root of ``p`` with coefficients perturbed by ``BACKWARD_TOL``;
* trailing-zero monomial gaps (rows whose effective degree drops after
  the batch pops exact zeros).

Exit status 0 when every list matches, 1 with a per-case report
otherwise.  CI runs it in the tier-1 job (exit code only).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.batch_solver import real_roots_rows
from repro.core.polynomial import Polynomial
from tests.kernel import assert_roots_match_exact
from tests.oracles import companion_roots_rows

DOMAIN = (-10.0, 10.0)
SCALES = (1e-3, 1.0, 1e3, 1e8)
#: Relative backward error allowed of a root reported on a cluster row.
BACKWARD_TOL = 1e-12


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


def _assert_backward_stable(roots: list[float], coeffs: list[float]) -> None:
    for x in roots:
        terms = [Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs)]
        assert abs(sum(terms)) <= BACKWARD_TOL * sum(map(abs, terms)), x


def run(n: int, seed: int) -> int:
    rows = _random_rows(n, seed)
    domain_rows = [(r, *DOMAIN) for r in rows]
    closed = real_roots_rows(domain_rows)
    eig = companion_roots_rows(domain_rows)
    failures = 0
    for i, (coeffs, c_roots, e_roots) in enumerate(zip(rows, closed, eig)):
        # Lists equal to 1e-7, ten times inside DELTA, are judged once.
        same = len(c_roots) == len(e_roots) and all(
            abs(x - y) <= 1e-7 * max(1.0, abs(x)) for x, y in zip(c_roots, e_roots)
        )
        judged = [("closed-form", c_roots)] + ([] if same else [("eigval", e_roots)])
        for path, roots in judged:
            try:
                if i % 4 == 2:  # a near-multiple cluster (_random_rows)
                    _assert_backward_stable(roots, coeffs)
                else:
                    assert_roots_match_exact(roots, Polynomial(coeffs), *DOMAIN)
            except AssertionError as exc:
                failures += 1
                print(f"[{path}] row {i}: coeffs={coeffs}\n  {exc}", file=sys.stderr)
    print(f"roots-parity fuzz: {n} rows, seed {seed} — {failures} mismatches")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="rows to fuzz")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return run(args.n, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
