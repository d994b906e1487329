"""Property tests for the closed-form root kernels.

Three contracts, checked against independent referees:

* the scalar :func:`repro.core.roots._quadratic_roots` edge branches
  (zero discriminant, zero constant term, cancellation-prone inputs)
  agree with ``np.roots``;
* the vectorized Cardano/Ferrari kernels
  (:mod:`repro.core.closed_form`) produce candidates with small
  backward error, cover repeated and near-multiple roots, are
  partition-invariant (a row's candidates are bit-identical whether it
  is solved alone or inside any batch — the property the
  scalar-delegates-to-batch parity scheme rests on), and hand
  non-finite rows to the companion eigensolve
  (``closed_form_stats`` fallback accounting);
* the dispatcher yields the same final root lists as the companion
  eigensolve oracle (``tests/oracles.py``) for well-separated roots.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.batch_solver import closed_form_stats, real_roots_rows
from repro.core.closed_form import (
    _stable_quadratic_batch,
    cubic_candidates,
    quartic_candidates,
)
from repro.core.polynomial import Polynomial
from repro.core.roots import _quadratic_roots
from tests.oracles import companion_roots_rows

# Exact zeros are interesting (monomial gaps); denormal-range values
# are not — the dispatcher's _deflate drops them before any kernel
# while a naive np.roots referee overflows on them.
coeff = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=1e3).filter(
        lambda c: abs(c) >= 1e-6
    ),
)
lead = st.floats(min_value=-1e3, max_value=1e3).filter(
    lambda c: abs(c) > 1e-3
)
root_val = st.floats(
    min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False
)

DOMAIN = (-50.0, 50.0)


def _poly_from_roots(scale: float, roots: list[float]) -> list[float]:
    """Descending coefficients of ``scale * prod (t - r)``."""
    p = Polynomial([scale])
    for r in roots:
        p = p * Polynomial([-r, 1.0])
    return list(reversed(p.coeffs))


def _residual_ok(desc: list[float], r: float, tol: float = 1e-6) -> bool:
    """Backward-error check: |p(r)| small against the evaluation scale."""
    powers = [r ** (len(desc) - 1 - i) for i in range(len(desc))]
    value = sum(c * p for c, p in zip(desc, powers))
    scale = sum(abs(c * p) for c, p in zip(desc, powers))
    return abs(value) <= tol * max(1.0, scale)


def _separated_real_roots(
    desc: list[float],
) -> tuple[list[float], float] | None:
    """``(real referee roots, root scale)``, or ``None``.

    ``None`` when any two ``np.roots`` roots sit within 1e-2 (relative)
    of each other — near-multiple clusters where no candidate-accuracy
    contract is meaningful for any kernel.  The returned scale is the
    largest root magnitude: kernel arithmetic works at that scale, so
    absolute candidate error is bounded relative to it, not to each
    individual (possibly tiny) root.
    """
    ref = np.roots(desc)
    for i in range(len(ref)):
        for j in range(i + 1, len(ref)):
            if abs(ref[i] - ref[j]) <= 1e-2 * max(1.0, abs(ref[i])):
                return None
    scale = max((abs(r) for r in ref), default=0.0)
    return [
        float(r.real)
        for r in ref
        if abs(r.imag) <= 1e-8 * max(1.0, abs(r.real))
    ], float(scale)


# ----------------------------------------------------------------------
# scalar _quadratic_roots edge branches vs np.roots
# ----------------------------------------------------------------------
class TestQuadraticRoots:
    @given(c0=coeff, c1=coeff, c2=lead)
    @settings(max_examples=300)
    def test_matches_np_roots(self, c0, c1, c2):
        ours = sorted(_quadratic_roots(c0, c1, c2))
        ref = np.roots([c2, c1, c0])
        ref_real = sorted(
            float(r.real)
            for r in ref
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real))
        )
        assume(len(ours) == len(ref_real))  # knife-edge discriminants
        for a, b in zip(ours, ref_real):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))

    @given(r=root_val, c2=lead)
    def test_exact_double_root(self, r, c2):
        # c2 (t - r)^2: when the float discriminant lands >= 0 the
        # scalar kernel must report a tight root (the scalar path has
        # no disc clamp, so an exactly-negative float disc legitimately
        # comes back empty — that case is exercised by the batch
        # kernel's clamp test instead).
        c1, c0 = -2.0 * c2 * r, c2 * r * r
        roots = _quadratic_roots(c0, c1, c2)
        if c1 * c1 - 4.0 * c2 * c0 >= 0.0:
            assert roots, "non-negative discriminant must yield roots"
        for got in roots:
            assert abs(got - r) <= 1e-6 * max(1.0, abs(r))

    def test_zero_discriminant_branch(self):
        assert _quadratic_roots(1.0, 2.0, 1.0) == [-1.0]

    def test_zero_constant_term(self):
        # c0 == 0: one root at exactly 0.0 via the product-of-roots
        # fallback, the other at -c1/c2.
        roots = sorted(_quadratic_roots(0.0, 3.0, 2.0))
        assert 0.0 in roots
        assert any(abs(r + 1.5) <= 1e-12 for r in roots)

    @given(c1=st.floats(min_value=1e6, max_value=1e8), c2=lead)
    def test_cancellation_prone_large_c1(self, c1, c2):
        # |c1| >> |c0|, |c2|: the naive formula loses the small root to
        # cancellation; the copysign/product-of-roots form must not.
        c0 = 1.0
        ours = sorted(_quadratic_roots(c0, c1, c2))
        assert len(ours) == 2
        for r in ours:
            assert _residual_ok([c2, c1, c0], r, tol=1e-9)


# ----------------------------------------------------------------------
# Cardano / Ferrari kernels
# ----------------------------------------------------------------------
class TestCubicKernel:
    @given(
        rows=st.lists(
            st.tuples(lead, coeff, coeff, coeff), min_size=1, max_size=12
        )
    )
    @settings(max_examples=200)
    def test_candidates_cover_real_roots(self, rows):
        # Candidates are pre-polish *seeds*: the guaranteed contract is
        # coverage (every well-separated real root has a nearby
        # candidate for Newton to converge from), not that every
        # candidate is itself a root — the trig-slack and clamp
        # branches intentionally emit extra seeds near tangencies that
        # the downstream residual filter removes.
        desc = np.asarray(rows, dtype=float)
        cand, ok = cubic_candidates(desc)
        assert cand.shape == (len(rows), 3)
        for i, row in enumerate(rows):
            if not ok[i]:
                continue
            finite = [float(v) for v in cand[i][np.isfinite(cand[i])]]
            assert len(finite) >= 1  # a cubic always has a real root
            referee = _separated_real_roots(list(row))
            if referee is None:
                continue
            targets, scale = referee
            for t in targets:
                assert any(
                    abs(v - t) <= 1e-3 * max(1.0, scale) for v in finite
                ), (row, finite, t)

    @given(r=root_val, s=root_val, scale=lead)
    @settings(max_examples=200)
    def test_repeated_root_recovered(self, r, s, scale):
        assume(abs(r - s) > 0.5)
        desc = _poly_from_roots(scale, [r, r, s])
        cand, ok = cubic_candidates(np.asarray([desc]))
        assert ok[0]
        finite = sorted(float(v) for v in cand[0][np.isfinite(cand[0])])
        # sqrt-conditioning at the double root: 1e-16 coefficient noise
        # moves it by ~1e-8 before amplification by the simple root
        # nearby, so 1e-4 is a generous but meaningful bound.
        assert any(abs(v - r) <= 1e-4 * max(1.0, abs(r)) for v in finite)
        assert any(abs(v - s) <= 1e-4 * max(1.0, abs(s)) for v in finite)

    @given(r=root_val, scale=lead, eps=st.floats(min_value=1e-9, max_value=1e-7))
    @settings(max_examples=100)
    def test_near_multiple_cluster_stays_put(self, r, scale, eps):
        desc = _poly_from_roots(scale, [r, r + eps, r - eps])
        cand, ok = cubic_candidates(np.asarray([desc]))
        assert ok[0]
        finite = cand[0][np.isfinite(cand[0])]
        assert len(finite) >= 1
        for v in finite:
            assert abs(float(v) - r) <= 1e-4 * max(1.0, abs(r))

    @given(
        rows=st.lists(
            st.tuples(lead, coeff, coeff, coeff), min_size=2, max_size=10
        ),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_partition_invariance(self, rows, data):
        # A row's candidates are bit-identical solved alone vs batched
        # with arbitrary other rows — the property the scalar path's
        # delegation to the batch kernel relies on.
        desc = np.asarray(rows, dtype=float)
        batch_cand, batch_ok = cubic_candidates(desc)
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        solo_cand, solo_ok = cubic_candidates(desc[i : i + 1])
        assert bool(solo_ok[0]) == bool(batch_ok[i])
        np.testing.assert_array_equal(solo_cand[0], batch_cand[i])


class TestQuarticKernel:
    @given(
        rows=st.lists(
            st.tuples(lead, coeff, coeff, coeff, coeff),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_candidates_cover_real_roots(self, rows):
        # Same seed-coverage contract as the cubic (near-biquadratic
        # rows route through the biquadratic branch precisely so this
        # radius holds — Ferrari's q/(2s) shift would amplify resolvent
        # rounding far past it).
        desc = np.asarray(rows, dtype=float)
        cand, ok = quartic_candidates(desc)
        assert cand.shape == (len(rows), 4)
        for i, row in enumerate(rows):
            if not ok[i]:
                continue
            finite = [float(v) for v in cand[i][np.isfinite(cand[i])]]
            referee = _separated_real_roots(list(row))
            if referee is None:
                continue
            targets, scale = referee
            for t in targets:
                assert any(
                    abs(v - t) <= 1e-3 * max(1.0, scale) for v in finite
                ), (row, finite, t)

    @given(r=root_val, s=root_val, u=root_val, scale=lead)
    @settings(max_examples=200)
    def test_repeated_root_recovered(self, r, s, u, scale):
        assume(min(abs(r - s), abs(r - u), abs(s - u)) > 0.5)
        desc = _poly_from_roots(scale, [r, r, s, u])
        cand, ok = quartic_candidates(np.asarray([desc]))
        assert ok[0]
        finite = [float(v) for v in cand[0][np.isfinite(cand[0])]]
        for target in (r, s, u):
            assert any(
                abs(v - target) <= 1e-4 * max(1.0, abs(target))
                for v in finite
            )

    def test_biquadratic_branch(self):
        # q == 0 after depression: t^4 - 5 t^2 + 4 = (t^2-1)(t^2-4).
        cand, ok = quartic_candidates(
            np.asarray([[1.0, 0.0, -5.0, 0.0, 4.0]])
        )
        assert ok[0]
        got = sorted(float(v) for v in cand[0][np.isfinite(cand[0])])
        assert got == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-9)

    @given(
        rows=st.lists(
            st.tuples(lead, coeff, coeff, coeff, coeff),
            min_size=2,
            max_size=10,
        ),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_partition_invariance(self, rows, data):
        desc = np.asarray(rows, dtype=float)
        batch_cand, batch_ok = quartic_candidates(desc)
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        solo_cand, solo_ok = quartic_candidates(desc[i : i + 1])
        assert bool(solo_ok[0]) == bool(batch_ok[i])
        np.testing.assert_array_equal(solo_cand[0], batch_cand[i])


class TestStableQuadraticBatch:
    @given(b=coeff, c=coeff)
    @settings(max_examples=200)
    def test_monic_roots(self, b, c):
        r1, r2, has_real = _stable_quadratic_batch(
            np.asarray([b]), np.asarray([c])
        )
        disc = b * b - 4.0 * c
        if disc > 1e-9 * max(b * b, abs(4.0 * c), 1.0):
            assert has_real[0]
            for r in (float(r1[0]), float(r2[0])):
                assert _residual_ok([1.0, b, c], r, tol=1e-7)
        elif disc < -1e-9 * max(b * b, abs(4.0 * c), 1.0):
            assert not has_real[0]
            assert math.isnan(float(r1[0])) and math.isnan(float(r2[0]))

    def test_disc_clamp_tangential_pair(self):
        # (y + 1)^2 perturbed one ulp negative: clamped to the vertex
        # double root instead of dropping to complex.
        b = np.asarray([2.0])
        c = np.asarray([1.0 + 1e-15])
        r1, r2, has_real = _stable_quadratic_batch(b, c)
        assert has_real[0]
        assert float(r1[0]) == pytest.approx(-1.0, abs=1e-7)
        assert float(r2[0]) == pytest.approx(-1.0, abs=1e-7)


# ----------------------------------------------------------------------
# dispatcher: fallback accounting and closed-form/companion parity
# ----------------------------------------------------------------------
class TestDispatcher:
    def test_eigval_fallback_on_overflowing_monic_ratio(self):
        # Leading coefficient ~1e-140 against ~1e140 companions: the
        # monic normalization squares past the float64 ceiling inside
        # Cardano, the kernel reports ok=False, and the row must take
        # the companion eigensolve path (fallback tally) instead of
        # erroring or returning garbage.
        # The infinite domain matters: over a finite one, _deflate's
        # contribution guard would drop the negligible leading term and
        # the row would never reach the cubic kernel.
        before = closed_form_stats()["fallback_rows"]
        rows = [((1e140, 1e140, 1e140, 1e-140), -math.inf, math.inf)]
        got = real_roots_rows(rows)
        after = closed_form_stats()["fallback_rows"]
        assert after == before + 1
        assert got == companion_roots_rows(rows)

    def test_ok_rows_do_not_touch_fallback_tally(self):
        before = closed_form_stats()
        real_roots_rows([((-6.0, 11.0, -6.0, 1.0), *DOMAIN)])
        after = closed_form_stats()
        assert after["fallback_rows"] == before["fallback_rows"]
        assert after["rows"] == before["rows"] + 1

    @given(
        polys=st.lists(
            st.lists(coeff, min_size=4, max_size=6).filter(
                lambda c: c[-1] != 0.0
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_companion(self, polys):
        # Skip conditioning-bound rows: near-multiple true roots make
        # count parity physically unattainable for any kernel pair.
        for c in polys:
            ref = np.roots(list(reversed(c)))
            for i in range(len(ref)):
                for j in range(i + 1, len(ref)):
                    assume(
                        abs(ref[i] - ref[j])
                        > 1e-3 * max(1.0, abs(ref[i]))
                    )
        rows = [(tuple(c), *DOMAIN) for c in polys]
        on = real_roots_rows(rows)
        off = companion_roots_rows(rows)
        assert len(on) == len(off)
        for a_list, b_list in zip(on, off):
            assert len(a_list) == len(b_list)
            for a, b in zip(a_list, b_list):
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", [0, 1])
def test_roots_parity_fuzz_tool_reports_no_mismatch(seed):
    """``tools/roots_parity_fuzz.py`` at the size the former
    ``roots-parity`` CI job ran it: both the closed-form ladder and the
    companion eigensolve against exact arithmetic, to backward error on
    near-multiple clusters."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "tools/roots_parity_fuzz.py"
    spec = importlib.util.spec_from_file_location("roots_parity_fuzz", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.run(600, seed) == 0
