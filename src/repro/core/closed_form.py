"""Vectorized closed-form root kernels for cubics and quartics.

The overwhelmingly common case on the solver hot path is a difference
row of degree <= 4 (two low-degree models subtracted), and degrees 3
and 4 have closed-form solutions that never need the companion-matrix
eigensolve ``np.linalg.eigvals`` pays per bucket.  This module supplies
the numerically-safe vectorized branches:

* **Cubic (Cardano, trig form).**  After monic normalization the
  Numerical-Recipes formulation is used: ``Q = (a^2 - 3b) / 9``,
  ``R = (2a^3 - 9ab + 27c) / 54``.  Rows with ``R^2 <= Q^3`` take the
  trigonometric branch (the *casus irreducibilis* — three real roots,
  where naive Cardano would need complex cube roots), evaluated with a
  clipped ``arccos`` so boundary rounding cannot produce NaN; the rest
  take the copysign-guarded radical branch ``A = -sign(R) * cbrt(|R| +
  sqrt(R^2 - Q^3))`` which adds two same-signed magnitudes and so never
  cancels catastrophically.  A small relative slack widens the trig
  branch across the discriminant boundary: a double root sitting
  rounding-noise outside it still yields its candidate pair, and the
  Newton polish plus residual filter downstream decide its fate — the
  same accept/reject economy the eigval path runs via ``IMAG_TOL``.

* **Quartic (Ferrari via resolvent cubic).**  Depressed form ``y^4 +
  p y^2 + q y + r`` (shift ``x = y - a/4``), resolvent ``m^3 + p m^2 +
  (p^2/4 - r) m - q^2/8 = 0`` solved with the cubic kernel above, the
  largest real root ``m`` selected (it is the best-conditioned perfect
  -square completion), then two quadratics ``y^2 -/+ s y + (p/2 + m
  +/- q/(2s)) = 0`` with ``s = sqrt(2m)``, each solved with the
  copysign-guarded stable quadratic.  Rows with ``q == 0`` short-cut to
  the biquadratic branch (quadratic in ``y^2``).  Sub-quadratic
  discriminants within a relative clamp below zero are treated as
  tangential double roots — again, polish + residual filtering
  downstream make the final call.

Both kernels return *candidates plus a per-row ``ok`` mask*, not final
roots: candidates flow into the exact same vectorized Newton polish,
residual filter, sort/dedupe/domain-pad pipeline the companion-matrix
candidates use (:func:`repro.core.batch_solver.real_roots_rows`), so a
closed-form result is accepted under precisely the same rules as an
eigval result.  ``ok`` is ``False`` whenever a non-finite intermediate
invalidated the row (e.g. monic normalization overflowing near the
``COEFF_MAX`` guardrail) — the dispatcher falls back to the companion
eigensolve for exactly those rows.

Every operation is an elementwise ufunc (no reductions), so a row's
candidates are independent of which batch it rides in — the same
partition-invariance argument the stacked eigensolver makes
(``tests/property/test_closed_form.py`` pins the lane-consistency of the
ufuncs involved).
"""

from __future__ import annotations

import numpy as np

#: Relative slack widening the cubic trig branch across the
#: ``R^2 == Q^3`` discriminant boundary, so near-double roots that
#: rounding pushed marginally outside still produce their candidate
#: pair (the residual filter rejects them if they are not real roots).
TRIG_BRANCH_SLACK = 1e-10

#: Relative clamp for marginally negative sub-quadratic discriminants
#: inside the quartic: within it, the pair is treated as a tangential
#: double root at the vertex.  Mirrors the eigval path's ``IMAG_TOL``
#: acceptance of almost-real conjugate pairs.
DISC_CLAMP = 1e-12

#: Relative threshold (against the depressed-coordinate root scale
#: ``y0``) below which a quartic's linear term is treated as zero and
#: the row takes the biquadratic branch instead of Ferrari.  The value
#: balances the two error sources at the crossover: Ferrari's seed
#: error grows as ``~8 eps y0^6 / q^2`` (the resolvent root ``m ~
#: q^2/y0^4`` is computed by cancellation of O(y0^2) terms and the
#: ``q/(2s)`` shift inherits half its relative error) while the
#: biquadratic branch's error from dropping the q-term is ``~|q| /
#: (4 y0^3)``; equating the two gives ``|q| ~ (8 eps)^(1/3) y0^3 ~
#: 2e-5 y0^3``, i.e. ~5e-6 relative seed error on either side of the
#: switch — deep inside the Newton polish basin.
Q_NEGLIGIBLE = 2e-5

#: Wider relative clamp for the two Ferrari split quadratics.  Their
#: discriminants inherit the resolvent root's rounding error amplified
#: through ``s = sqrt(2m)`` and ``q/(2s)``, and their constant terms
#: ``base +/- shift`` are computed by cancellation of O(|p|) magnitudes
#: — so a quartic double root's knife-edge zero discriminant lands up
#: to a few 1e-12 *absolute* below zero even when the disc's own scale
#: ``2m`` is tiny.  The clamp is therefore taken relative to the
#: cancellation magnitude (the ``err_scale`` floor), not just the
#: cancelled result.  A clamp miss here is not a spurious root but a
#: *lost seed* (the polish cannot recover a candidate that was never
#: emitted), while a clamp hit merely emits the vertex as a seed for
#: the downstream Newton polish + residual filter to vet — so the
#: window errs wide.
FERRARI_DISC_CLAMP = 1e-9


def _stable_quadratic_batch(
    b: np.ndarray,
    c: np.ndarray,
    clamp: float = DISC_CLAMP,
    err_scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of monic ``y^2 + b y + c = 0``, vectorized and guarded.

    Returns ``(r1, r2, has_real)``.  Discriminants within ``clamp``
    (relative, default :data:`DISC_CLAMP`) below zero are clamped to
    the double root at ``-b/2``; genuinely negative discriminants report
    ``has_real = False`` with NaN root slots.  ``err_scale``, when
    given, floors the clamp's reference scale — for callers whose
    ``b``/``c`` were produced by cancellation of larger magnitudes, the
    discriminant's absolute error tracks those magnitudes rather than
    the cancelled results.  The larger-magnitude
    root is computed first via the copysign trick and the other from
    the product of roots, exactly like the kernel's degree-2 rung
    :func:`repro.core.roots._quadratic_roots`.
    """
    disc = b * b - 4.0 * c
    scale = np.maximum(b * b, np.abs(4.0 * c))
    if err_scale is not None:
        scale = np.maximum(scale, err_scale)
    near = (disc < 0.0) & (disc >= -clamp * scale)
    disc = np.where(near, 0.0, disc)
    has_real = disc >= 0.0
    sq = np.sqrt(np.where(has_real, disc, 0.0))
    q = -0.5 * (b + np.copysign(sq, b))
    r1 = np.where(has_real, q, np.nan)
    with np.errstate(all="ignore"):
        r2 = np.where(has_real & (q != 0.0), c / np.where(q != 0.0, q, 1.0), 0.0)
    r2 = np.where(has_real, r2, np.nan)
    return r1, r2, has_real


def cubic_candidates(desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form candidate roots of cubic rows (descending coeffs).

    ``desc`` has shape ``(n, 4)`` with a non-zero leading column.
    Returns ``(candidates, ok)``: ``candidates`` is ``(n, 3)`` float64
    with NaN in slots the taken branch does not produce, and ``ok[i]``
    is ``False`` when row ``i`` hit a non-finite intermediate and must
    fall back to the companion eigensolve.
    """
    desc = np.asarray(desc, dtype=float)
    n = desc.shape[0]
    out = np.full((n, 3), np.nan)
    with np.errstate(all="ignore"):
        a = desc[:, 1] / desc[:, 0]
        b = desc[:, 2] / desc[:, 0]
        c = desc[:, 3] / desc[:, 0]
        q_term = (a * a - 3.0 * b) / 9.0
        r_term = (2.0 * a * a * a - 9.0 * a * b + 27.0 * c) / 54.0
        r2 = r_term * r_term
        q3 = q_term * q_term * q_term
        trig = (q_term > 0.0) & (r2 <= q3 * (1.0 + TRIG_BRANCH_SLACK))
        n_trig = int(np.count_nonzero(trig))

        # Branch bodies are gated on batch composition purely to skip
        # dead ufunc sweeps (each elementwise call costs ~1us of
        # dispatch); a row's own values are identical either way, so
        # partition invariance is untouched.
        if n_trig:
            # --- three-real-root (trig) branch ---------------------------
            sqrt_q = np.sqrt(np.where(q_term > 0.0, q_term, 1.0))
            ratio = np.clip(
                r_term / np.where(q3 > 0.0, sqrt_q * sqrt_q * sqrt_q, 1.0),
                -1.0,
                1.0,
            )
            theta = np.arccos(ratio)
            two_pi_3 = 2.0943951023931953  # 2*pi/3, fixed so lanes agree
            t0 = -2.0 * sqrt_q * np.cos(theta / 3.0) - a / 3.0
            t1 = -2.0 * sqrt_q * np.cos(theta / 3.0 + two_pi_3) - a / 3.0
            t2 = -2.0 * sqrt_q * np.cos(theta / 3.0 - two_pi_3) - a / 3.0

        if n_trig < n:
            # --- one-real-root (guarded radical) branch ------------------
            rad = np.sqrt(np.where(trig, 0.0, np.maximum(r2 - q3, 0.0)))
            big = -np.copysign(1.0, r_term) * np.cbrt(np.abs(r_term) + rad)
            small = np.where(
                big != 0.0, q_term / np.where(big != 0.0, big, 1.0), 0.0
            )
            single = big + small - a / 3.0

    if n_trig == n:
        out[:, 0] = t0
        out[:, 1] = t1
        out[:, 2] = t2
    elif n_trig == 0:
        out[:, 0] = single
    else:
        out[:, 0] = np.where(trig, t0, single)
        out[:, 1] = np.where(trig, t1, np.nan)
        out[:, 2] = np.where(trig, t2, np.nan)

    # A row is sound iff every slot its branch was supposed to fill is
    # finite; branch-unfilled slots are NaN by construction and benign.
    filled = np.zeros((n, 3), dtype=bool)
    filled[:, 0] = True
    filled[:, 1] = trig
    filled[:, 2] = trig
    ok = np.all(np.isfinite(out) | ~filled, axis=1)
    return out, ok


def quartic_candidates(desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form candidate roots of quartic rows (descending coeffs).

    ``desc`` has shape ``(n, 5)`` with a non-zero leading column.
    Returns ``(candidates, ok)`` with ``candidates`` of shape
    ``(n, 4)``; NaN marks slots whose sub-quadratic had no real pair
    (a legitimate outcome — a quartic may have 0 real roots), ``ok``
    is ``False`` only for rows needing the eigval fallback.
    """
    desc = np.asarray(desc, dtype=float)
    n = desc.shape[0]
    with np.errstate(all="ignore"):
        a = desc[:, 1] / desc[:, 0]
        b = desc[:, 2] / desc[:, 0]
        c = desc[:, 3] / desc[:, 0]
        d = desc[:, 4] / desc[:, 0]
        a2 = a * a
        # Depressed quartic y^4 + p y^2 + q y + r, x = y - a/4.
        p = b - 0.375 * a2
        q = c - 0.5 * a * b + 0.125 * a2 * a
        r = d - 0.25 * a * c + 0.0625 * a2 * b - (3.0 / 256.0) * a2 * a2

        # Resolvent cubic m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0; its
        # largest real root m > 0 (for q != 0) completes the square.
        ones = np.ones(n)
        resolvent = np.stack(
            [ones, p, 0.25 * p * p - r, -0.125 * q * q], axis=1
        )
        m_cand, m_ok = cubic_candidates(resolvent)
        # Row-wise max over the finite slots (NaN-padded slots map to
        # -inf so an all-NaN row yields -inf, failing the ferrari gate).
        m = np.max(np.where(np.isfinite(m_cand), m_cand, -np.inf), axis=1)

        # Depressed-coordinate root scale: |p| ~ y0^2, |q| ~ y0^3,
        # |r| ~ y0^4.  A q-term whose contribution sits below ~1e-7 of
        # that scale steers Ferrari's q/(2s) shift through a tiny
        # resolvent root computed by catastrophic cancellation (seed
        # error up to ~1e-2); dropping it and taking the biquadratic
        # branch perturbs the roots by only ~|q|/y0^2 — far inside the
        # Newton polish basin — so near-biquadratic rows go that way.
        y0 = np.maximum(
            np.maximum(np.sqrt(np.abs(p)), np.cbrt(np.abs(q))),
            np.abs(r) ** 0.25,
        )
        q_negligible = np.abs(q) <= Q_NEGLIGIBLE * y0 * y0 * y0

        ferrari = ~q_negligible & (m > 0.0) & np.isfinite(m)
        n_ferrari = int(np.count_nonzero(ferrari))

        # Same batch-composition gating as the cubic: skip dead branch
        # sweeps, never change a row's own arithmetic.
        if n_ferrari:
            s = np.sqrt(np.where(ferrari, 2.0 * m, 1.0))
            shift = q / (2.0 * s)
            base = 0.5 * p + m
            # (y^2 + p/2 + m)^2 = 2m (y - q/(4m))^2 splits into two
            # monic quadratics; each contributes up to one real pair.
            # The constant terms cancel O(|base|)+O(|shift|) down to
            # O(m); clamp the split discs against that magnitude.
            split_err = 4.0 * (np.abs(base) + np.abs(shift))
            f1a, f1b, _ = _stable_quadratic_batch(
                -s,
                base + shift,
                clamp=FERRARI_DISC_CLAMP,
                err_scale=split_err,
            )
            f2a, f2b, _ = _stable_quadratic_batch(
                s,
                base - shift,
                clamp=FERRARI_DISC_CLAMP,
                err_scale=split_err,
            )

        if n_ferrari < n:
            # Biquadratic branch (negligible q): z^2 + p z + r = 0,
            # y = +/-sqrt(z).  Dropping the q-term displaces a z-root
            # by up to ~|q| sqrt(z)/y0^2; for a near-zero double root
            # (z ~ 0) that solves to |dz| <= (Q_NEGLIGIBLE y0)^2, so a
            # z marginally below zero within that window is the double
            # root's seed, not a complex pair — clamp it to 0 and let
            # the polish + residual filter vet the y = 0 seeds.
            z1, z2, _ = _stable_quadratic_batch(p, r)
            z_window = (
                DISC_CLAMP * (np.maximum(np.abs(p), np.abs(r)) + 1.0)
                + 4.0 * Q_NEGLIGIBLE * Q_NEGLIGIBLE * y0 * y0
            )
            z1 = np.where((z1 < 0.0) & (z1 >= -z_window), 0.0, z1)
            z2 = np.where((z2 < 0.0) & (z2 >= -z_window), 0.0, z2)
            sz1 = np.sqrt(np.where(z1 >= 0.0, z1, np.nan))
            sz2 = np.sqrt(np.where(z2 >= 0.0, z2, np.nan))

        out = np.empty((n, 4))
        if n_ferrari == n:
            out[:, 0] = f1a
            out[:, 1] = f1b
            out[:, 2] = f2a
            out[:, 3] = f2b
        elif n_ferrari == 0:
            out[:, 0] = sz1
            out[:, 1] = -sz1
            out[:, 2] = sz2
            out[:, 3] = -sz2
        else:
            out[:, 0] = np.where(ferrari, f1a, sz1)
            out[:, 1] = np.where(ferrari, f1b, -sz1)
            out[:, 2] = np.where(ferrari, f2a, sz2)
            out[:, 3] = np.where(ferrari, f2b, -sz2)
        out -= a[:, None] / 4.0

    # Soundness: the depression and resolvent must be finite, and for
    # Ferrari rows the split must have been available (m real-positive
    # whenever q is meaningfully non-zero — algebraically guaranteed,
    # so a miss means the resolvent solve degraded numerically).  NaN
    # candidate slots are legitimate (no real pair from that
    # quadratic) and stay NaN.
    depress_ok = (
        np.isfinite(p) & np.isfinite(q) & np.isfinite(r) & m_ok
    )
    split_ok = ferrari | q_negligible
    ok = depress_ok & split_ok
    return out, ok
