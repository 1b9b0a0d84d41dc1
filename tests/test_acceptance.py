"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. Criterion 6's order-of-magnitude contrast clause is asserted
exactly as stated; the honestly measured contrast at Delta = 10 sigma is
about 11.6 orders (interior-mass reading) and 10.2 orders (pointwise
reading), so that single clause fails by construction of the closed-form
physics; see the README's verification notes.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from fieldchannel import channel, observables, propagation, qmath, smearing, verify
from fieldchannel.channel import BobSpec, ChannelConfig

R0_GRID = np.linspace(2.0, 18.0, 9)
BROADCAST_EPS = 0.1


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_capacity_curve():
    """Fig. 5 reproduction: saturation, weak-coupling zero, monotone clamp,
    under 60 s for the 30-point grid."""
    grid = np.logspace(np.log10(0.1), 3.0, 30)
    start = time.time()
    rows = channel.capacity_sweep(grid, ChannelConfig(lambda_phi=1.0))
    elapsed = time.time() - start
    ic = {round(r[0], 6): r[1] for r in rows}
    clamped = np.array([r[2] for r in rows])
    ok = (ic[1000.0] >= 0.99 and max(0.0, ic[0.1]) == 0.0
          and np.all(np.diff(clamped) >= -1e-6) and elapsed < 60.0)
    report("1", ok, f"Ic(1000)={ic[1000.0]:.6f} Ic(0.1)={ic[0.1]:.2e} "
                    f"monotone={np.all(np.diff(clamped) >= -1e-6)} t={elapsed:.2f}s")
    assert ic[1000.0] >= 0.99
    assert max(0.0, ic[0.1]) == 0.0
    assert np.all(np.diff(clamped) >= -1e-6)
    assert elapsed < 60.0


def test_criterion_2_trivial_channel():
    """Uncoupled detectors leave the reference maximally mixed: I_c = -1."""
    ic = channel.coherent_info_of(ChannelConfig(lambda_phi=0.0, lambda_pi=0.0))
    report("2", abs(ic + 1.0) <= 1e-9, f"Ic={ic:.12f}")
    assert ic == pytest.approx(-1.0, abs=1e-9)


def test_criterion_3_rank1_null_capacity():
    """Single-exponent couplings on either side transmit nothing."""
    worst = -np.inf
    for lphi in (1.0, 10.0, 100.0):
        worst = max(worst, channel.coherent_info_of(
            ChannelConfig(lambda_phi=lphi, lambda_pi=0.0)))
        worst = max(worst, channel.coherent_info_of(
            ChannelConfig(lambda_phi=lphi, bob=BobSpec("rank1"))))
    report("3", worst <= 1e-9, f"max Ic over rank-1 configs = {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_4_gaussian_algebra_oracles():
    """Closed-form W vs quadrature (16 sign patterns x 3 ratios) and the
    8-factor vs merged 4-factor Wick evaluation (50 random configs)."""
    sigma = 1.0
    worst_w = 0.0
    for lphi in (1.0, 10.0, 100.0):
        lpi = observables.gamma_rule_lambda_pi(lphi, sigma)
        spec = smearing.GaussianSpectrum(sigma, 3)
        phi = observables.momentum_amplitude("phi", spec, 0.0, lphi)
        pi = observables.momentum_amplitude("pi", spec, 0.0, lpi)
        for x_l, z_l, x_m, z_m in itertools.product((1, -1), repeat=4):
            closed = observables.gaussian_w_matrix(
                (x_l, x_m), (z_l, z_m), sigma, lphi, lpi)[0, 1]
            l_amp = phi.scaled(z_l) + pi.scaled(x_l)
            m_amp = phi.scaled(z_m) + pi.scaled(x_m)
            quad = observables.overlap_W(l_amp, m_amp, rel_tol=1e-12)
            worst_w = max(worst_w, abs(quad - closed) / abs(closed))
    bch = verify.suite_bch_consistency(samples=50)
    ok = worst_w <= 1e-8 and bch.worst <= 1e-10
    report("4", ok, f"closed-vs-quadrature worst={worst_w:.3e} "
                    f"8-vs-4-factor worst={bch.worst:.3e}")
    assert worst_w <= 1e-8
    assert bch.worst <= 1e-10


def test_criterion_5_propagation_identity_residual():
    """phi[F](t_A) = phi[F2](t_B) + pi[F1](t_B) and the pi counterpart,
    at the amplitude level on a 500-point grid."""
    ks = np.linspace(1e-4, 40.0, 500)
    phi_a, pi_a, x_b, z_b = channel.base_amplitudes(
        ChannelConfig(lambda_phi=2.0, delta=6.0), ks)
    res_phi = np.max(np.abs(z_b - phi_a)) / np.max(np.abs(phi_a))
    res_pi = np.max(np.abs(x_b - pi_a)) / np.max(np.abs(pi_a))
    ok = res_phi <= 1e-10 and res_pi <= 1e-10
    report("5", ok, f"phi-identity residual={res_phi:.3e} pi-identity={res_pi:.3e}")
    assert res_phi <= 1e-10
    assert res_pi <= 1e-10


def test_criterion_6_huygens_contrast():
    """Lightcone localization in 3d, interior support in 2d, and the
    cross-dimension contrast clause (asserted at the stated 12 orders)."""
    sigma, delta = 1.0, 10.0
    rs = np.linspace(0.0, delta + 10.0, 8001)
    shell = np.abs(rs - delta) <= 5.0 * sigma
    worst_leak = 0.0
    for prof in propagation.bob_profiles_3d(sigma, delta):
        mass = np.abs(prof(rs)) * rs**2
        frac = np.trapezoid(mass[shell], rs[shell]) / np.trapezoid(mass, rs)
        worst_leak = max(worst_leak, 1.0 - frac)

    fb1_2d = propagation.bob_profile_2d_fb1(sigma, delta)
    vals_2d = fb1_2d(rs[rs <= delta + 2.0])
    ratio_2d = abs(fb1_2d(delta / 2.0)) / np.max(np.abs(vals_2d))

    fb1_3d = propagation.bob_profiles_3d(sigma, delta)[0]
    ratio_3d = abs(fb1_3d(delta / 2.0)) / np.max(np.abs(fb1_3d(rs)))
    pointwise_orders = np.log10(ratio_2d / ratio_3d)

    interior = rs <= delta / 2.0
    mass_3d = np.abs(fb1_3d(rs)) * rs**2
    frac_3d = np.trapezoid(mass_3d[interior], rs[interior]) / np.trapezoid(mass_3d, rs)
    mass_2d = np.abs(fb1_2d(rs)) * rs
    frac_2d = np.trapezoid(mass_2d[interior], rs[interior]) / np.trapezoid(mass_2d, rs)
    mass_orders = np.log10(frac_2d / frac_3d)

    ok = worst_leak <= 1e-6 and ratio_2d >= 1e-3 and mass_orders >= 12.0
    report("6", ok,
           f"3d shell leak={worst_leak:.2e} 2d ratio={ratio_2d:.3e} "
           f"contrast orders: interior-mass={mass_orders:.2f} "
           f"pointwise={pointwise_orders:.2f} (criterion asks >= 12)")
    assert worst_leak <= 1e-6
    assert ratio_2d >= 1e-3
    assert mass_orders >= 12.0


def _sweep_with_stability(lphi: float):
    cfg = ChannelConfig(lambda_phi=lphi, bob=BobSpec(eps=BROADCAST_EPS))
    start = time.time()
    rows = channel.broadcast_sweep(R0_GRID, cfg)
    elapsed = time.time() - start
    drift = 0.0
    # halve the window roll-off and double the truncated-path cutoff
    tight = replace(cfg, bob=BobSpec(eps=BROADCAST_EPS / 2.0),
                    k_max=2.0 * smearing.default_k_max(cfg.sigma, windowed=True))
    tight_rows = channel.broadcast_sweep(R0_GRID, tight)
    for (r0, a1, a2), (_, b1, b2) in zip(rows, tight_rows):
        for a, b in ((a1, b1), (a2, b2)):
            drift = max(drift, abs(a - b) / max(abs(a), 1e-6))
    return rows, elapsed, drift


def test_criterion_7_broadcast_reproduction():
    """Fig. 8 reproduction: one-sided recovery at the extremes, the 0.65
    ceiling at lambda_phi = 10 sigma, no simultaneous transmission, window
    regularization stability, and the runtime budget."""
    results = {}
    for lphi in (10.0, 1000.0):
        rows, elapsed, drift = _sweep_with_stability(lphi)
        results[lphi] = (rows, elapsed, drift)

    rows10, t10, drift10 = results[10.0]
    rows1000, t1000, drift1000 = results[1000.0]
    ic1_10 = [r[1] for r in rows10]
    ic2_10 = [r[2] for r in rows10]

    strong_edges = rows1000[0][2] >= 0.99 and rows1000[-1][1] >= 0.99
    ceiling = (0.0 < max(ic1_10) <= 0.65) and (0.0 < max(ic2_10) <= 0.65)
    never_both = all(min(r[1], r[2]) <= 1e-6 for r in rows10 + rows1000)
    stable = max(drift10, drift1000) < 0.01
    in_time = max(t10, t1000) < 300.0

    ok = strong_edges and ceiling and never_both and stable and in_time
    report("7", ok,
           f"ic_bob2(r0=2;1000)={rows1000[0][2]:.6f} ic_bob1(r0=18;1000)={rows1000[-1][1]:.6f} "
           f"max ic(10)={max(max(ic1_10), max(ic2_10)):.4f} "
           f"worst drift={max(drift10, drift1000):.2e} t per lambda<={max(t10, t1000):.1f}s")
    assert strong_edges
    assert ceiling
    assert never_both
    assert stable
    assert in_time


def test_criterion_8_entropy_property_suites():
    """Conditional-entropy concavity and the separable-state bound on 1000
    random samples each."""
    rng = np.random.default_rng(101)
    worst_concavity = 0.0
    for i in range(1000):
        r1 = qmath.random_density_matrix(4, seed=5 * i).matrix
        r2 = qmath.random_density_matrix(4, seed=5 * i + 2).matrix
        lam = rng.random()
        mix = lam * r1 + (1 - lam) * r2
        gap = (qmath.conditional_entropy(mix)
               - lam * qmath.conditional_entropy(r1)
               - (1 - lam) * qmath.conditional_entropy(r2))
        worst_concavity = max(worst_concavity, -gap)
    worst_separable = -np.inf
    for i in range(1000):
        rho = qmath.random_separable_state(n_terms=1 + i % 8, seed=i)
        worst_separable = max(worst_separable, qmath.coherent_information(rho))
    ok = worst_concavity <= 1e-9 and worst_separable <= 1e-9
    report("8", ok, f"concavity slack={worst_concavity:.3e} "
                    f"separable Ic max={worst_separable:.3e}")
    assert worst_concavity <= 1e-9
    assert worst_separable <= 1e-9


def test_criterion_9_state_validity_everywhere():
    """Every channel-state family exercised above passes the Hermiticity,
    trace and positivity tolerances (the assembly also enforces them on
    every construction)."""
    configs = [ChannelConfig(lambda_phi=lam) for lam in (0.0, 0.1, 1.0, 10.0, 1000.0)]
    configs += [ChannelConfig(lambda_phi=lam, lambda_pi=0.0) for lam in (1.0, 100.0)]
    configs.append(ChannelConfig(lambda_phi=10.0, bob=BobSpec("rank1")))
    configs.append(ChannelConfig(lambda_phi=10.0, bob=BobSpec("none")))
    for lam in (10.0, 1000.0):
        for r0 in (2.0, 10.0, 18.0):
            for variant in ("truncated_inner", "truncated_outer"):
                configs.append(ChannelConfig(
                    lambda_phi=lam, bob=BobSpec(variant, r0=r0, eps=BROADCAST_EPS)))
    worst = 0.0
    for cfg in configs:
        m = channel.rho_cb(cfg).rho_cb.matrix
        worst = max(worst,
                    float(np.max(np.abs(m - m.conj().T))),
                    abs(np.trace(m).real - 1.0),
                    -float(np.linalg.eigvalsh(m).min()))
    report("9", worst <= 1e-9, f"{len(configs)} configs, worst residual={worst:.3e}")
    assert worst <= 1e-9
