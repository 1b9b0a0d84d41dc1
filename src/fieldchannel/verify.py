"""Invariant suites behind the `verify` subcommand.

Each suite re-checks one Invariants & Properties block numerically and
reports its worst residual. A deliberately mutated W sign can be injected
(test fixture) to demonstrate that the BCH-consistency suite catches
orientation mistakes in the overlap matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channel, observables, propagation, qmath, smearing


@dataclass(frozen=True)
class SuiteResult:
    passed: bool
    worst: float
    detail: str = ""


def _result(worst, bound, detail=""):
    return SuiteResult(bool(worst <= bound), float(worst), detail)


# ---------------------------------------------------------------------------
# qmath suites
# ---------------------------------------------------------------------------

def suite_entropy_axioms(samples: int = 200) -> SuiteResult:
    worst = 0.0
    for i in range(samples):
        rc = qmath.random_density_matrix(2, seed=2 * i)
        rb = qmath.random_density_matrix(2, seed=2 * i + 1)
        prod = np.kron(rc.matrix, rb.matrix)
        s_sum = qmath.von_neumann_entropy(rc) + qmath.von_neumann_entropy(rb)
        worst = max(worst, abs(qmath.von_neumann_entropy(prod) - s_sum))
        worst = max(worst, -min(0.0, qmath.von_neumann_entropy(rc)))
    return _result(worst, 1e-9)


def suite_concavity(samples: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(samples):
        r1 = qmath.random_density_matrix(4, seed=3 * i).matrix
        r2 = qmath.random_density_matrix(4, seed=3 * i + 1).matrix
        lam = rng.random()
        mix = lam * r1 + (1 - lam) * r2
        gap = (qmath.conditional_entropy(mix)
               - lam * qmath.conditional_entropy(r1)
               - (1 - lam) * qmath.conditional_entropy(r2))
        worst = max(worst, -gap)
    return _result(worst, 1e-9)


def suite_separable_bound(samples: int = 1000) -> SuiteResult:
    worst = -np.inf
    for i in range(samples):
        rho = qmath.random_separable_state(n_terms=1 + i % 6, seed=i)
        worst = max(worst, qmath.coherent_information(rho))
    return _result(worst, 1e-9)


def suite_eigen_residuals(samples: int = 200) -> SuiteResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.choice([2, 4]))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (g + g.conj().T)
        ev, vec = np.linalg.eigh(h)
        for j in range(dim):
            worst = max(worst, np.linalg.norm(h @ vec[:, j] - ev[j] * vec[:, j]))
    return _result(worst, 1e-10)


# ---------------------------------------------------------------------------
# smearing suites
# ---------------------------------------------------------------------------

def suite_transform_roundtrip() -> SuiteResult:
    worst = 0.0
    for prof in (smearing.GaussianProfile(1.0, 3), smearing.GaussianProfile(2.0, 2)):
        spec = smearing.NumericSpectrum(prof)
        back = smearing.NumericProfile(spec)
        rs = np.linspace(0.0, 6.0, 9)
        worst = max(worst, np.max(np.abs(back(rs) - prof(rs))) / prof(0.0))
    # shells: numeric forward vs exact spectrum, numeric inverse vs closed form
    for order in (0, 1):
        prof = smearing.GaussianShellProfile(1.0, 4.0, order)
        exact = prof.spectrum()
        ks = np.linspace(0.0, 12.0, 9)
        num_spec = smearing.NumericSpectrum(prof, rel_tol=1e-11)
        spec_peak = np.max(np.abs(exact(np.linspace(0.0, 12.0, 200))))
        worst = max(worst, np.max(np.abs(num_spec(ks) - exact(ks))) / spec_peak)
        back = smearing.NumericProfile(exact, rel_tol=1e-11)
        rs = np.linspace(0.0, 8.0, 9)
        peak = np.max(np.abs(prof(rs)))
        worst = max(worst, np.max(np.abs(back(rs) - prof(rs))) / peak)
    return _result(worst, 1e-8)


def suite_parseval() -> SuiteResult:
    worst = 0.0
    cases = [smearing.GaussianProfile(1.0, 3), smearing.GaussianProfile(1.5, 2),
             smearing.GaussianShellProfile(1.0, 5.0, 1)]
    for prof in cases:
        spec = prof.spectrum()
        omega = observables.SOLID_ANGLE[prof.d]
        p = prof.d - 1
        pos = smearing.adaptive_quadrature(
            lambda r: omega * r**p * prof(r) ** 2, 0.0, prof.r_support, 1e-11)
        mom = smearing.adaptive_quadrature(
            lambda k: omega * k**p * spec(k) ** 2, 0.0, spec.k_max, 1e-11)
        worst = max(worst, abs(pos - mom) / abs(pos))
    return _result(worst, 1e-8)


def suite_oscillatory_quadrature() -> SuiteResult:
    # integrands carrying cos(Delta k) at Delta / sigma = 10, as they appear
    # inside the overlap integrals
    sigma, delta = 1.0, 10.0
    a = sigma**2 / 4.0
    # O(1) value under violent oscillation: cos^2 keeps a non-oscillatory part
    exact_sq = 0.25 * np.sqrt(np.pi / a) * (1.0 + np.exp(-delta**2 / a))
    got_sq = smearing.adaptive_quadrature(
        lambda k: np.exp(-a * k * k) * np.cos(delta * k) ** 2, 0.0, np.inf,
        rel_tol=1e-12, abs_floor=1e-16)
    worst = abs(got_sq - exact_sq) / exact_sq
    # fully cancelling case: the true value e^{-(Delta/sigma)^2} is far below
    # the double-precision cancellation floor; the engine must return ~0
    # instead of noise or a spurious failure
    got_cos = smearing.adaptive_quadrature(
        lambda k: np.exp(-a * k * k) * np.cos(delta * k), 0.0, np.inf,
        rel_tol=1e-12, abs_floor=1e-13)
    worst = max(worst, abs(got_cos) / 1e-13 * 1e-10)
    return _result(worst, 1e-10)


# ---------------------------------------------------------------------------
# observables suites
# ---------------------------------------------------------------------------

def _sample_amplitudes():
    spec3 = smearing.GaussianSpectrum(1.0, 3)
    spec2 = smearing.GaussianSpectrum(0.7, 2)
    return [
        observables.momentum_amplitude("phi", spec3, 0.0, 1.3),
        observables.momentum_amplitude("pi", spec3, 0.4, 0.8),
        observables.momentum_amplitude("phi", spec2, 1.0, 2.0),
        observables.momentum_amplitude("pi", spec2, 0.0, 1.0),
    ]


def suite_conjugate_symmetry() -> SuiteResult:
    amps = _sample_amplitudes()
    worst = 0.0
    for a, b in itertools.combinations(amps, 2):
        if a.d != b.d:
            continue
        w_ab = observables.overlap_W(a, b)
        w_ba = observables.overlap_W(b, a)
        worst = max(worst, abs(w_ab - np.conj(w_ba)) / max(abs(w_ab), 1e-30))
    return _result(worst, 1e-9)


def suite_positivity() -> SuiteResult:
    amps = _sample_amplitudes()
    worst = 0.0
    for a in amps:
        w = observables.overlap_W(a, a)
        worst = max(worst, -w.real, abs(w.imag))
    strings = [[(1, amps[0]), (-1, amps[0])],
               [(1, amps[0]), (1, amps[1]), (-1, amps[1])],
               [(1, amps[2]), (1, amps[3])]]
    for s in strings:
        mag = abs(observables.wick_expectation(s))
        worst = max(worst, mag - 1.0)
    return _result(worst, 1e-10)


def suite_closed_vs_quadrature() -> SuiteResult:
    worst = 0.0
    sigma = 1.0
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
            worst = max(worst, abs(quad - closed) / abs(closed))
    return _result(worst, 1e-8)


def _eight_vs_merged(sigma, lphi, lpi, xs, zs, flip_sign: bool):
    """8-exponent Wick value vs the merged 4-exponent form with explicit
    commutator factors e^{+x1z1C} e^{-x2z2C} e^{+x3z3C} e^{-x4z4C}."""
    x1, x2, x3, x4 = xs
    z1, z2, z3, z4 = zs
    sx8 = [0, x1, x2, 0, 0, x3, x4, 0]
    sz8 = [z1, 0, 0, z2, z3, 0, 0, z4]
    w8 = observables.gaussian_w_matrix(sx8, sz8, sigma, lphi, lpi)
    if flip_sign:
        w8 = w8.conj()  # orientation mistake: antisymmetric part reversed
    val8 = np.exp(-(np.triu(w8, 1).sum() + 0.5 * np.trace(w8)))

    w4 = observables.gaussian_w_matrix(xs, zs, sigma, lphi, lpi)
    gamma = observables.gaussian_overlap_moments(sigma, lphi, lpi)[2]
    c = -0.5j * gamma
    bch = np.exp((x1 * z1 - x2 * z2 + x3 * z3 - x4 * z4) * c)
    val4 = bch * np.exp(-(np.triu(w4, 1).sum() + 0.5 * np.trace(w4)))
    return val8, val4


def suite_bch_consistency(flip_sign: bool = False, samples: int = 50) -> SuiteResult:
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(samples):
        sigma = float(rng.uniform(0.5, 2.0))
        lphi = float(rng.uniform(0.5, 5.0))
        lpi = float(rng.uniform(0.1, 2.0))
        xs = rng.choice([1, -1], size=4)
        zs = rng.choice([1, -1], size=4)
        v8, v4 = _eight_vs_merged(sigma, lphi, lpi, xs, zs, flip_sign)
        worst = max(worst, abs(v8 - v4) / max(abs(v4), 1e-300))
    return _result(worst, 1e-10)


def suite_theorem1_amplitudes() -> SuiteResult:
    cfg = channel.ChannelConfig(lambda_phi=2.0, delta=6.0)
    ks = np.linspace(1e-4, 40.0, 500)
    phi_a, pi_a, x_b, z_b = channel.base_amplitudes(cfg, ks)
    worst = max(np.max(np.abs(z_b - phi_a)) / np.max(np.abs(phi_a)),
                np.max(np.abs(x_b - pi_a)) / np.max(np.abs(pi_a)))
    return _result(worst, 1e-10)


# ---------------------------------------------------------------------------
# propagation suites
# ---------------------------------------------------------------------------

def suite_lightcone_3d() -> SuiteResult:
    sigma, delta = 1.0, 10.0
    rs = np.linspace(0.0, delta + 10.0, 8001)
    shell = np.abs(rs - delta) <= 5.0 * sigma
    worst = 0.0
    for prof in propagation.bob_profiles_3d(sigma, delta):
        mass = np.abs(prof(rs)) * rs**2
        frac_out = 1.0 - np.trapezoid(mass[shell], rs[shell]) / np.trapezoid(mass, rs)
        worst = max(worst, frac_out)
    return _result(worst, 1e-6)


def suite_interior_2d() -> SuiteResult:
    sigma, delta = 1.0, 10.0
    fb1 = propagation.bob_profile_2d_fb1(sigma, delta)
    rs = np.linspace(0.0, delta + 2.0, 241)
    vals = fb1(rs)
    peak = np.max(np.abs(vals))
    ratio = abs(fb1(delta / 2.0)) / peak
    # interior support present (polynomial suppression): ratio far above 1e-3
    return _result(1e-3 / ratio, 1.0, detail=f"ratio={ratio:.3e}")


def suite_dual_route_3d(points: int = 200) -> SuiteResult:
    sigma, delta = 1.0, 6.0
    rs = np.linspace(0.0, delta + 4.0, points)
    spectra = propagation.bob_spectra(smearing.GaussianSpectrum(sigma, 3), delta)
    worst = 0.0
    for prof, spec in zip(propagation.bob_profiles_3d(sigma, delta), spectra):
        numeric = smearing.NumericProfile(spec, rel_tol=1e-11)
        ref = prof(rs)
        peak = np.max(np.abs(ref))
        got = numeric(rs)
        worst = max(worst, np.max(np.abs(got - ref)) / peak)
    return _result(worst, 1e-6)


def suite_dual_route_2d(points: int = 50) -> SuiteResult:
    sigma, delta = 1.0, 10.0
    rs = np.linspace(0.0, delta + 1.0, points)
    closed = propagation.bob_profile_2d_fb1(sigma, delta)(rs)
    numeric_prof = propagation.bob_profiles_2d_numeric(sigma, delta, rel_tol=1e-11)[0]
    numeric = numeric_prof(rs)
    peak = np.max(np.abs(closed))
    worst = np.max(np.abs(numeric - closed)) / peak
    return _result(worst, 1e-4)


# ---------------------------------------------------------------------------
# channel suites
# ---------------------------------------------------------------------------

def suite_state_validity() -> SuiteResult:
    configs = [channel.ChannelConfig(lambda_phi=lam) for lam in (0.0, 0.1, 1.0, 10.0, 1000.0)]
    configs.append(channel.ChannelConfig(lambda_phi=10.0, bob=channel.BobSpec("rank1")))
    configs.append(channel.ChannelConfig(
        lambda_phi=10.0, bob=channel.BobSpec("truncated_outer", r0=6.0, eps=0.1)))
    worst = 0.0
    for cfg in configs:
        m = channel.rho_cb(cfg).rho_cb.matrix
        worst = max(worst,
                    np.max(np.abs(m - m.conj().T)),
                    abs(np.trace(m).real - 1.0),
                    -float(np.linalg.eigvalsh(m).min()))
    return _result(worst, 1e-9)


def suite_perfect_reduction() -> SuiteResult:
    worst = 0.0
    for lphi in (3.0, 10.0):
        cfg = channel.ChannelConfig(
            lambda_phi=lphi,
            bob=channel.BobSpec("truncated_outer", r0=1e-3, eps=0.05),
            k_max=200.0)
        rho_general = channel.assemble_rho(channel.overlap_matrix(cfg))
        full = channel.ChannelConfig(lambda_phi=lphi)
        rho_closed = channel.assemble_rho(channel.overlap_matrix(full))
        worst = max(worst, np.max(np.abs(rho_general - rho_closed)))
    return _result(worst, 1e-10)


def suite_rank1_null() -> SuiteResult:
    worst = -np.inf
    for lphi in (1.0, 10.0, 100.0):
        worst = max(worst, channel.coherent_info_of(
            channel.ChannelConfig(lambda_phi=lphi, lambda_pi=0.0)))
        worst = max(worst, channel.coherent_info_of(
            channel.ChannelConfig(lambda_phi=lphi, bob=channel.BobSpec("rank1"))))
    return _result(worst, 1e-9)


def suite_no_simultaneous_broadcast() -> SuiteResult:
    cfg = channel.ChannelConfig(lambda_phi=10.0, bob=channel.BobSpec(eps=0.1))
    rows = channel.broadcast_sweep([6.0, 10.0, 14.0], cfg)
    worst = max(min(ic1, ic2) for _, ic1, ic2 in rows)
    return _result(worst, 1e-6)


def suite_complementarity() -> SuiteResult:
    full_ic = channel.coherent_info_of(channel.ChannelConfig(lambda_phi=10.0))
    outer = channel.ChannelConfig(
        lambda_phi=10.0, bob=channel.BobSpec("truncated_outer", r0=0.5, eps=0.05))
    return _result(abs(channel.coherent_info_of(outer) - full_ic), 1e-3)


def suite_reference_untouched() -> SuiteResult:
    # tr_B rho_CB = identity/2 exactly: the reference qubit never couples
    configs = [channel.ChannelConfig(lambda_phi=lam) for lam in (0.0, 0.7, 1000.0)]
    configs.append(channel.ChannelConfig(lambda_phi=5.0, lambda_pi=0.3))
    configs.append(channel.ChannelConfig(
        lambda_phi=1000.0, bob=channel.BobSpec("truncated_outer", r0=9.0, eps=0.1)))
    worst = 0.0
    for cfg in configs:
        rho_c = qmath.partial_trace(channel.rho_cb(cfg).rho_cb, "C")
        worst = max(worst, float(np.max(np.abs(rho_c - np.eye(2) / 2))))
    return _result(worst, 1e-11)


ALL_SUITES = (
    ("qmath-entropy-axioms", suite_entropy_axioms),
    ("qmath-concavity", suite_concavity),
    ("qmath-separable-bound", suite_separable_bound),
    ("qmath-eigen-residuals", suite_eigen_residuals),
    ("smearing-roundtrip", suite_transform_roundtrip),
    ("smearing-parseval", suite_parseval),
    ("smearing-oscillatory", suite_oscillatory_quadrature),
    ("observables-conjugate-symmetry", suite_conjugate_symmetry),
    ("observables-positivity", suite_positivity),
    ("observables-closed-vs-quadrature", suite_closed_vs_quadrature),
    ("observables-bch-consistency", suite_bch_consistency),
    ("observables-theorem1-amplitude", suite_theorem1_amplitudes),
    ("propagation-lightcone-3d", suite_lightcone_3d),
    ("propagation-interior-2d", suite_interior_2d),
    ("propagation-dual-route-3d", suite_dual_route_3d),
    ("propagation-dual-route-2d", suite_dual_route_2d),
    ("channel-state-validity", suite_state_validity),
    ("channel-perfect-reduction", suite_perfect_reduction),
    ("channel-rank1-null", suite_rank1_null),
    ("channel-no-simultaneous-broadcast", suite_no_simultaneous_broadcast),
    ("channel-complementarity", suite_complementarity),
    ("channel-reference-untouched", suite_reference_untouched),
)


def run_suites(w_sign_flip: bool = False) -> list[tuple[str, SuiteResult]]:
    """(name, result) for every suite in ALL_SUITES; w_sign_flip injects
    the test-fixture mutation into the BCH check."""
    return [(name, fn(flip_sign=w_sign_flip) if fn is suite_bch_consistency else fn())
            for name, fn in ALL_SUITES]
