"""Tests for the rho_CB assembly, sweeps and receiver variants."""

import functools
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldchannel
from fieldchannel import channel, qmath, smearing
from fieldchannel.channel import BobSpec, ChannelConfig
from fieldchannel.errors import BadParameter
from fieldchannel.propagation import bob_profiles_3d


def validate_state(m, tol=1e-9):
    assert np.max(np.abs(m - m.conj().T)) <= tol
    assert abs(np.trace(m).real - 1.0) <= tol
    assert np.linalg.eigvalsh(m).min() >= -tol


class TestConfig:
    def test_gamma_rule_default(self):
        cfg = ChannelConfig(lambda_phi=100.0)
        expected = (np.pi / 4) * (2 * np.pi) ** 1.5 / 100.0
        assert cfg.resolved_lambda_pi == pytest.approx(expected, rel=1e-13)

    def test_explicit_lambda_pi_wins(self):
        cfg = ChannelConfig(lambda_phi=100.0, lambda_pi=0.5)
        assert cfg.resolved_lambda_pi == 0.5

    def test_kmax_policy(self):
        assert ChannelConfig(lambda_phi=1.0).resolved_k_max == pytest.approx(40.0)
        truncated = ChannelConfig(lambda_phi=1.0,
                                  bob=BobSpec("truncated_inner", r0=5.0, eps=0.1))
        assert truncated.resolved_k_max == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(BadParameter):
            ChannelConfig(lambda_phi=-1.0)
        with pytest.raises(BadParameter):
            ChannelConfig(lambda_phi=1.0, sigma=0.0)
        with pytest.raises(BadParameter):
            ChannelConfig(lambda_phi=1.0, delta=-0.1)
        with pytest.raises(BadParameter):
            ChannelConfig(lambda_phi=1.0, k_max=0.0)
        with pytest.raises(BadParameter):
            BobSpec("truncated_inner", r0=0.0, eps=0.1)
        with pytest.raises(BadParameter):
            BobSpec("half")
        with pytest.raises(BadParameter):
            ChannelConfig(lambda_phi=1.0, d=2, bob=BobSpec("truncated_inner", r0=5.0, eps=0.1))


class TestExponentString:
    def test_slot_layout(self):
        # slots [z1 phiA, x1 piA, x2 X_B, z2 Z_B, z3 Z_B, x3 X_B, x4 piA, z4 phiA]
        assert channel.SLOT_BASE == (0, 1, 2, 3, 3, 2, 1, 0)

    def test_full_receiver_matches_emitter_amplitudes(self):
        ks = np.linspace(1e-3, 40.0, 200)
        phi_a, pi_a, x_b, z_b = channel.base_amplitudes(
            ChannelConfig(lambda_phi=2.0, delta=6.0), ks)
        peak = np.max(np.abs(phi_a))
        assert np.max(np.abs(z_b - phi_a)) <= 1e-10 * peak
        peak_pi = np.max(np.abs(pi_a))
        assert np.max(np.abs(x_b - pi_a)) <= 1e-10 * peak_pi

    def test_rank1_drops_x_exponent(self):
        ks = np.linspace(0.1, 10.0, 17)
        _, _, x_b, z_b = channel.base_amplitudes(
            ChannelConfig(lambda_phi=2.0, bob=BobSpec("rank1")), ks)
        assert np.allclose(x_b, 0.0)
        assert not np.allclose(z_b, 0.0)

    def test_truncation_complementarity(self):
        # inner + outer windowed receiver amplitudes = full amplitudes, and
        # each side matches the position-space window through the explicit
        # r-grid kernel (the closed form makes the sum hold by algebra alone)
        cfg = ChannelConfig(lambda_phi=2.0, delta=6.0)
        ks = np.linspace(0.3, 8.0, 9)
        t_full = channel.base_amplitudes(cfg, ks)
        split = 0.0
        for side in ("inner", "outer"):
            truncated = replace(cfg, bob=BobSpec(f"truncated_{side}", r0=6.0, eps=0.1))
            t_side = channel.base_amplitudes(truncated, ks)
            f1, f2, f3 = direct_windowed_spectra(truncated, ks).T
            phase = np.exp(-6.0j * ks) / np.sqrt(2.0 * ks)
            x_b = truncated.resolved_lambda_pi * (f3 - 1j * ks * f2) * phase
            z_b = truncated.lambda_phi * (f2 - 1j * ks * f1) * phase
            for base, ref in ((2, x_b), (3, z_b)):
                peak = np.max(np.abs(t_full[base]))
                assert np.max(np.abs(t_side[base] - ref)) <= 1e-12 * peak
            split = split + t_side[2:]
        for i, base in enumerate((2, 3)):
            full_vals = t_full[base]
            peak = np.max(np.abs(full_vals))
            assert np.max(np.abs(split[i] - full_vals)) <= 1e-8 * peak


class TestRhoCB:
    def test_trivial_channel(self):
        res = channel.rho_cb(ChannelConfig(lambda_phi=0.0, lambda_pi=0.0))
        expected = np.kron(np.eye(2) / 2, qmath.proj_y(1))
        assert np.max(np.abs(res.rho_cb.matrix - expected)) < 1e-12
        assert res.coherent_info == pytest.approx(-1.0, abs=1e-9)

    def test_strong_coupling_approaches_unity(self):
        res = channel.rho_cb(ChannelConfig(lambda_phi=1000.0))
        assert res.coherent_info >= 0.99
        assert res.condition_report.gamma_ok
        assert res.condition_report.strong_ok

    def test_no_receiver_is_trivial(self):
        res = channel.rho_cb(ChannelConfig(lambda_phi=10.0, bob=BobSpec("none")))
        assert res.coherent_info == pytest.approx(-1.0, abs=1e-9)

    def test_states_valid_across_couplings(self):
        for lphi in (0.0, 0.1, 1.0, 10.0, 1000.0):
            res = channel.rho_cb(ChannelConfig(lambda_phi=lphi))
            validate_state(res.rho_cb.matrix)

    def test_truncated_state_valid(self):
        res = channel.rho_cb(ChannelConfig(
            lambda_phi=10.0, bob=BobSpec("truncated_outer", r0=6.0, eps=0.1)))
        validate_state(res.rho_cb.matrix)

    def test_coherent_info_of_matches_state(self):
        cfg = ChannelConfig(lambda_phi=10.0)
        res = channel.rho_cb(cfg)
        assert channel.coherent_info_of(cfg) == qmath.coherent_information(res.rho_cb)

    def test_deterministic(self):
        cfg = ChannelConfig(lambda_phi=10.0, bob=BobSpec("truncated_inner", r0=12.0, eps=0.1))
        a = channel.rho_cb(cfg).rho_cb.matrix
        b = channel.rho_cb(cfg).rho_cb.matrix
        assert np.array_equal(a, b)

    def test_2d_channel_saturates(self):
        # the construction is dimension-agnostic for full coverage; the
        # 2d gamma rule drives the channel to capacity one as well
        res = channel.rho_cb(ChannelConfig(lambda_phi=1000.0, d=2))
        assert res.condition_report.gamma_ok
        assert res.coherent_info >= 0.99
        weak = channel.coherent_info_of(ChannelConfig(lambda_phi=0.1, d=2))
        assert weak < 0.0

    def test_truncated_needs_3d(self):
        with pytest.raises(BadParameter):
            channel.rho_cb(ChannelConfig(
                lambda_phi=1.0, d=2, bob=BobSpec("truncated_inner", r0=5.0, eps=0.1)))

    def test_overlap_matrix_node_doubling(self, monkeypatch):
        cfg = ChannelConfig(lambda_phi=10.0,
                            bob=BobSpec("truncated_outer", r0=9.0, eps=0.1))
        v0 = channel.overlap_matrix(cfg)
        monkeypatch.setattr(channel, "K_NODES", 32)
        v2 = channel.overlap_matrix(cfg)
        # the 32-node grid is a new one, not the memoised 16-node grid
        assert not np.array_equal(v2, v0)
        assert np.max(np.abs(v2 - v0)) / np.max(np.abs(v0)) < 1e-12

    def test_windowed_spectra_match_adaptive_route(self):
        # the closed form against the independent adaptive engine
        cfg = ChannelConfig(lambda_phi=10.0,
                            bob=BobSpec("truncated_outer", r0=9.0, eps=0.1))
        ks = np.array([0.5, 2.0, 7.7, 21.0, 55.0, 120.0, 190.0])
        fast = windowed_spectra(cfg, ks)
        for i, prof in enumerate(windowed_profiles(cfg)):
            adaptive = smearing.NumericSpectrum(prof, rel_tol=1e-11)
            ref = adaptive(ks)
            assert np.max(np.abs(fast[:, i] - ref)) / np.max(np.abs(ref)) < 1e-9

    def test_reference_qubit_untouched(self):
        # C never interacts, so tr_B rho_CB = I/2 regardless of couplings or
        # receiver geometry; this is independent of the overlap algebra
        configs = [ChannelConfig(lambda_phi=lam) for lam in (0.0, 0.7, 10.0, 1000.0)]
        configs.append(ChannelConfig(lambda_phi=5.0, lambda_pi=0.3))
        configs.append(ChannelConfig(lambda_phi=10.0, bob=BobSpec("rank1")))
        configs.append(ChannelConfig(
            lambda_phi=10.0, bob=BobSpec("truncated_inner", r0=11.0, eps=0.1)))
        for cfg in configs:
            rho_c = qmath.partial_trace(channel.rho_cb(cfg).rho_cb, "C")
            assert np.max(np.abs(rho_c - np.eye(2) / 2)) < 1e-11


@pytest.mark.parametrize("variant", ("full", "rank1", "none"))
@pytest.mark.parametrize("lphi", (0.1, 10.0, 1000.0))
def test_numeric_route_matches_closed_form(lphi, variant):
    # the k-grid route of the truncated receivers on the variants with a
    # closed form: same amplitudes, same dropped rows
    cfg = ChannelConfig(lambda_phi=lphi, bob=BobSpec(variant))
    closed = channel._v_base_closed_form(cfg)
    numeric = channel._v_base_numeric(cfg)
    assert np.max(np.abs(numeric - closed)) <= 1e-12 * np.max(np.abs(closed))


def truncated_configs(lphi, r0s=(4.0, 9.0, 16.0)):
    return [ChannelConfig(lambda_phi=lphi, bob=BobSpec(f"truncated_{side}", r0=r0, eps=0.1))
            for r0 in r0s for side in ("inner", "outer")]


@pytest.mark.parametrize("order", ((10.0, 1000.0), (1000.0, 10.0)))
def test_memoised_overlap_is_bitwise_cold(order):
    # each V from an empty memo, against V with the grid and windows shared
    # across r0, sides and couplings, as a broadcast sweep evaluates them
    cold = {}
    for lphi in order:
        for cfg in truncated_configs(lphi):
            channel._K_GRIDS.clear()
            cold[cfg] = channel.overlap_matrix(cfg)
    channel._K_GRIDS.clear()
    for lphi in order:
        for cfg in truncated_configs(lphi):
            assert np.array_equal(channel.overlap_matrix(cfg), cold[cfg])
    assert len(channel._K_GRIDS) == 1


def test_memo_stays_bounded():
    # 200 distinct windows (Delta, r0, eps), 70 of them on the first grid
    channel._K_GRIDS.clear()
    largest = 0
    for i in range(200):
        delta = 9.0 + i // 70
        cfg = ChannelConfig(lambda_phi=10.0, delta=delta, bob=BobSpec(
            "truncated_outer", r0=1.0 + 0.1 * (i % 70), eps=0.05 + 0.001 * i))
        channel.overlap_matrix(cfg)
        assert len(channel._K_GRIDS) <= channel.MAX_GRIDS
        for terms, _ in channel._K_GRIDS.values():
            assert len(terms._windows) <= channel.MAX_WINDOWS
            largest = max(largest, len(terms._windows))
    assert largest == channel.MAX_WINDOWS
    channel._K_GRIDS.clear()


def test_full_receiver_sweep_does_not_import_scipy_integrate():
    # scipy.integrate serves only the adaptive quadrature, which the
    # closed-form full receiver never calls
    code = ("import sys, fieldchannel; "
            "fieldchannel.capacity_sweep([0.1, 10.0], fieldchannel.ChannelConfig(lambda_phi=1.0)); "
            "print('scipy.integrate' in sys.modules)")
    src = str(Path(fieldchannel.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"


def windowed_spectra(cfg, k):
    """The closed-form F_B1..F_B3 of cfg's truncated receiver on k."""
    return channel.SpectralTerms(cfg.sigma, cfg.d, cfg.delta, k).receiver(cfg.bob)


def windowed_profiles(cfg):
    """The three receiver profiles times the truncation window, in r."""
    side = cfg.bob.variant.removeprefix("truncated_")
    window = smearing.SmoothStep(cfg.bob.r0, cfg.bob.eps, side)
    return [smearing.WindowedProfile(p, window) for p in bob_profiles_3d(cfg.sigma, cfg.delta)]


# nodes per panel of the explicit r grid below
KERNEL_R_NODES = 32


def direct_windowed_spectra(cfg, k):
    """The sinc kernel over every node of a composite Gauss-Legendre r grid,
    formed explicitly: the reference for the closed form."""
    sigma, delta = cfg.sigma, cfg.delta
    r_panel = min(sigma / 4.0, 1.5 * KERNEL_R_NODES / cfg.resolved_k_max)
    rg, rw = smearing.gauss_legendre_panels(max(0.0, delta - 9.0 * sigma),
                                            delta + 9.0 * sigma, r_panel, KERNEL_R_NODES)
    coefs = np.stack([rw * rg * rg * p(rg) for p in windowed_profiles(cfg)], axis=1)
    return channel.SQRT_2_OVER_PI * np.sinc(k[:, None] * rg[None, :] / np.pi) @ coefs


@functools.lru_cache(maxsize=None)
def mp_windowed_spectra(delta, r0, eps, side, ks):
    """(len(ks), 3) windowed receiver spectra (sigma = 1) at 50 digits.

    sqrt(2/pi)/k int_0^{Delta+12} r F_j(r) w(r) sin(kr) dr on a composite
    24-node Gauss-Legendre rule: unit panels over the whole range and
    panels of eps within 12 eps of r0 (k <= 21 advances at most 21 radians
    a panel). r F_j is the closed shell form of GaussianShellProfile, and
    the window is 1/2 erfc(+-(r - r0)/eps), so no value is formed as a
    difference of O(1) terms.
    """
    with mpmath.workdps(50):
        mp = mpmath.mp
        d, r0m, epsm = mp.mpf(delta), mp.mpf(r0), mp.mpf(eps)
        flip = 1 if side == "inner" else -1
        hi = delta + 12.0
        edges = {hi} | {float(i) for i in range(int(hi) + 1)}
        edges |= {x for x in (r0 + eps * j for j in range(-12, 13)) if 0.0 < x < hi}
        edges = [mp.mpf(x) for x in sorted(edges)]
        rule = mpmath.calculus.quadrature.GaussLegendre(mp).calc_nodes(4, mp.prec)
        nodes = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            for x, w in rule:
                r = mid + half * x
                vp, vm = d + r, d - r
                gp, gm = mp.exp(-vp * vp), mp.exp(-vm * vm)
                weight = half * w * mp.erfc(flip * (r - r0m) / epsm) / (8 * mp.pi ** 1.5)
                nodes.append((r, weight * (gp - gm), weight * 2 * (vp * gp - vm * gm),
                              weight * ((4 * vp * vp - 2) * gp - (4 * vm * vm - 2) * gm)))
        radii, *columns = zip(*nodes)
        out = []
        for k in ks:
            km = mp.mpf(k)
            sines = [mp.sin(km * r) for r in radii]
            out.append([float(mp.sqrt(2 / mp.pi) * mp.fdot(col, sines) / km)
                        for col in columns])
        return np.array(out)


def assert_within_own_peak(got, ref, tol=1e-13):
    """Each profile's spectrum against its own peak."""
    assert np.all(np.max(np.abs(got - ref), axis=0) <= tol * np.max(np.abs(ref), axis=0))


# Delta < 9 puts the lower edge of the r grid at 0
DIRECT_KERNEL_POINTS = [(delta, r0) for delta in (3.0, 8.5, 10.0, 25.0)
                        for r0 in (0.5, delta - 2.0, delta, delta + 2.0, delta + 8.0)]

# Where the explicit kernel is the inaccurate side, as the 50-digit
# reference shows, that reference takes its place on this k subset: every
# window that removes the shell (kernel peak <= 1e-25; the kernel is off by
# 2e-11 to 7 of it, or returns exact zeros), and Delta = r0 = 25,
# eps = 0.05, where the kernel's roundoff at k = 0.01 is 1.03e-13 of the
# F_B3 peak.
MPMATH_K = (0.01, 0.5, 7.7, 21.0)
KERNEL_ROUNDOFF = {(25.0, 25.0, 0.05)}


@pytest.mark.parametrize("side", ("inner", "outer"))
@pytest.mark.parametrize("eps", (0.05, 0.2))
@pytest.mark.parametrize("delta,r0", DIRECT_KERNEL_POINTS)
def test_windowed_spectra_match_direct_kernel(delta, r0, eps, side):
    cfg = ChannelConfig(lambda_phi=10.0, delta=delta,
                        bob=BobSpec(f"truncated_{side}", r0=r0, eps=eps))
    k = np.linspace(0.01, 200.0, 997)
    ref = direct_windowed_spectra(cfg, k)
    if (delta, r0, eps) in KERNEL_ROUNDOFF or np.max(np.abs(ref)) <= 1e-25:
        k = np.array(MPMATH_K)
        ref = mp_windowed_spectra(delta, r0, eps, side, MPMATH_K)
    assert_within_own_peak(windowed_spectra(cfg, k), ref)


@pytest.mark.parametrize("delta,r0,eps,side,ks", [
    # a window on the shell
    (10.0, 9.7, 0.1, "inner", (0.5, 2.0, 7.7, 21.0)),
    (10.0, 9.7, 0.1, "outer", (0.5, 2.0, 7.7, 21.0)),
    # windows that remove the shell: the spectra are 1e-41 to 1e-26
    (10.0, 18.0, 0.2, "outer", MPMATH_K),
    (3.0, 11.0, 0.05, "outer", MPMATH_K),
    (10.0, 0.5, 0.2, "inner", MPMATH_K),
    # the residual R decides the spectrum
    (3.0, 0.5, 0.2, "inner", (0.5, 2.0, 7.7, 21.0)),
    # F_B3 at small k: the division by k
    (25.0, 25.0, 0.05, "inner", (0.01,)),
])
def test_windowed_spectra_match_mpmath(delta, r0, eps, side, ks):
    cfg = ChannelConfig(lambda_phi=10.0, delta=delta,
                        bob=BobSpec(f"truncated_{side}", r0=r0, eps=eps))
    ref = mp_windowed_spectra(delta, r0, eps, side, ks)
    assert_within_own_peak(windowed_spectra(cfg, np.array(ks)), ref)


@given(st.floats(0.0, 30.0), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.02, 0.5), st.sampled_from(("inner", "outer")))
@settings(max_examples=40, deadline=None)
def test_truncated_state_valid_over_domain(delta, r0_share, eps, side):
    # r0 in (0, Delta + 9]
    cfg = ChannelConfig(lambda_phi=10.0, delta=delta,
                        bob=BobSpec(f"truncated_{side}", r0=r0_share * (delta + 9.0), eps=eps))
    res = channel.rho_cb(cfg)  # DensityMatrix validates the state
    # a window that removes the shell gives I_c = -1 up to entropy roundoff
    assert abs(res.coherent_info) <= 1.0 + 1e-12
    rho_c = qmath.partial_trace(res.rho_cb, "C")
    assert np.max(np.abs(rho_c - np.eye(2) / 2)) <= 1e-11


class TestSweeps:
    def test_capacity_rows(self):
        grid = np.logspace(-1, 3, 9)
        rows = channel.capacity_sweep(grid, ChannelConfig(lambda_phi=1.0))
        assert len(rows) == 9
        assert rows[0][0] == pytest.approx(0.1)
        assert rows[0][2] == 0.0  # weak coupling clamps to zero
        assert rows[-1][1] >= 0.99
        clamped = [r[2] for r in rows]
        assert np.all(np.diff(clamped) >= -1e-6)

    def test_broadcast_extremes(self):
        cfg = ChannelConfig(lambda_phi=1000.0, bob=BobSpec(eps=0.1))
        rows = channel.broadcast_sweep([2.0, 18.0], cfg)
        r0s, ic1, ic2 = zip(*rows)
        full = channel.coherent_info_of(ChannelConfig(lambda_phi=1000.0))
        assert ic2[0] == pytest.approx(full, abs=1e-3)   # small r0: outer sees all
        assert ic1[1] == pytest.approx(full, abs=1e-3)   # large r0: inner sees all
        assert ic1[0] <= 1e-6 and ic2[1] <= 1e-6

    def test_broadcast_requires_window_width(self):
        with pytest.raises(BadParameter):
            channel.broadcast_sweep([5.0], ChannelConfig(lambda_phi=10.0))
