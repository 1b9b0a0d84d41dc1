"""Tests for the rho_CB assembly, sweeps and receiver variants."""

from dataclasses import replace

import numpy as np
import pytest

from fieldchannel import channel, qmath, smearing
from fieldchannel.channel import BobSpec, ChannelConfig
from fieldchannel.errors import BadParameter


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
            BobSpec("truncated_inner", r0=0.0, eps=0.1)
        with pytest.raises(BadParameter):
            BobSpec("half")


class TestExponentTemplate:
    def test_slot_layout(self):
        template = channel.build_exponent_string(ChannelConfig(lambda_phi=2.0))
        assert template.slot_base == (0, 1, 2, 3, 3, 2, 1, 0)
        assert template.sign_names == ("z1", "x1", "x2", "z2", "z3", "x3", "x4", "z4")

    def test_full_receiver_matches_emitter_amplitudes(self):
        template = channel.build_exponent_string(ChannelConfig(lambda_phi=2.0, delta=6.0))
        phi_a, pi_a, x_b, z_b = template.base_amplitudes
        ks = np.linspace(1e-3, 40.0, 200)
        peak = np.max(np.abs(phi_a(ks)))
        assert np.max(np.abs(z_b(ks) - phi_a(ks))) <= 1e-10 * peak
        peak_pi = np.max(np.abs(pi_a(ks)))
        assert np.max(np.abs(x_b(ks) - pi_a(ks))) <= 1e-10 * peak_pi

    def test_rank1_drops_x_exponent(self):
        template = channel.build_exponent_string(
            ChannelConfig(lambda_phi=2.0, bob=BobSpec("rank1")))
        ks = np.linspace(0.1, 10.0, 17)
        assert np.allclose(template.base_amplitudes[2](ks), 0.0)
        assert not np.allclose(template.base_amplitudes[3](ks), 0.0)

    def test_truncation_complementarity(self):
        # inner + outer windowed receiver amplitudes = full amplitudes
        cfg = ChannelConfig(lambda_phi=2.0, delta=6.0)
        inner = replace(cfg, bob=BobSpec("truncated_inner", r0=6.0, eps=0.1))
        outer = replace(cfg, bob=BobSpec("truncated_outer", r0=6.0, eps=0.1))
        t_full = channel.build_exponent_string(cfg)
        t_in = channel.build_exponent_string(inner)
        t_out = channel.build_exponent_string(outer)
        ks = np.linspace(0.3, 8.0, 9)
        for base in (2, 3):
            full_vals = t_full.base_amplitudes[base](ks)
            split = t_in.base_amplitudes[base](ks) + t_out.base_amplitudes[base](ks)
            peak = np.max(np.abs(full_vals))
            assert np.max(np.abs(split - full_vals)) <= 1e-8 * peak


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

    def test_rank1_couplings_break_entanglement(self):
        for lphi in (1.0, 10.0, 100.0):
            assert channel.coherent_info_of(
                ChannelConfig(lambda_phi=lphi, lambda_pi=0.0)) <= 1e-9
            assert channel.coherent_info_of(
                ChannelConfig(lambda_phi=lphi, bob=BobSpec("rank1"))) <= 1e-9

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

    def test_generalized_string_reduces_to_closed_form(self):
        # a truncation window that keeps everything must reproduce the
        # closed-form perfect-channel state entry by entry
        for lphi in (3.0, 10.0):
            wide_open = ChannelConfig(
                lambda_phi=lphi, bob=BobSpec("truncated_outer", r0=1e-3, eps=0.05))
            closed = ChannelConfig(lambda_phi=lphi)
            rho_num = channel.assemble_rho(channel.overlap_matrix(wide_open))
            rho_ref = channel.assemble_rho(channel.overlap_matrix(closed))
            assert np.max(np.abs(rho_num - rho_ref)) <= 1e-10

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

    def test_overlap_matrix_node_doubling(self):
        cfg = ChannelConfig(lambda_phi=10.0,
                            bob=BobSpec("truncated_outer", r0=9.0, eps=0.1))
        v0 = channel.overlap_matrix(cfg)
        v2 = channel.overlap_matrix(replace(cfg, r_nodes=64, k_nodes=32))
        assert np.max(np.abs(v2 - v0)) / np.max(np.abs(v0)) < 1e-12

    def test_windowed_spectra_match_adaptive_route(self):
        # the vectorized transform against the independent adaptive engine
        cfg = ChannelConfig(lambda_phi=10.0,
                            bob=BobSpec("truncated_outer", r0=9.0, eps=0.1))
        ks = np.array([0.5, 2.0, 7.7, 21.0, 55.0, 120.0, 190.0])
        fast = channel._windowed_spectra(cfg, ks)
        for i, prof in enumerate(channel._truncated_bob_profiles(cfg)):
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


def direct_windowed_spectra(cfg, k):
    """The sinc kernel over every node of the production r grid, formed
    explicitly: the reference for the factorised transform."""
    sigma, delta = cfg.sigma, cfg.delta
    r_panel = min(sigma / 4.0, 1.5 * cfg.r_nodes / cfg.resolved_k_max)
    rg, rw = smearing.gauss_legendre_panels(max(0.0, delta - 9.0 * sigma),
                                            delta + 9.0 * sigma, r_panel, cfg.r_nodes)
    profiles = channel._truncated_bob_profiles(cfg)
    coefs = np.stack([rw * rg * rg * p(rg) for p in profiles], axis=1)
    return channel.SQRT_2_OVER_PI * np.sinc(k[:, None] * rg[None, :] / np.pi) @ coefs


# Delta < 9 puts the lower edge of the r grid at 0
DIRECT_KERNEL_POINTS = [(delta, r0) for delta in (3.0, 8.5, 10.0, 25.0)
                        for r0 in (0.5, delta - 2.0, delta, delta + 2.0, delta + 8.0)]


@pytest.mark.parametrize("side", ("inner", "outer"))
@pytest.mark.parametrize("eps", (0.05, 0.2))
@pytest.mark.parametrize("delta,r0", DIRECT_KERNEL_POINTS)
def test_windowed_spectra_match_direct_kernel(delta, r0, eps, side):
    cfg = ChannelConfig(lambda_phi=10.0, delta=delta,
                        bob=BobSpec(f"truncated_{side}", r0=r0, eps=eps))
    k = np.linspace(0.01, 200.0, 997)
    ref = direct_windowed_spectra(cfg, k)
    got = channel._windowed_spectra(cfg, k)
    # each profile's spectrum against its own peak
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-13 * np.max(np.abs(ref), axis=0))


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

    def test_broadcast_never_simultaneous(self):
        cfg = ChannelConfig(lambda_phi=10.0, bob=BobSpec(eps=0.1))
        rows = channel.broadcast_sweep([6.0, 10.0, 14.0], cfg)
        for _, ic1, ic2 in rows:
            assert min(ic1, ic2) <= 1e-6

    def test_broadcast_requires_window_width(self):
        with pytest.raises(BadParameter):
            channel.broadcast_sweep([5.0], ChannelConfig(lambda_phi=10.0))
