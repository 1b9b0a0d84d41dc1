"""Tests for coherent amplitudes, vacuum overlaps and the Wick identity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldchannel import observables as obs
from fieldchannel import smearing
from fieldchannel.errors import BadParameter

signs = st.sampled_from((1, -1))
couplings = st.floats(0.05, 50.0)

GAUSS_3D = smearing.GaussianSpectrum(1.0, 3)


def closed_w(x_l, z_l, x_m, z_m, sigma, lphi, lpi):
    """W_lm of O_l = x_l pi_A + z_l phi_A and O_m, from the Gaussian closed form."""
    return obs.gaussian_w_matrix((x_l, x_m), (z_l, z_m), sigma, lphi, lpi)[0, 1]


def phi_amp(coupling=1.0, time=0.0):
    return obs.momentum_amplitude("phi", GAUSS_3D, time, coupling)


def pi_amp(coupling=1.0, time=0.0):
    return obs.momentum_amplitude("pi", GAUSS_3D, time, coupling)


class TestMomentumAmplitude:
    def test_phi_value_at_unit_k(self):
        b = phi_amp()
        expected = (2 * np.pi) ** -1.5 * np.exp(-0.25) / np.sqrt(2.0)
        assert b(1.0) == pytest.approx(expected, rel=1e-13)

    def test_pi_phase_is_minus_i(self):
        b = pi_amp()
        val = complex(b(2.0))
        assert val.real == pytest.approx(0.0, abs=1e-15)
        assert val.imag < 0

    def test_time_dependence_is_pure_phase(self):
        ks = np.linspace(0.1, 10.0, 40)
        b0, bt = phi_amp(time=0.0), phi_amp(time=2.5)
        assert np.allclose(bt(ks), b0(ks) * np.exp(-1j * ks * 2.5), rtol=1e-13)

    def test_rejects_unknown_kind(self):
        with pytest.raises(BadParameter):
            obs.momentum_amplitude("sigma", GAUSS_3D)


class TestOverlapW:
    def test_phi_phi_closed_value(self):
        w = obs.overlap_W(phi_amp(), phi_amp(), rel_tol=1e-12)
        assert w.real == pytest.approx(1.0 / (4 * np.pi**2), rel=1e-10)
        assert w.imag == pytest.approx(0.0, abs=1e-14)

    def test_phi_pi_imaginary_part(self):
        # W_phi,pi = +i gamma / 2 with phi on the left
        gamma = 1.0 / (2 * np.pi) ** 1.5
        w = obs.overlap_W(phi_amp(), pi_amp(), rel_tol=1e-12)
        assert w.imag == pytest.approx(gamma / 2, rel=1e-10)
        assert w.real == pytest.approx(0.0, abs=1e-14)
        w_swapped = obs.overlap_W(pi_amp(), phi_amp(), rel_tol=1e-12)
        assert w_swapped.imag == pytest.approx(-gamma / 2, rel=1e-10)

    def test_conjugate_symmetry(self):
        l = phi_amp(1.3, 0.7)
        m = pi_amp(0.8, 0.2)
        assert obs.overlap_W(l, m) == pytest.approx(np.conj(obs.overlap_W(m, l)), rel=1e-9)

    def test_self_overlap_nonnegative(self):
        for amp in (phi_amp(2.0), pi_amp(0.5), phi_amp(1.0, 1.5)):
            w = obs.overlap_W(amp, amp)
            assert w.real >= 0.0
            assert abs(w.imag) < 1e-14

    def test_dimension_mismatch(self):
        other = obs.momentum_amplitude("phi", smearing.GaussianSpectrum(1.0, 2))
        with pytest.raises(BadParameter):
            obs.overlap_W(phi_amp(), other)


class TestGaussianClosedForm:
    def test_phi_only_term(self):
        w = closed_w(1, 1, 1, 1, sigma=1.0, lphi=1.0, lpi=0.0)
        assert w == pytest.approx(1.0 / (4 * np.pi**2), rel=1e-14)

    def test_aligned_signs_are_real(self):
        w = closed_w(1, 1, 1, 1, 1.0, 2.0, 3.0)
        assert w.imag == 0.0

    def test_against_quadrature(self):
        sigma, lphi, lpi = 1.0, 2.0, 0.7
        for x_l, z_l, x_m, z_m in itertools.product((1, -1), repeat=4):
            closed = closed_w(x_l, z_l, x_m, z_m, sigma, lphi, lpi)
            l = phi_amp(lphi).scaled(z_l) + pi_amp(lpi).scaled(x_l)
            m = phi_amp(lphi).scaled(z_m) + pi_amp(lpi).scaled(x_m)
            quad = obs.overlap_W(l, m, rel_tol=1e-12)
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_moments_match_printed_coefficients(self):
        # d = 3 moments must reproduce the closed-form coefficient pattern
        a, b, gamma = obs.gaussian_overlap_moments(1.7, 2.0, 0.9, d=3)
        s = 1.7
        assert a == pytest.approx(2 * s**2 * 4.0 / (8 * np.pi**2 * s**4), rel=1e-13)
        assert b == pytest.approx(4 * 0.81 / (8 * np.pi**2 * s**4), rel=1e-13)
        assert gamma == pytest.approx(2.0 * 0.9 / ((2 * np.pi) ** 1.5 * s**3), rel=1e-13)

    @given(signs, signs, signs, signs, st.floats(0.2, 5.0), couplings, couplings)
    @settings(max_examples=300, deadline=None)
    def test_hermitian_pairing(self, x_l, z_l, x_m, z_m, sigma, lphi, lpi):
        w_lm = closed_w(x_l, z_l, x_m, z_m, sigma, lphi, lpi)
        w_ml = closed_w(x_m, z_m, x_l, z_l, sigma, lphi, lpi)
        assert w_lm == pytest.approx(np.conj(w_ml), rel=1e-14)

    @given(signs, signs, st.floats(0.2, 5.0), couplings, couplings)
    @settings(max_examples=300, deadline=None)
    def test_diagonal_nonnegative(self, x, z, sigma, lphi, lpi):
        w = closed_w(x, z, x, z, sigma, lphi, lpi)
        assert w.imag == 0.0
        assert w.real >= 0.0

    @given(st.lists(st.tuples(signs, signs), min_size=1, max_size=4),
           st.floats(0.5, 2.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_wick_magnitude_bound_closed_form(self, pattern, sigma, lphi, lpi):
        # |<0| prod e^{i O_l} |0>| <= 1 for any sign pattern, evaluated
        # through the closed-form overlap matrix
        xs = [x for x, _ in pattern]
        zs = [z for _, z in pattern]
        w = obs.gaussian_w_matrix(xs, zs, sigma, lphi, lpi)
        val = np.exp(-(np.triu(w, 1).sum() + 0.5 * np.trace(w)))
        assert abs(val) <= 1.0 + 1e-10


class TestCommutatorConstant:
    def test_gaussian_value(self):
        c = obs.commutator_constant(phi_amp(), pi_amp())
        expected = -1j / (2 * (2 * np.pi) ** 1.5)
        assert c == pytest.approx(expected, rel=1e-10)
        assert c.real == 0.0

    def test_vanishes_without_pi_coupling(self):
        assert obs.commutator_constant(phi_amp(), pi_amp(0.0)) == 0.0

    def test_bilinear_in_couplings(self):
        c1 = obs.commutator_constant(phi_amp(1.0), pi_amp(1.0))
        c2 = obs.commutator_constant(phi_amp(2.0), pi_amp(1.0))
        assert c2 == pytest.approx(2 * c1, rel=1e-10)


class TestWickExpectation:
    def test_empty_string(self):
        assert obs.wick_expectation([]) == 1.0

    def test_single_exponent(self):
        a = 1.0 / (4 * np.pi**2)  # <phi_A^2> for sigma = lambda_phi = 1
        val = obs.wick_expectation([(1, phi_amp())])
        assert val == pytest.approx(np.exp(-a / 2), rel=1e-10)

    def test_coherent_state_overlap(self):
        # <+alpha|-alpha> = <0|e^{-i phi} e^{-i phi}|0> = e^{-2 <phi^2>}
        # (twice the single-exponent exponent; see README on the factor 2)
        a = 1.0 / (4 * np.pi**2)
        val = obs.wick_expectation([(-1, phi_amp()), (-1, phi_amp())])
        assert val == pytest.approx(np.exp(-2 * a), rel=1e-10)

    def test_unitarity_cancellation(self):
        val = obs.wick_expectation([(1, phi_amp()), (-1, phi_amp())])
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_magnitude_bounded(self):
        strings = [
            [(1, phi_amp()), (1, pi_amp())],
            [(1, phi_amp()), (-1, pi_amp()), (1, phi_amp(0.5, 1.0))],
            [(s, amp) for s, amp in zip((1, -1, 1, -1), (phi_amp(), pi_amp(),
                                                         phi_amp(2.0), pi_amp(0.3)))],
        ]
        for string in strings:
            assert abs(obs.wick_expectation(string)) <= 1.0 + 1e-10

    def test_bch_merge_consistency(self):
        # e^{i z phi} e^{i x pi} = e^{x z C} e^{i(z phi + x pi)}
        for z, x in itertools.product((1, -1), repeat=2):
            two = obs.wick_expectation([(z, phi_amp()), (x, pi_amp())], rel_tol=1e-12)
            merged_amp = phi_amp().scaled(z) + pi_amp().scaled(x)
            c = obs.commutator_constant(phi_amp(), pi_amp())
            one = np.exp(x * z * c) * obs.wick_expectation([(1, merged_amp)], rel_tol=1e-12)
            assert two == pytest.approx(one, rel=1e-10)

    def test_rejects_mixed_kmax(self):
        shell = smearing.GaussianShellProfile(1.0, 3.0, 0)
        windowed = smearing.WindowedProfile(shell, smearing.SmoothStep(2.0, 0.1, "inner"))
        other = obs.momentum_amplitude("phi", smearing.NumericSpectrum(windowed))
        with pytest.raises(BadParameter):
            obs.wick_expectation([(1, phi_amp()), (1, other)])

    def test_rejects_long_strings(self):
        string = [(1, phi_amp())] * 9
        with pytest.raises(BadParameter):
            obs.wick_expectation(string)


class TestCheckConditions:
    class Cfg:
        def __init__(self, sigma, lambda_phi, lambda_pi, d=3):
            self.sigma, self.d = sigma, d
            self.lambda_phi, self.lambda_pi = lambda_phi, lambda_pi

    def test_gamma_closed_form(self):
        report = obs.check_conditions(self.Cfg(1.0, 3.0, 2.0))
        assert report.gamma == pytest.approx(6.0 / (2 * np.pi) ** 1.5, rel=1e-13)

    def test_gamma_rule_satisfies_condition(self):
        lpi = obs.gamma_rule_lambda_pi(100.0, 1.0)
        report = obs.check_conditions(self.Cfg(1.0, 100.0, lpi))
        assert report.gamma_ok
        assert report.gamma_residual <= 1e-12
        assert report.strong_ok

    def test_weak_coupling_flag(self):
        lpi = obs.gamma_rule_lambda_pi(1.0, 1.0)
        report = obs.check_conditions(self.Cfg(1.0, 1.0, lpi))
        assert not report.strong_ok
        # gamma^2 / <pi^2> = lambda_phi^2 / (4 pi sigma^2) for the 3d Gaussian
        assert report.strong_coupling_ratio == pytest.approx(1.0 / (4 * np.pi), rel=1e-12)
