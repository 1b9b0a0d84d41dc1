"""Tests for radial profiles, transforms and the quadrature engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from fieldchannel import smearing
from fieldchannel.errors import BadParameter, QuadratureFailure


class TestGaussianProfile:
    def test_peak_value_3d(self):
        f = smearing.GaussianProfile(1.0, 3)
        assert f(0.0) == pytest.approx(np.pi ** -1.5, rel=1e-14)

    def test_peak_value_2d(self):
        f = smearing.GaussianProfile(2.0, 2)
        assert f(0.0) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-14)

    def test_unit_volume_integral(self):
        f = smearing.GaussianProfile(1.0, 3)
        total = smearing.adaptive_quadrature(lambda r: 4 * np.pi * r * r * f(r),
                                             0.0, f.r_support, rel_tol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_sigma(self):
        with pytest.raises(BadParameter):
            smearing.GaussianProfile(0.0, 3)
        with pytest.raises(BadParameter):
            smearing.GaussianProfile(-1.0, 2)


class TestFourierRadial:
    def test_gaussian_analytic_spectrum_3d(self):
        spec = smearing.GaussianProfile(1.0, 3).spectrum()
        ks = np.linspace(0.0, 10.0, 50)
        expected = (2 * np.pi) ** -1.5 * np.exp(-ks * ks / 4)
        assert np.allclose(spec(ks), expected, rtol=1e-14)

    def test_zero_frequency_is_total_integral(self):
        # a normalized profile has F~(0) = (2 pi)^{-d/2}
        for d in (2, 3):
            spec = smearing.NumericSpectrum(smearing.GaussianProfile(1.3, d))
            assert spec(0.0) == pytest.approx((2 * np.pi) ** (-d / 2), rel=1e-10)

    def test_numeric_matches_analytic_100_points(self):
        for d in (2, 3):
            prof = smearing.GaussianProfile(1.0, d)
            numeric = smearing.NumericSpectrum(prof, rel_tol=1e-12)
            analytic = prof.spectrum()
            ks = np.linspace(0.0, 12.0, 100)
            got, want = numeric(ks), analytic(ks)
            assert np.max(np.abs(got - want) / np.abs(want[0])) < 1e-9


class TestInverseFourierRadial:
    def test_numeric_roundtrip_gaussian(self):
        for d in (2, 3):
            prof = smearing.GaussianProfile(1.0, d)
            spec = smearing.NumericSpectrum(prof, rel_tol=1e-10)
            back = smearing.NumericProfile(spec, rel_tol=1e-10)
            rs = np.linspace(0.0, 5.0, 9)
            assert np.max(np.abs(back(rs) - prof(rs))) / prof(0.0) < 1e-8

    def test_numeric_roundtrip_shell(self):
        # split into single-depth halves (a doubly nested adaptive transform
        # of the oscillatory shell would be needlessly slow): numeric forward
        # against the exact spectrum, then numeric inverse of the exact
        # spectrum against the closed-form profile
        for order in (0, 1, 2):
            prof = smearing.GaussianShellProfile(1.0, 4.0, order)
            exact_spec = prof.spectrum()
            num_spec = smearing.NumericSpectrum(prof, rel_tol=1e-11)
            ks = np.linspace(0.0, 12.0, 13)
            spec_peak = np.max(np.abs(exact_spec(np.linspace(0, 12, 200))))
            assert np.max(np.abs(num_spec(ks) - exact_spec(ks))) / spec_peak < 1e-8
            back = smearing.NumericProfile(exact_spec, rel_tol=1e-11)
            rs = np.linspace(0.0, 8.0, 17)
            peak = np.max(np.abs(prof(rs)))
            assert np.max(np.abs(back(rs) - prof(rs))) / peak < 1e-8

    def test_zero_spectrum_gives_zero_profile(self):
        # at Delta = 0 the sinc propagation factor -Delta sinc(Delta k) vanishes
        spec = smearing.PropagatedSpectrum(smearing.GaussianSpectrum(1.0, 3), 0.0, "sinc")
        prof = smearing.NumericProfile(spec)
        assert prof(np.array([0.0, 1.0, 2.5])) == pytest.approx([0.0, 0.0, 0.0], abs=1e-13)

    def test_doubling_cap_reported(self):
        # the chirp cos(1e4 k^2) under the Gaussian needs about 3e4 panels
        # on [0, 40]; the doubling stops at the cap of 4096
        class Chirp(smearing.SpectralProfile):
            d, k_max = 3, 40.0

            def __call__(self, k):
                return np.exp(-k * k / 4.0) * np.cos(1e4 * k * k)

        with pytest.raises(QuadratureFailure):
            smearing.NumericProfile(Chirp())(0.0)

    def test_unbounded_range_rejected(self):
        # a numeric profile has no finite support to transform back over
        back = smearing.NumericProfile(smearing.GaussianSpectrum(1.0, 3))
        with pytest.raises(BadParameter):
            smearing.NumericSpectrum(back)(1.0)


class TestAdaptiveQuadrature:
    def test_gaussian_tail(self):
        got = smearing.adaptive_quadrature(lambda k: np.exp(-k * k), 0.0, np.inf,
                                           rel_tol=1e-12)
        assert got == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-12)

    def test_oscillatory_gaussian(self):
        # int_0^40 k exp(-k^2/2) cos(10 k) dk; the tail beyond 40 is ~e^-800.
        # closed form: 1 - 10 sqrt(2) D(10/sqrt(2)) with D the Dawson function
        exact = 1.0 - 10.0 * np.sqrt(2.0) * dawsn(10.0 / np.sqrt(2.0))
        got = smearing.adaptive_quadrature(
            lambda k: k * np.exp(-k * k / 2) * np.cos(10 * k), 0.0, 40.0,
            rel_tol=1e-12, abs_floor=1e-16)
        assert got == pytest.approx(exact, rel=1e-9)
        # fixed-grid Simpson oracle at h = 1e-4
        ks = np.linspace(0.0, 40.0, 400_001)
        vals = ks * np.exp(-ks * ks / 2) * np.cos(10 * ks)
        simpson = (vals[0] + vals[-1] + 4 * vals[1::2].sum() + 2 * vals[2:-1:2].sum()) \
            * (ks[1] - ks[0]) / 3.0
        assert got == pytest.approx(simpson, rel=1e-9)

    def test_endpoint_singularity(self):
        got = smearing.adaptive_quadrature(lambda r: 1.0 / np.sqrt(1.0 - r * r),
                                           0.0, 1.0, rel_tol=1e-10)
        assert got == pytest.approx(np.pi / 2, rel=1e-10)

    def test_failure_reported(self):
        with pytest.raises(QuadratureFailure):
            smearing.adaptive_quadrature(lambda x: np.sin(1e7 * x) + 1e-3 / (1e-6 + x),
                                         0.0, 1.0, rel_tol=1e-12, limit=3)


class TestGaussLegendrePanels:
    def test_cached_base_rule_gives_the_same_grid(self):
        # the composite rule assembled from a fresh leggauss, bit for bit
        x0, w0 = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(1.0, 7.0, 25)
        half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
        for _ in range(2):
            xs, ws = smearing.gauss_legendre_panels(1.0, 7.0, 0.25, 16)
            assert np.array_equal(xs, (mid[:, None] + half[:, None] * x0).ravel())
            assert np.array_equal(ws, (half[:, None] * w0).ravel())

    def test_base_rule_is_read_only(self):
        x0, w0 = smearing._legendre_rule(8)
        with pytest.raises(ValueError):
            x0[0] = 0.0
        with pytest.raises(ValueError):
            w0[0] = 0.0


@pytest.mark.parametrize("rel_tol", [0.0, -1e-10])
def test_numeric_transforms_reject_non_positive_rel_tol(rel_tol):
    with pytest.raises(BadParameter):
        smearing.NumericSpectrum(smearing.GaussianProfile(1.0, 3), rel_tol)
    with pytest.raises(BadParameter):
        smearing.NumericProfile(smearing.GaussianSpectrum(1.0, 3), rel_tol)


class TestWindows:
    @given(st.floats(0.1, 20.0), st.floats(0.01, 1.0), st.floats(0.0, 25.0))
    @settings(max_examples=300, deadline=None)
    def test_inner_outer_sum_to_one(self, r0, eps, r):
        inner = smearing.SmoothStep(r0, eps, "inner")
        outer = smearing.SmoothStep(r0, eps, "outer")
        assert inner(r) + outer(r) == pytest.approx(1.0, abs=1e-15)

    def test_windowed_profile_product(self):
        base = smearing.GaussianShellProfile(1.0, 10.0, 0)
        win = smearing.SmoothStep(8.0, 0.1, "outer")
        prof = smearing.WindowedProfile(base, win)
        rs = np.array([5.0, 8.0, 11.0])
        assert np.allclose(prof(rs), base(rs) * win(rs), rtol=1e-14)

    def test_bad_window_parameters(self):
        with pytest.raises(BadParameter):
            smearing.SmoothStep(0.0, 0.1, "inner")
        with pytest.raises(BadParameter):
            smearing.SmoothStep(1.0, 0.1, "sideways")
