"""Gaussian field algebra for smeared detector observables.

A smeared observable O = lambda * L[F](t) with L in {phi, pi} is linear in
the mode operators, O = int d^dk (b(k) a_k + h.c.), with coherent amplitude

    b(k) = lambda F~(k) e^{-i w t} / sqrt(2 w)            (phi coupling)
    b(k) = -i w lambda F~(k) e^{-i w t} / sqrt(2 w)       (pi coupling)

for a massless dispersion w = |k|. All vacuum statistics follow from the
pairwise overlaps W_lm = <0|O_l O_m|0> = int d^dk b_l(k) b_m*(k) through
the ordered-product identity

    <0| prod_l e^{i O_l} |0> = prod_{l<m} e^{-W_lm} prod_l e^{-W_ll/2}.

Note on orientation: the amplitude pairing above reproduces the published
Gaussian closed form for W_lm exactly, including the antisymmetric
imaginary part i sqrt(2 pi) s lp lpi (x_m z_l - x_l z_m); see README for
the sign discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameter
from .smearing import DEFAULT_REL_TOL, SpectralProfile, complex_quadrature, envelope_floor

SOLID_ANGLE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}

MAX_EXPONENT_STRING = 8


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralAmplitude:
    """Complex coherent amplitude b(k) on [0, k_max] in d dimensions."""

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    k_max: float

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        return np.asarray(self.fn(k), dtype=complex)

    def __add__(self, other: "SpectralAmplitude") -> "SpectralAmplitude":
        if other.d != self.d:
            raise BadParameter("cannot add amplitudes of different dimension")
        f, g = self.fn, other.fn
        return SpectralAmplitude(lambda k: np.asarray(f(k), complex) + np.asarray(g(k), complex),
                                 self.d, max(self.k_max, other.k_max))

    def scaled(self, factor: complex) -> "SpectralAmplitude":
        f = self.fn
        return SpectralAmplitude(lambda k: factor * np.asarray(f(k), complex), self.d, self.k_max)


def momentum_amplitude(kind: str, spectrum: SpectralProfile, time: float = 0.0,
                       coupling: float = 1.0) -> SpectralAmplitude:
    """Coherent amplitude of the smeared observable coupling * kind[F](time),
    kind "phi" or "pi", with F given by its spectrum; see module docstring.

    The 1/sqrt(w) factor diverges at k = 0 but is integrable under the
    d^dk measure; integration grids never place nodes at exactly zero.
    """
    if kind not in ("phi", "pi"):
        raise BadParameter(f"kind must be 'phi' or 'pi', got {kind!r}")

    def fn(k):
        k = np.asarray(k, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            base = coupling * spectrum(k) * np.exp(-1j * k * time) / np.sqrt(2.0 * k)
            if kind == "pi":
                base = -1j * k * base
        return np.where(k > 0.0, base, 0.0)

    return SpectralAmplitude(fn, spectrum.d, spectrum.k_max)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def overlap_W(l: SpectralAmplitude, m: SpectralAmplitude,
              rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """W_lm = <0|O_l O_m|0> = int d^dk b_l(k) b_m*(k), reduced to a radial integral.

    Satisfies overlap_W(l, m) = conj(overlap_W(m, l)), and W_ll >= 0.
    """
    if l.d != m.d:
        raise BadParameter("amplitudes live in different dimensions")
    omega_d = SOLID_ANGLE[l.d]
    top = max(l.k_max, m.k_max)
    power = l.d - 1

    def integrand(k):
        return omega_d * k**power * l(k) * np.conj(m(k))

    # roundoff floor from the integrand envelope (the real or imaginary part
    # alone can be an exact zero that no relative tolerance can resolve)
    return complex_quadrature(integrand, 0.0, top, rel_tol, envelope_floor(integrand, top))


def _gaussian_moment(n: int, sigma: float) -> float:
    # int_0^inf k^n exp(-k^2 s^2 / 2) dk
    return 2.0 ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0) / sigma ** (n + 1)


def gaussian_overlap_moments(sigma: float, lambda_phi: float, lambda_pi: float,
                             d: int = 3) -> tuple[float, float, float]:
    """(A, B, gamma) for a Gaussian smearing in d = 2 or 3:

    A = <phi_A^2> = lphi^2 int |F~|^2 / (2w) d^dk
    B = <pi_A^2>  = lpi^2  int |F~|^2 (w/2) d^dk
    gamma = lphi lpi int |F~|^2 d^dk

    Any unit-sign W is then z_l z_m A + x_l x_m B + (i gamma / 2)(z_l x_m - x_l z_m).
    """
    if d not in SOLID_ANGLE:
        raise BadParameter(f"d must be 2 or 3, got {d}")
    pref = SOLID_ANGLE[d] * (2.0 * np.pi) ** (-d)
    a = lambda_phi**2 * pref * _gaussian_moment(d - 2, sigma) / 2.0
    b = lambda_pi**2 * pref * _gaussian_moment(d, sigma) / 2.0
    gamma = lambda_phi * lambda_pi * pref * _gaussian_moment(d - 1, sigma)
    return a, b, gamma


def gaussian_w_matrix(signs_x: Sequence[int], signs_z: Sequence[int],
                      sigma: float, lambda_phi: float, lambda_pi: float,
                      d: int = 3) -> np.ndarray:
    """Matrix of W_lm over operators O_l = x_l pi_A + z_l phi_A (Gaussian smearing)."""
    a, b, gamma = gaussian_overlap_moments(sigma, lambda_phi, lambda_pi, d)
    x = np.asarray(signs_x, dtype=float)
    z = np.asarray(signs_z, dtype=float)
    return (np.outer(z, z) * a + np.outer(x, x) * b
            + 0.5j * gamma * (np.outer(z, x) - np.outer(x, z)))


def commutator_constant(phi_amp: SpectralAmplitude, pi_amp: SpectralAmplitude,
                        rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """C = -(1/2) <[phi_A, pi_A]> computed from the coherent amplitudes.

    The commutator is a c-number: <[phi, pi]> = W_phi,pi - W_pi,phi, so
    C = -i Im W_phi,pi. For a Gaussian in d = 3 this equals
    -i lphi lpi / (2 (2 pi)^{3/2} sigma^3).
    """
    w_pp = overlap_W(phi_amp, pi_amp, rel_tol)
    return -1j * w_pp.imag


# ---------------------------------------------------------------------------
# Wick identity
# ---------------------------------------------------------------------------

def wick_expectation(string: Sequence[tuple[int, SpectralAmplitude]],
                     rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """<0| prod_l exp(i s_l O_l) |0> for linear observables with amplitudes b_l.

    Evaluates prod_{l<m} e^{-W_lm} prod_l e^{-W_ll/2} with W_lm formed from
    the signed amplitudes, respecting the ordered l < m convention (this is
    what carries the non-commuting phase factors). The magnitude is <= 1 for
    any physical string.
    """
    if len(string) > MAX_EXPONENT_STRING:
        raise BadParameter(f"at most {MAX_EXPONENT_STRING} exponents supported")
    if not string:
        return 1.0 + 0.0j
    dims = {amp.d for _, amp in string}
    if len(dims) != 1:
        raise BadParameter("all amplitudes must share the spatial dimension")
    kmaxes = {amp.k_max for _, amp in string}
    if len(kmaxes) != 1:
        raise BadParameter("mixed k_max amplitudes are not allowed in one string")
    exponent = 0.0 + 0.0j
    n = len(string)
    cache: dict[tuple[int, int], complex] = {}
    for l in range(n):
        s_l, a_l = string[l]
        for m in range(l, n):
            s_m, a_m = string[m]
            key = (id(a_l), id(a_m))
            if key not in cache:
                cache[key] = overlap_W(a_l, a_m, rel_tol)
            w = s_l * s_m * cache[key]
            exponent += 0.5 * w if m == l else w
    return np.exp(-exponent)


# ---------------------------------------------------------------------------
# encoding conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Encoding-gate diagnostics: fine-tuning value and strong-coupling ratio."""

    gamma: float
    gamma_residual: float          # circular distance of gamma to pi/4 (mod 2 pi)
    gamma_ok: bool
    strong_coupling_ratio: float   # gamma^2 / <pi_A^2>
    strong_ok: bool


GAMMA_TOL = 1e-12
STRONG_RATIO_THRESHOLD = 100.0


def gamma_rule_lambda_pi(lambda_phi: float, sigma: float, d: int = 3) -> float:
    """Smallest positive lambda_pi with gamma_A = pi/4 (mod 2 pi).

    For d = 3 this is lambda_pi = (pi/4) (2 pi)^{3/2} sigma^3 / lambda_phi.
    """
    if lambda_phi <= 0:
        raise BadParameter("gamma rule needs lambda_phi > 0")
    unit = gaussian_overlap_moments(sigma, lambda_phi, 1.0, d)[2]
    return (np.pi / 4.0) / unit


def check_conditions(config) -> ConditionReport:
    """Evaluate the two encoding conditions for a Gaussian emitter.

    Accepts any object with d, sigma, lambda_phi and lambda_pi attributes
    (lambda_pi already resolved).
    """
    a, b, gamma = gaussian_overlap_moments(config.sigma, config.lambda_phi,
                                           config.lambda_pi, config.d)
    two_pi = 2.0 * np.pi
    frac = (gamma - np.pi / 4.0) % two_pi
    residual = min(frac, two_pi - frac)
    ratio = np.inf if b == 0.0 else gamma**2 / b
    return ConditionReport(
        gamma=gamma,
        gamma_residual=residual,
        gamma_ok=bool(residual <= GAMMA_TOL),
        strong_coupling_ratio=ratio,
        strong_ok=bool(ratio >= STRONG_RATIO_THRESHOLD),
    )
