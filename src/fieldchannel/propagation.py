"""Propagate an emitter smearing to the three receiver smearings.

In momentum space the receiver functions are, for any spatial dimension
and a massless field (w = |k|),

    F~_B1(k) = F~_A(k) (-Delta) sinc(Delta k)
    F~_B2(k) = F~_A(k) cos(Delta k)
    F~_B3(k) = F~_A(k) k sin(Delta k)

with Delta = t_B - t_A. In d = 3 the position-space kernels are delta
shells on the lightcone (delta, delta', delta'' of r - Delta), which for a
Gaussian emitter give closed-form Gaussian shells. In d = 2 the first
kernel has support throughout the lightcone interior,

    K(r) = -1 / sqrt(Delta^2 - r^2)   for r < Delta,   0 otherwise,

(note: this is the self-consistent normalization of the interior kernel;
see README) and F_B2, F_B3 are obtained by the numeric inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import BadParameter
from .smearing import (
    DEFAULT_REL_TOL,
    GaussianShellProfile,
    GaussianSpectrum,
    NumericProfile,
    PropagatedSpectrum,
    RadialProfile,
    SpectralProfile,
    gauss_legendre_panels,
)

# composite Gauss-Legendre rule of the 2d interior kernel's theta integral
THETA_PANELS = 8
THETA_NODES = 32


def bob_spectra(fa: SpectralProfile, delta: float):
    """Spectra of the three receiver smearings, given the emitter spectrum."""
    if not (math.isfinite(delta) and delta >= 0):
        raise BadParameter(f"delta must be finite and non-negative, got {delta!r}")
    return (PropagatedSpectrum(fa, delta, "sinc"),
            PropagatedSpectrum(fa, delta, "cos"),
            PropagatedSpectrum(fa, delta, "ksin"))


def bob_profiles_3d(sigma: float, delta: float):
    """Closed-form receiver profiles in d = 3 for a Gaussian emitter.

    F_B1 = -S0, F_B2 = +dS0/dDelta, F_B3 = -d^2S0/dDelta^2 where S0 is the
    Gaussian averaged over the radius-Delta sphere,
    S0(r) = [e^{-(r-Delta)^2/s^2} - e^{-(r+Delta)^2/s^2}] / (4 pi^{3/2} s r).
    """
    return (GaussianShellProfile(sigma, delta, 0),
            GaussianShellProfile(sigma, delta, 1),
            GaussianShellProfile(sigma, delta, 2))


@dataclass(frozen=True)
class LightconeInterior2D(RadialProfile):
    """First receiver smearing in d = 2 via the interior kernel.

    F_B1(x) = -(1/2pi) int_{B_Delta(x)} F_A(x') / sqrt(Delta^2 - |x-x'|^2) d^2x'

    evaluated with the substitution rho = Delta sin(theta), which removes
    the square-root endpoint singularity exactly:

    F_B1(r) = -(Delta/pi s^2) int_0^{pi/2} sin(t) e^{-(r - Delta sin t)^2/s^2}
              I0e(2 r Delta sin t / s^2) dt.
    """

    sigma: float
    delta: float
    d: int = 2

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.delta) and self.delta >= 0):
            raise BadParameter(f"need sigma > 0 and a finite delta >= 0, got delta={self.delta!r}")

    @property
    def sigma_ref(self) -> float:
        return self.sigma

    @property
    def r_support(self) -> float:
        return self.delta + 9.0 * self.sigma

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.delta == 0.0:
            out = np.zeros_like(r)
            return out if out.size > 1 else float(out[0])
        theta, w = gauss_legendre_panels(0.0, np.pi / 2.0,
                                         (np.pi / 2.0) / THETA_PANELS, THETA_NODES)
        s2 = self.sigma**2
        rho = self.delta * np.sin(theta)
        gauss = np.exp(-((r[:, None] - rho[None, :]) ** 2) / s2)
        bessel = scipy.special.i0e(2.0 * r[:, None] * rho[None, :] / s2)
        vals = -(self.delta / (np.pi * s2)) * (gauss * bessel * np.sin(theta)) @ w
        return vals if vals.size > 1 else float(vals[0])


def bob_profile_2d_fb1(sigma: float, delta: float) -> LightconeInterior2D:
    """Closed-kernel route for F_B1 in d = 2 (Gaussian emitter)."""
    return LightconeInterior2D(sigma, delta)


def bob_profiles_2d_numeric(sigma: float, delta: float,
                            rel_tol: float = DEFAULT_REL_TOL):
    """All three receiver profiles in d = 2 via the inverse Hankel transform.

    There is no closed position-space kernel for F_B2 and F_B3 in d = 2;
    all three take the quadrature route here so F_B1 doubles as a
    cross-check against the closed-kernel route.
    """
    spectra = bob_spectra(GaussianSpectrum(sigma, 2), delta)
    return tuple(NumericProfile(s, rel_tol) for s in spectra)
