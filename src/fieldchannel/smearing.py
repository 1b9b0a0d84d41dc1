"""Spherically symmetric smearing profiles and radial Fourier transforms.

Transform convention (symmetric, matching g~(k) = (2pi)^{-d/2} int g(x) e^{ikx}):

    d = 3:  F~(k) = sqrt(2/pi) (1/k) int_0^inf r F(r) sin(kr) dr
    d = 2:  F~(k) = int_0^inf r F(r) J0(kr) dr

and the inverse kernels are identical with r and k exchanged. A normalized
Gaussian of width sigma maps to (2pi)^{-d/2} exp(-k^2 sigma^2 / 4) in both
dimensions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .errors import BadParameter, QuadratureFailure

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# k-space cutoff policy: Gaussian-damped spectra die like exp(-k^2 s^2/4),
# so 40/sigma leaves a tail below e^-400. Windowed (truncated) profiles decay
# on the window roll-off scale instead and need the larger default cutoff.
KMAX_GAUSSIAN_FACTOR = 40.0
KMAX_WINDOWED_FACTOR = 200.0

DEFAULT_REL_TOL = 1e-10

# Composite Gauss-Legendre rule of the radial transforms: TRANSFORM_NODES
# nodes per panel, starting at one panel per TRANSFORM_PANEL_PHASE radians
# of the kernel's phase span (at least MIN_TRANSFORM_PANELS panels) and
# doubled until two rules agree, at most to MAX_TRANSFORM_PANELS panels.
TRANSFORM_NODES = 32
TRANSFORM_PANEL_PHASE = 16.0
MIN_TRANSFORM_PANELS = 8
MAX_TRANSFORM_PANELS = 4096
# kernel entries (points x nodes) per block of the transform's matrix product
KERNEL_BLOCK = 2**20


def default_k_max(sigma: float, windowed: bool = False) -> float:
    factor = KMAX_WINDOWED_FACTOR if windowed else KMAX_GAUSSIAN_FACTOR
    return factor / sigma


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        rel_tol: float = DEFAULT_REL_TOL, abs_floor: float = 0.0,
                        limit: int = 4096) -> float:
    """Adaptive integration of a real integrand on (a, b); b may be np.inf.

    Backed by QUADPACK (embedded Gauss-Kronrod pair with adaptive
    bisection). Raises QuadratureFailure when the estimated error exceeds
    max(rel_tol * |result|, abs_floor).
    """
    import scipy.integrate

    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.integrate.quad(f, a, b, epsabs=abs_floor, epsrel=rel_tol,
                                      limit=limit, full_output=1)
    value, abserr = result[0], result[1]
    if len(result) > 3:  # QUADPACK reported trouble
        if abserr > max(rel_tol * abs(value), abs_floor, 1e-300):
            raise QuadratureFailure(
                f"quadrature error {abserr:.3e} exceeds tolerance for value {value:.6e}: "
                f"{result[3]}", achieved_error=abserr)
    return value


def complex_quadrature(f: Callable[[float], complex], a: float, b: float,
                       rel_tol: float = DEFAULT_REL_TOL, abs_floor: float = 0.0) -> complex:
    re = adaptive_quadrature(lambda x: f(x).real, a, b, rel_tol, abs_floor)
    im = adaptive_quadrature(lambda x: f(x).imag, a, b, rel_tol, abs_floor)
    return re + 1j * im


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count
    and returned read-only. The nodes are symmetric about 0."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def gauss_legendre_panels(a: float, b: float, panel_len: float, nodes: int):
    """Composite Gauss-Legendre rule: fixed nodes/weights, deterministic order.

    Used for the vectorized inner loops of the channel assembly, where the
    adaptive engine would be evaluated once per output point. Accuracy is
    driven by nodes-per-panel versus the integrand's oscillation rate and is
    checked by doubling tests. The panels have equal length, and nodes are
    listed panel by panel.
    """
    x0, w0 = _legendre_rule(nodes)
    n_panels = max(1, int(np.ceil((b - a) / panel_len)))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    ws = (half[:, None] * w0[None, :]).ravel()
    return xs, ws


# ---------------------------------------------------------------------------
# radial profiles (position space)
# ---------------------------------------------------------------------------

class RadialProfile:
    """Base: a real function of radius r >= 0 in d spatial dimensions."""

    d: int
    sigma_ref: float      # characteristic length, sets the k-space cutoff
    r_support: float      # radius beyond which the profile is negligible

    def __call__(self, r):
        raise NotImplementedError

    def spectrum(self):
        """Analytic spectral descriptor if one is known, else None."""
        return None


@dataclass(frozen=True)
class GaussianProfile(RadialProfile):
    """F(r) = exp(-r^2/sigma^2) / (sqrt(pi) sigma)^d, unit d-volume integral."""

    sigma: float
    d: int = 3

    def __post_init__(self):
        if self.sigma <= 0:
            raise BadParameter(f"sigma must be positive, got {self.sigma}")
        if self.d not in (2, 3):
            raise BadParameter(f"d must be 2 or 3, got {self.d}")

    @property
    def sigma_ref(self) -> float:
        return self.sigma

    @property
    def r_support(self) -> float:
        return 9.0 * self.sigma

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / self.sigma**2) / (np.sqrt(np.pi) * self.sigma) ** self.d

    def spectrum(self):
        return GaussianSpectrum(self.sigma, self.d)


def _shell_pair_diff(r, sigma, delta, fn, fn_prime_at):
    """[fn((delta+r)/sigma) - fn((delta-r)/sigma)] / r with the r -> 0 limit.

    fn must be even or odd-symmetrized so that the bracket is O(r); the
    limit is 2 fn'(delta/sigma) / sigma.
    """
    r = np.asarray(r, dtype=float)
    vp = (delta + r) / sigma
    vm = (delta - r) / sigma
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (fn(vp) - fn(vm)) / r
    small = r < 1e-8 * sigma
    if np.any(small):
        out = np.where(small, 2.0 * fn_prime_at(delta / sigma) / sigma, out)
    return out


@dataclass(frozen=True)
class GaussianShellProfile(RadialProfile):
    """Gaussian convolved with a lightcone shell kernel in d = 3.

    order 0, 1, 2 correspond to the delta, delta', delta'' shell kernels;
    signs are chosen so the profile equals the receiver smearing built from
    a unit Gaussian emitter: spectra are (2pi)^{-3/2} e^{-k^2 s^2/4} times
    (-Delta) sinc(Delta k), cos(Delta k), k sin(Delta k) respectively.
    """

    sigma: float
    delta: float
    order: int
    d: int = 3

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.delta) and self.delta >= 0):
            raise BadParameter(f"need sigma > 0 and a finite delta >= 0, got delta={self.delta!r}")
        if self.order not in (0, 1, 2):
            raise BadParameter(f"order must be 0, 1 or 2, got {self.order}")
        if self.d != 3:
            raise BadParameter("closed-form shell profiles exist only for d = 3")

    @property
    def sigma_ref(self) -> float:
        return self.sigma

    @property
    def r_support(self) -> float:
        return self.delta + 9.0 * self.sigma

    def __call__(self, r):
        s, dl = self.sigma, self.delta
        pref = 1.0 / (4.0 * np.pi**1.5 * s)
        if self.order == 0:
            g = lambda v: np.exp(-v * v)
            gp = lambda v: -2.0 * v * np.exp(-v * v)
            return pref * _shell_pair_diff(r, s, dl, g, gp)
        if self.order == 1:
            h = lambda v: v * np.exp(-v * v)
            hp = lambda v: (1.0 - 2.0 * v * v) * np.exp(-v * v)
            return (2.0 * pref / s) * _shell_pair_diff(r, s, dl, h, hp)
        q = lambda v: (4.0 * v * v - 2.0) * np.exp(-v * v)
        qp = lambda v: (12.0 * v - 8.0 * v**3) * np.exp(-v * v)
        return (pref / s**2) * _shell_pair_diff(r, s, dl, q, qp)

    def spectrum(self):
        base = GaussianSpectrum(self.sigma, 3)
        kind = ("sinc", "cos", "ksin")[self.order]
        return PropagatedSpectrum(base, self.delta, kind)


@dataclass(frozen=True)
class SmoothStep:
    """Erf-type window of roll-off width eps around r0.

    side='inner' keeps r < r0, side='outer' keeps r > r0; the two sides sum
    to one exactly, which the truncated-receiver complementarity tests rely
    on.
    """

    r0: float
    eps: float
    side: str

    def __post_init__(self):
        if self.r0 <= 0 or self.eps <= 0:
            raise BadParameter("need r0 > 0 and eps > 0")
        if self.side not in ("inner", "outer"):
            raise BadParameter(f"side must be 'inner' or 'outer', got {self.side!r}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        u = (self.r0 - r) / self.eps if self.side == "inner" else (r - self.r0) / self.eps
        return 0.5 * (1.0 + scipy.special.erf(u))


@dataclass(frozen=True)
class WindowedProfile(RadialProfile):
    """Pointwise product of a base profile with a radial window."""

    base: RadialProfile
    window: Callable[[np.ndarray], np.ndarray]

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def sigma_ref(self) -> float:
        return self.base.sigma_ref

    @property
    def r_support(self) -> float:
        if isinstance(self.window, SmoothStep) and self.window.side == "inner":
            return min(self.base.r_support, self.window.r0 + 9.0 * self.window.eps)
        return self.base.r_support

    def __call__(self, r):
        return self.base(r) * self.window(r)


# ---------------------------------------------------------------------------
# spectral profiles (momentum space)
# ---------------------------------------------------------------------------

class SpectralProfile:
    """Base: a radial function of |k| on [0, k_max] in d dimensions."""

    d: int
    k_max: float

    def __call__(self, k):
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianSpectrum(SpectralProfile):
    """F~(k) = (2pi)^{-d/2} exp(-k^2 sigma^2 / 4)."""

    sigma: float
    d: int = 3

    @property
    def k_max(self) -> float:
        return default_k_max(self.sigma)

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        return (2.0 * np.pi) ** (-self.d / 2.0) * np.exp(-k * k * self.sigma**2 / 4.0)


_PROPAGATION_FACTORS = {
    "sinc": lambda k, dl: -dl * np.sinc(dl * k / np.pi),
    "cos": lambda k, dl: np.cos(dl * k),
    "ksin": lambda k, dl: k * np.sin(dl * k),
}


@dataclass(frozen=True)
class PropagatedSpectrum(SpectralProfile):
    """base(k) multiplied by one of -Delta sinc(Delta k), cos(Delta k), k sin(Delta k)."""

    base: SpectralProfile
    delta: float
    kind: str

    def __post_init__(self):
        if self.kind not in _PROPAGATION_FACTORS:
            raise BadParameter(f"kind must be one of {sorted(_PROPAGATION_FACTORS)}")

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def k_max(self) -> float:
        return self.base.k_max

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        return self.base(k) * _PROPAGATION_FACTORS[self.kind](k, self.delta)


def require_rel_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise BadParameter(f"rel_tol must be finite and positive, got {rel_tol!r}")


def envelope_floor(envelope: Callable, top: float) -> float:
    """Noise floor for oscillatory integrals on (0, top): roundoff
    accumulated by the extrapolated rule scales with the envelope area, not
    the (possibly heavily cancelled) result. The 256 probes follow the
    golden-ratio sequence, dense on (0, top) without a spacing for an
    oscillating integrand to alias against: evenly spaced probes all land
    on zeros of sin(Delta k) when Delta is a multiple of pi/spacing."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    probes = top * (np.arange(1, 257) * golden % 1.0)
    scale = float(np.max(np.abs(envelope(probes)))) * top
    return 5e-15 * scale + 1e-300


def _radial_transform(f: Callable, xs, top: float, d: int, rel_tol: float):
    """int_0^top y^(d-1) f(y) K_d(x y) dy at each point x of xs, with
    K_3(u) = sqrt(2/pi) sin(u)/u and K_2 = J0 (the module convention). The
    forward and inverse transforms share it: only f and top differ.

    One composite Gauss-Legendre rule serves every point: f is evaluated
    once on its nodes and the kernel applied as a matrix product, in blocks
    of at most 512 points. The rule starts at one panel per
    TRANSFORM_PANEL_PHASE of the kernel's phase span top * max|x| and
    doubles its panels until, at every point, the two rules agree within
    max(rel_tol |I|, 5e-15 int |y^(d-1) f| dy). The second term is the
    roundoff floor of a cancelled result (|K_d| <= 1), taken from the same
    nodes. Raises QuadratureFailure past MAX_TRANSFORM_PANELS panels.
    """
    if not math.isfinite(top):
        raise BadParameter(f"radial transforms need a finite upper limit, got {top!r}")
    xs = np.asarray(xs, dtype=float)
    x = np.abs(xs.ravel())
    kernel = (lambda u: np.sinc(u / np.pi)) if d == 3 else scipy.special.j0

    def integrate(panels):
        ys, ws = gauss_legendre_panels(0.0, top, top / panels, TRANSFORM_NODES)
        weighted = ws * ys ** (d - 1) * f(ys)
        rows = max(1, min(512, KERNEL_BLOCK // len(ys)))
        blocks = np.array_split(x, max(1, -(-len(x) // rows)))
        return (np.concatenate([kernel(np.outer(xb, ys)) @ weighted for xb in blocks]),
                float(np.sum(np.abs(weighted))))

    panels = max(MIN_TRANSFORM_PANELS,
                 math.ceil(top * np.max(x, initial=0.0) / TRANSFORM_PANEL_PHASE))
    coarse, _ = integrate(panels)
    error = np.inf
    while 2 * panels <= MAX_TRANSFORM_PANELS:
        panels *= 2
        fine, area = integrate(panels)
        gap = np.abs(fine - coarse)
        if np.all(gap <= np.maximum(rel_tol * np.abs(fine), 5e-15 * area)):
            vals = (SQRT_2_OVER_PI if d == 3 else 1.0) * fine
            return vals[0] if xs.ndim == 0 else vals.reshape(xs.shape)
        coarse, error = fine, float(np.max(gap))
    raise QuadratureFailure(
        f"radial transform on [0, {top:g}] not converged at {panels} panels: "
        f"node-doubling error {error:.3e}", achieved_error=error)


@dataclass(frozen=True)
class NumericSpectrum(SpectralProfile):
    """Forward radial transform of a profile, evaluated on demand by the
    node-doubling Gauss-Legendre rule of _radial_transform."""

    profile: RadialProfile
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        require_rel_tol(self.rel_tol)

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def k_max(self) -> float:
        windowed = isinstance(self.profile, WindowedProfile)
        return default_k_max(self.profile.sigma_ref, windowed=windowed)

    def __call__(self, k):
        return _radial_transform(self.profile, k, self.profile.r_support, self.d, self.rel_tol)


@dataclass(frozen=True)
class NumericProfile(RadialProfile):
    """Inverse radial transform of a spectrum, evaluated on demand by the
    node-doubling Gauss-Legendre rule of _radial_transform."""

    source: SpectralProfile
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        require_rel_tol(self.rel_tol)

    @property
    def d(self) -> int:
        return self.source.d

    @property
    def sigma_ref(self) -> float:
        return KMAX_GAUSSIAN_FACTOR / self.source.k_max

    @property
    def r_support(self) -> float:
        return np.inf

    def __call__(self, r):
        return _radial_transform(self.source, r, self.source.k_max, self.d, self.rel_tol)
