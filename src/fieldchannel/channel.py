"""Assembly of the two-qubit state rho_CB and coherent-information sweeps.

The channel is: a reference qubit C is maximally entangled with the
emitter qubit A; A writes itself into the field vacuum at t_A = 0 with
U_A = exp(i sx piA) exp(i sz phiA); the receiver B (initially |+y>)
applies the inverse gate at t_B = Delta using field observables

    Z_B = lphi ( phi[F_B2](t_B) + pi[F_B1](t_B) )
    X_B = lpi  ( phi[F_B3](t_B) + pi[F_B2](t_B) )

which reduce exactly to phiA and piA when B couples with the full
receiver smearings. Expanding both gates into controlled unitaries and
using the ordered Wick identity turns rho_CB into a sum over 2^10 sign
assignments:

    rho_CB = (1/2) sum_{j,k,x_i,z_i}
             <0| e^{i z1 phiA} e^{i x1 piA} e^{i x2 X_B} e^{i z2 Z_B}
                 e^{i z3 Z_B} e^{i x3 X_B} e^{i x4 piA} e^{i z4 phiA} |0>
             x <k_z| P_{-z1} P_{-x1} P_{x4} P_{z4} |j_z>  |{-j}_z><{-k}_z|
             (x) P_{-z3} P_{-x3} |+y><+y| P_{x2} P_{z2}.

The vacuum factor is the 8-exponent Wick product; its ordered l < m
convention carries all the non-commuting (BCH) phases, so no separate
commutator bookkeeping is needed. The 8 slots reference only 4 distinct
base observables, so one 4x4 overlap matrix per configuration feeds all
1024 terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.special

from . import qmath
from .errors import BadParameter
from .observables import (
    ConditionReport,
    check_conditions,
    gamma_rule_lambda_pi,
    gaussian_w_matrix,
)
from .propagation import bob_profiles_3d, bob_spectra
from .qmath import DensityMatrix, coherent_information
from .smearing import (
    SQRT_2_OVER_PI,
    GaussianSpectrum,
    default_k_max,
    gauss_legendre_panels,
)

BOB_VARIANTS = ("full", "truncated_inner", "truncated_outer", "rank1", "none")

# nodes per panel of the deterministic composite Gauss-Legendre rules on
# the truncated path (the k grid and the short residual rule in r)
K_NODES = 16

# Coupling-free work of the truncated path, kept between evaluations: the
# last MAX_GRIDS k grids with their terms, and per grid the last
# MAX_WINDOWS truncation windows (r0, eps) evaluated on it.
MAX_GRIDS = 2
MAX_WINDOWS = 64
_K_GRIDS: OrderedDict = OrderedDict()

# slot -> base observable, in the fixed string order
# [z1 phiA, x1 piA, x2 X_B, z2 Z_B, z3 Z_B, x3 X_B, x4 piA, z4 phiA]
BASE_PHI_A, BASE_PI_A, BASE_X_B, BASE_Z_B = 0, 1, 2, 3
SLOT_BASE = (BASE_PHI_A, BASE_PI_A, BASE_X_B, BASE_Z_B,
             BASE_Z_B, BASE_X_B, BASE_PI_A, BASE_PHI_A)

# receiver rows (and columns) of V that the rank1 and none variants zero
DROPPED_BASES = {"rank1": (BASE_X_B,), "none": (BASE_X_B, BASE_Z_B)}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _require_finite(spec) -> None:
    """Reject nan and +-inf in any float field; None stays allowed."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise BadParameter(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BobSpec:
    """Receiver geometry: full lightcone coverage, a truncated ball/shell
    complement pair, a single-exponent (rank-1) decoder, or no coupling."""

    variant: str = "full"
    r0: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.variant not in BOB_VARIANTS:
            raise BadParameter(f"variant must be one of {BOB_VARIANTS}, got {self.variant!r}")
        if self.variant.startswith("truncated") and (self.r0 <= 0 or self.eps <= 0):
            raise BadParameter("truncated receivers need r0 > 0 and eps > 0")


@dataclass(frozen=True)
class ChannelConfig:
    """Single source of truth for one channel evaluation.

    lambda_pi = None applies the fine-tuning rule gamma_A = pi/4 (smallest
    positive branch). All lengths are in units of sigma; the problem is
    scale-free.
    """

    lambda_phi: float
    lambda_pi: float | None = None
    sigma: float = 1.0
    d: int = 3
    delta: float = 10.0
    bob: BobSpec = field(default_factory=BobSpec)
    k_max: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.sigma <= 0:
            raise BadParameter("sigma must be positive")
        if self.delta < 0:
            raise BadParameter("delta must be non-negative")
        if self.lambda_phi < 0:
            raise BadParameter("lambda_phi must be non-negative")
        if self.d not in (2, 3):
            raise BadParameter("d must be 2 or 3")
        if self.k_max is not None and self.k_max <= 0:
            raise BadParameter("k_max must be positive")
        if self.bob.variant.startswith("truncated") and self.d != 3:
            raise BadParameter("truncated receivers are implemented for d = 3 only")

    @property
    def resolved_lambda_pi(self) -> float:
        if self.lambda_pi is not None:
            return self.lambda_pi
        if self.lambda_phi == 0.0:
            return 0.0
        return gamma_rule_lambda_pi(self.lambda_phi, self.sigma, self.d)

    @property
    def resolved_k_max(self) -> float:
        if self.k_max is not None:
            return self.k_max
        windowed = self.bob.variant.startswith("truncated")
        return default_k_max(self.sigma, windowed=windowed)


@dataclass(frozen=True)
class ChannelResult:
    rho_cb: DensityMatrix
    coherent_info: float
    condition_report: ConditionReport


# ---------------------------------------------------------------------------
# qubit-side factors, precomputed once for all 256 sign assignments
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sign_table_and_tensors():
    """(256, 8) sign matrix and the matching (256, 4, 4) qubit tensors,
    built once and returned read-only.

    For signs (z1, x1, x2, z2, z3, x3, x4, z4) the tensor is
    sum_{j,k} <k_z|P_{-z1} P_{-x1} P_{x4} P_{z4}|j_z>  |{-j}><{-k}| (x) B
    with B = P_{-z3} P_{-x3} |+y><+y| P_{x2} P_{z2}.
    """
    pz = {s: qmath.proj_z(s) for s in (1, -1)}
    px = {s: qmath.proj_x(s) for s in (1, -1)}
    py_plus = qmath.proj_y(1)
    kets = {s: qmath.ket_z(s) for s in (1, -1)}
    idx = {1: 0, -1: 1}
    combos = list(itertools.product((1, -1), repeat=8))
    signs = np.array(combos, dtype=float)
    tensors = np.empty((len(combos), 4, 4), dtype=complex)
    for t, (z1, x1, x2, z2, z3, x3, x4, z4) in enumerate(combos):
        alice = pz[-z1] @ px[-x1] @ px[x4] @ pz[z4]
        bob = pz[-z3] @ px[-x3] @ py_plus @ px[x2] @ pz[z2]
        cmat = np.zeros((2, 2), dtype=complex)
        for j in (1, -1):
            for k in (1, -1):
                element = kets[k].conj() @ alice @ kets[j]
                cmat[idx[-j], idx[-k]] += element
        tensors[t] = np.kron(cmat, bob)
    signs.flags.writeable = False
    tensors.flags.writeable = False
    return signs, tensors


# ---------------------------------------------------------------------------
# overlap matrices
# ---------------------------------------------------------------------------

def _v_base_closed_form(config: ChannelConfig) -> np.ndarray:
    """4x4 base-observable overlap matrix when the receiver observables are
    exactly phi_A and pi_A (full lightcone coverage), from the Gaussian
    closed forms. rank1/none variants zero the dropped receiver rows."""
    # base observables [phi_A, pi_A, X_B, Z_B] are pi-like (x) or phi-like (z)
    v = gaussian_w_matrix((0, 1, 1, 0), (1, 0, 0, 1), config.sigma,
                          config.lambda_phi, config.resolved_lambda_pi, config.d)
    for base in DROPPED_BASES.get(config.bob.variant, ()):
        v[base, :] = 0.0
        v[:, base] = 0.0
    return v


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _lru_get(table: OrderedDict, key, bound: int, make):
    """table[key], made by make() on a miss; the least recently used entry
    is dropped once the table holds more than bound."""
    value = table.get(key)
    if value is None:
        value = table[key] = make()
        if len(table) > bound:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    return value


class _ShellWindow:
    """The side-free terms of the spectra of F_B1..F_B3 of bob_profiles_3d
    times the erf window of (r0, eps), on one k array (d = 3).

    r F_B1 = p [g(r + Delta) - g(r - Delta)] with g(u) = e^{-u^2/s^2}, and
    F_B2, F_B3 are its first two Delta-derivatives (up to sign). Over the
    whole line, int g(r - mu) erf((r0 - r)/eps) e^{ikr} dr = s sqrt(pi)
    E erf(z) (Owen's Gaussian-normal-CDF integral, complex shift), E =
    e^{ik mu - k^2 s^2/4}, z = (r0 - mu - ik s^2/2)/sqrt(eps^2 + s^2); with
    t = sign(Re z), E erf(z) = t E - t E e^{-z^2} w(t i z), w the Faddeeva
    function. The t E parts sum to the full-receiver spectrum or to zero,
    so no O(1) terms cancel. The half-line transform adds R(k) =
    int_0^inf r F sin(kr) erfc((r0 + r)/eps) dr (see README).

    `inner` holds the e^{-z^2} w parts of the inner window; the outer
    window takes them with the opposite sign, which is exact. R is
    evaluated when a side first needs it.
    """

    def __init__(self, sigma, delta, r0, eps, k):
        self.k = k
        c2 = sigma * sigma + eps * eps
        b = 0.5 * sigma * sigma * k

        def centre(mu, signs):
            a = r0 - mu
            t = 1.0 if a >= 0.0 else -1.0
            # E e^{-z^2} with the exponents combined
            ed = np.exp(-(k * sigma * eps) ** 2 / (4.0 * c2) - a * a / c2
                        + 1j * (mu + a * sigma * sigma / c2) * k)
            dw = t * ed * scipy.special.wofz((t * b + 1j * abs(a)) / math.sqrt(c2))
            ed *= 2.0 / math.sqrt(np.pi * c2)
            return np.stack([signs[0] * dw, signs[1] * (1j * k * dw + ed),
                             signs[2] * (k * k * dw - ed * (2j * k + 2.0 * (a - 1j * b) / c2))])

        # p s sqrt(pi) = 1/(4 pi), and a window is 1/2 (1 +- erf)
        scale = SQRT_2_OVER_PI / (8.0 * np.pi)
        shell = centre(delta, (-1.0, 1.0, 1.0))
        # The mirror centre mu = -Delta has a = r0 + Delta > 0 and |w| <= 1
        # there, so e^{-a^2/c2} times these polynomials in k bounds its
        # terms; it is skipped below 1e-16 of the shell centre's peak.
        q = 2.0 / math.sqrt(np.pi * c2)
        a = r0 + delta
        envelope = scale * math.exp(-a * a / c2) * np.stack(
            [np.ones_like(k), k + q, k * k + q * (2.0 * k + 2.0 * (a + b) / c2)]) / k
        corr = np.zeros((3, len(k)), dtype=complex)
        if not np.all(np.max(envelope, axis=1)
                      <= 1e-16 * np.max(np.abs(scale * shell.imag / k), axis=1)):
            corr -= centre(-delta, (1.0, 1.0, -1.0))
        corr -= shell
        self.inner = _read_only(scale * corr.imag.T / k[:, None])
        # R lies under a Gaussian of width s eps/sqrt(s^2 + eps^2) centred
        # at r* = (Delta eps^2 - r0 s^2)/(s^2 + eps^2)
        width = sigma * eps / math.hypot(sigma, eps)
        r_hi = max(delta * eps**2 - r0 * sigma**2, 0.0) / (sigma**2 + eps**2) + 9.0 * width
        panel = min(width, 1.5 * K_NODES / np.max(k))
        rg, rw = gauss_legendre_panels(0.0, r_hi, panel, K_NODES)
        self._rg = rg
        self._coefs = np.stack([rw * rg * scipy.special.erfc((r0 + rg) / eps) * p(rg)
                                for p in bob_profiles_3d(sigma, delta)], axis=1)
        # |sin(kr)/k| <= r
        self.residual_bound = SQRT_2_OVER_PI * (rg @ np.abs(self._coefs))

    @functools.cached_property
    def residual(self) -> np.ndarray:
        """sqrt(2/pi) R(k)/k, shape (len(k), 3)."""
        k = self.k
        # 512 k at a time bound the memory of the sine table
        blocks = np.array_split(k, -(-len(k) // 512))
        return _read_only(SQRT_2_OVER_PI * np.concatenate(
            [np.sin(np.outer(kb, self._rg)) @ self._coefs for kb in blocks]) / k[:, None])


class SpectralTerms:
    """The coupling-free factors of the base amplitudes on one k array: the
    emitter spectrum with 1/sqrt(2k) and e^{-ik Delta}, the full receiver's
    F_B1..F_B3, and the side-free terms of each truncation window (r0, eps)
    asked for, at most MAX_WINDOWS of them (least recently used dropped
    first). Each is computed on first use and kept read-only; the couplings
    enter only in `amplitudes`.
    """

    def __init__(self, sigma: float, d: int, delta: float, k):
        self.sigma, self.d, self.delta = sigma, d, delta
        self.k = _read_only(np.atleast_1d(np.asarray(k, dtype=float)))
        self._windows: OrderedDict = OrderedDict()

    @functools.cached_property
    def emitter(self) -> tuple:
        """(F_A(k), 1/sqrt(2k), e^{-ik Delta})."""
        k = self.k
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (GaussianSpectrum(self.sigma, self.d)(k), 1.0 / np.sqrt(2.0 * k),
                     np.exp(-1j * k * self.delta))
        return tuple(_read_only(t) for t in terms)

    @functools.cached_property
    def full(self) -> np.ndarray:
        """F_B1..F_B3 of the full receiver, shape (len(k), 3)."""
        k = self.k
        with np.errstate(divide="ignore", invalid="ignore"):
            return _read_only(np.stack(
                [s(k) for s in bob_spectra(GaussianSpectrum(self.sigma, self.d), self.delta)],
                axis=1))

    def receiver(self, bob: BobSpec) -> np.ndarray:
        """F_B1..F_B3 of the receiver bob, shape (len(k), 3); rank1 and none
        share the full receiver's (their rows are dropped in amplitudes)."""
        if not bob.variant.startswith("truncated"):
            return self.full
        with np.errstate(divide="ignore", invalid="ignore"):
            window = _lru_get(self._windows, (bob.r0, bob.eps), MAX_WINDOWS, lambda: _ShellWindow(
                self.sigma, self.delta, bob.r0, bob.eps, self.k))
            sign = 1.0 if bob.variant == "truncated_inner" else -1.0
            spectra = sign * window.inner
            if (sign > 0) == (bob.r0 >= self.delta):
                spectra += self.full
            # R where its bound exceeds 1e-16 of this side's peak over k
            peaks = np.max(np.abs(spectra), axis=0)
            residual = 0.0 if np.all(window.residual_bound <= 1e-16 * peaks) \
                else window.residual
            return spectra + 0.5 * sign * residual

    def amplitudes(self, config: ChannelConfig) -> np.ndarray:
        """base_amplitudes(config, k) from these factors; config must share
        sigma, d and Delta with them."""
        k = self.k
        lphi, lpi = config.lambda_phi, config.resolved_lambda_pi
        f1, f2, f3 = self.receiver(config.bob).T
        fa, inv_sqrt, phase = self.emitter
        beta = np.empty((4, len(k)), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta[BASE_PHI_A] = lphi * fa * inv_sqrt
            beta[BASE_PI_A] = -1j * k * lpi * fa * inv_sqrt
            beta[BASE_X_B] = lpi * (f3 - 1j * k * f2) * phase * inv_sqrt
            beta[BASE_Z_B] = lphi * (f2 - 1j * k * f1) * phase * inv_sqrt
        beta[list(DROPPED_BASES.get(config.bob.variant, ())), :] = 0.0
        beta[:, k == 0.0] = 0.0
        return beta


def base_amplitudes(config: ChannelConfig, k) -> np.ndarray:
    """Coherent amplitudes b(k) of the four base observables, shape
    (4, len(k)) in the order phi_A, pi_A, X_B, Z_B; SLOT_BASE maps each of
    the 8 slots to one of them. They are 0 at k = 0.

    X_B and Z_B take F_B1..F_B3 from bob_spectra, or from the closed-form
    windowed spectra for truncated receivers; for the full receiver they
    equal pi_A and phi_A pointwise (the propagation identity). rank1 and
    none zero the rows of DROPPED_BASES. The formula is
    SpectralTerms.amplitudes; the numeric overlap matrix applies it to the
    memoised terms of its k grid.
    """
    return SpectralTerms(config.sigma, config.d, config.delta, k).amplitudes(config)


def _k_grid(sigma, d, delta, k_max, nodes) -> tuple[SpectralTerms, np.ndarray]:
    """The composite Gauss-Legendre k grid of the numeric route (its
    density scales with the oscillation rate) as SpectralTerms, with the
    measure 4 pi k^2 dk."""
    k_panel = min(0.5 / sigma, 1.5 * nodes / (delta + 9.0 * sigma))
    kg, kw = gauss_legendre_panels(0.0, k_max, k_panel, nodes)
    return SpectralTerms(sigma, d, delta, kg), _read_only(4.0 * np.pi * kg * kg * kw)


def _v_base_numeric(config: ChannelConfig) -> np.ndarray:
    """4x4 overlap matrix on a deterministic k grid (d = 3; validated by a
    doubling test). The truncated receivers take this route. The grid and
    its coupling-free terms are kept for the last MAX_GRIDS keys (sigma, d,
    Delta, k_max, K_NODES), so the r0 points and couplings of a sweep share
    them."""
    key = (config.sigma, config.d, config.delta, config.resolved_k_max, K_NODES)
    terms, measure = _lru_get(_K_GRIDS, key, MAX_GRIDS, lambda: _k_grid(*key))
    beta = terms.amplitudes(config)
    return (beta * measure) @ beta.conj().T


def overlap_matrix(config: ChannelConfig) -> np.ndarray:
    """Base-observable overlap matrix V with V[l, m] = <0|O_l O_m|0>."""
    if config.bob.variant.startswith("truncated"):
        return _v_base_numeric(config)
    return _v_base_closed_form(config)


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------

def assemble_rho(v_base: np.ndarray) -> np.ndarray:
    """Sum the 2^10 terms given the 4x4 base overlap matrix.

    The Wick factor for a sign assignment s is
    exp(-(sum_{l<m} s_l s_m V_lm + (1/2) sum_l V_ll)); underflowed factors
    are exactly the negligible terms of the strong-coupling limit.
    """
    signs, tensors = _sign_table_and_tensors()
    v8 = np.asarray(v_base, dtype=complex)[np.ix_(SLOT_BASE, SLOT_BASE)]
    upper = np.triu(v8, 1)
    diag_half = 0.5 * np.trace(v8)
    exponents = diag_half + np.einsum("ti,ij,tj->t", signs, upper, signs)
    re = exponents.real
    with np.errstate(over="ignore", under="ignore"):
        wick = np.where(re > 745.0, 0.0, np.exp(-np.clip(re, None, 745.0)
                                                - 1j * exponents.imag))
    rho = 0.5 * np.einsum("t,tjk->jk", wick, tensors)
    return rho


def rho_cb(config: ChannelConfig) -> ChannelResult:
    """Channel output state on C (x) B with its coherent information.

    The trace lands on 1 and the spectrum on [0, 1] up to quadrature noise;
    both are enforced (not renormalized) by the DensityMatrix invariants.
    """
    resolved = replace(config, lambda_pi=config.resolved_lambda_pi)
    v = overlap_matrix(resolved)
    rho = assemble_rho(v)
    dm = DensityMatrix.from_matrix(rho)
    info = coherent_information(dm)
    return ChannelResult(dm, info, check_conditions(resolved))


def coherent_info_of(config: ChannelConfig) -> float:
    return rho_cb(config).coherent_info


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def capacity_sweep(lambda_grid, config: ChannelConfig):
    """Rows (lambda_phi / sigma, I_c, max(0, I_c)) with the gamma rule applied
    at every coupling. The full-receiver path is entirely closed-form."""
    rows = []
    for lam in lambda_grid:
        cfg = replace(config, lambda_phi=float(lam), lambda_pi=None)
        ic = coherent_info_of(cfg)
        rows.append((cfg.lambda_phi / cfg.sigma, ic, max(0.0, ic)))
    return rows


def broadcast_sweep(r0_grid, config: ChannelConfig):
    """Rows (r0, I_c to the inner receiver, I_c to the outer receiver).

    The two receivers are the complementary truncations of the full
    lightcone coverage at radius r0 (roll-off width config.bob.eps).
    """
    rows = []
    for r0 in r0_grid:
        r0 = float(r0)
        inner = replace(config, bob=replace(config.bob, variant="truncated_inner", r0=r0))
        outer = replace(config, bob=replace(config.bob, variant="truncated_outer", r0=r0))
        rows.append((r0, coherent_info_of(inner), coherent_info_of(outer)))
    return rows
