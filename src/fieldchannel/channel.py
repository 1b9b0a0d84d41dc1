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

import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import qmath
from .errors import BadParameter
from .observables import (
    ConditionReport,
    FieldObservableSpec,
    check_conditions,
    gamma_rule_lambda_pi,
    gaussian_w_matrix,
    momentum_amplitude,
)
from .propagation import bob_profiles_3d, bob_spectra
from .qmath import DensityMatrix, coherent_information
from .smearing import (
    GaussianProfile,
    GaussianSpectrum,
    SmoothStep,
    WindowedProfile,
    _legendre_rule,
    default_k_max,
    fourier_radial,
    gauss_legendre_panels,
)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

BOB_VARIANTS = ("full", "truncated_inner", "truncated_outer", "rank1", "none")

# slot -> base observable, in the fixed string order
# [z1 phiA, x1 piA, x2 X_B, z2 Z_B, z3 Z_B, x3 X_B, x4 piA, z4 phiA]
BASE_PHI_A, BASE_PI_A, BASE_X_B, BASE_Z_B = 0, 1, 2, 3
SLOT_BASE = (BASE_PHI_A, BASE_PI_A, BASE_X_B, BASE_Z_B,
             BASE_Z_B, BASE_X_B, BASE_PI_A, BASE_PHI_A)
SIGN_NAMES = ("z1", "x1", "x2", "z2", "z3", "x3", "x4", "z4")


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
    # deterministic composite Gauss-Legendre grids for the truncated path
    k_nodes: int = 16
    r_nodes: int = 32

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


@dataclass(frozen=True)
class ExponentTemplate:
    """The 8-slot operator string: slot -> base observable plus sign labels."""

    slot_base: tuple
    sign_names: tuple
    base_amplitudes: list      # [phi_A, pi_A, X_B, Z_B] as SpectralAmplitude


# ---------------------------------------------------------------------------
# qubit-side factors, precomputed once for all 256 sign assignments
# ---------------------------------------------------------------------------

_SIGNS_CACHE: tuple | None = None


def _sign_table_and_tensors():
    """(256, 8) sign matrix and the matching (256, 4, 4) qubit tensors.

    For signs (z1, x1, x2, z2, z3, x3, x4, z4) the tensor is
    sum_{j,k} <k_z|P_{-z1} P_{-x1} P_{x4} P_{z4}|j_z>  |{-j}><{-k}| (x) B
    with B = P_{-z3} P_{-x3} |+y><+y| P_{x2} P_{z2}.
    """
    global _SIGNS_CACHE
    if _SIGNS_CACHE is not None:
        return _SIGNS_CACHE
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
    _SIGNS_CACHE = (signs, tensors)
    return _SIGNS_CACHE


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
    dropped = {"rank1": (BASE_X_B,), "none": (BASE_X_B, BASE_Z_B)}
    for base in dropped.get(config.bob.variant, ()):
        v[base, :] = 0.0
        v[:, base] = 0.0
    return v


def _truncated_bob_profiles(config: ChannelConfig):
    side = "inner" if config.bob.variant == "truncated_inner" else "outer"
    window = SmoothStep(config.bob.r0, config.bob.eps, side)
    return [WindowedProfile(p, window)
            for p in bob_profiles_3d(config.sigma, config.delta)]


def _windowed_spectra(config: ChannelConfig, k_values: np.ndarray) -> np.ndarray:
    """(len(k), 3) spectra of the three windowed receiver profiles at k > 0,
    over a composite Gauss-Legendre r grid.

    The panel length keeps the phase advance of sin(k_max r) well inside
    the rule's resolution (about 1.5 nodes per radian of margin); accuracy
    is confirmed by node-doubling tests and against the adaptive route.

    The kernel r^2 sin(kr)/(kr) = (r/k) sin(kr) is never formed. Every node
    is r = m_p + h x_j (panel midpoint m_p, common half-width h, base node
    x_j), so sin(k r) = sin(k m_p) cos(k h x_j) + cos(k m_p) sin(k h x_j):
    two (k x j) and two (k x panel) trig tables, two matrix products over
    the base nodes and one contraction over the panels. Panels whose
    coefficients all lie below 1e-22 of the peak are dropped whole.
    """
    sigma, delta, nodes = config.sigma, config.delta, config.r_nodes
    r_panel = min(sigma / 4.0, 1.5 * nodes / config.resolved_k_max)
    r_lo, r_hi = max(0.0, delta - 9.0 * sigma), delta + 9.0 * sigma
    rg, rw = gauss_legendre_panels(r_lo, r_hi, r_panel, nodes)
    profiles = _truncated_bob_profiles(config)
    # (panel, node, profile) coefficients of sin(k r)
    coefs = np.stack([rw * rg * p(rg) for p in profiles], axis=1).reshape(-1, nodes, 3)
    peak = np.max(np.abs(coefs))
    if peak == 0.0:
        return np.zeros((len(k_values), 3))
    keep = np.abs(coefs).max(axis=(1, 2)) > 1e-22 * peak
    panels = rg.reshape(-1, nodes)[keep]
    # Gauss-Legendre nodes are symmetric about each panel's midpoint
    mid = 0.5 * (panels[:, 0] + panels[:, -1])
    offsets = 0.5 * (r_hi - r_lo) / len(keep) * _legendre_rule(nodes)[0]
    k = np.asarray(k_values, dtype=float)[:, None]
    by_node = coefs[keep].transpose(1, 0, 2).reshape(nodes, -1)
    cos_part = (np.cos(k * offsets) @ by_node).reshape(len(k), -1, 3)
    sin_part = (np.sin(k * offsets) @ by_node).reshape(len(k), -1, 3)
    spectra = (np.sin(k * mid)[:, None, :] @ cos_part
               + np.cos(k * mid)[:, None, :] @ sin_part)[:, 0, :]
    return SQRT_2_OVER_PI * spectra / k


def _v_base_numeric(config: ChannelConfig) -> np.ndarray:
    """4x4 overlap matrix for a truncated receiver (d = 3), on deterministic
    composite Gauss-Legendre grids (densities scale with the oscillation
    rates; validated by doubling tests)."""
    sigma, delta = config.sigma, config.delta
    lphi, lpi = config.lambda_phi, config.resolved_lambda_pi
    k_max = config.resolved_k_max
    r_hi = delta + 9.0 * sigma
    k_panel = min(0.5 / sigma, 1.5 * config.k_nodes / r_hi)
    kg, kw = gauss_legendre_panels(0.0, k_max, k_panel, config.k_nodes)
    f1w, f2w, f3w = _windowed_spectra(config, kg).T

    fa = GaussianSpectrum(sigma, 3)(kg)
    inv_sqrt = 1.0 / np.sqrt(2.0 * kg)
    phase = np.exp(-1j * kg * delta)
    beta = np.empty((4, len(kg)), dtype=complex)
    beta[BASE_PHI_A] = lphi * fa * inv_sqrt
    beta[BASE_PI_A] = -1j * kg * lpi * fa * inv_sqrt
    beta[BASE_X_B] = lpi * (f3w - 1j * kg * f2w) * phase * inv_sqrt
    beta[BASE_Z_B] = lphi * (f2w - 1j * kg * f1w) * phase * inv_sqrt
    measure = 4.0 * np.pi * kg * kg * kw
    return (beta * measure) @ beta.conj().T


def overlap_matrix(config: ChannelConfig) -> np.ndarray:
    """Base-observable overlap matrix V with V[l, m] = <0|O_l O_m|0>."""
    if config.bob.variant.startswith("truncated"):
        if config.d != 3:
            raise BadParameter("truncated receivers are implemented for d = 3 only")
        return _v_base_numeric(config)
    return _v_base_closed_form(config)


# ---------------------------------------------------------------------------
# exponent template (inspection / oracle surface)
# ---------------------------------------------------------------------------

def build_exponent_string(config: ChannelConfig) -> ExponentTemplate:
    """The ordered 8-slot template and the four base coherent amplitudes.

    For the full receiver the X_B / Z_B amplitudes equal pi_A / phi_A
    pointwise (the propagation identity); for truncated receivers they are
    built from the windowed smearings and evaluate through quadrature.
    """
    lpi = config.resolved_lambda_pi
    alice = GaussianProfile(config.sigma, config.d)
    phi_a = momentum_amplitude(FieldObservableSpec("phi", alice, 0.0, config.lambda_phi))
    pi_a = momentum_amplitude(FieldObservableSpec("pi", alice, 0.0, lpi))

    variant = config.bob.variant
    if variant in ("full", "rank1", "none"):
        s1, s2, s3 = bob_spectra(GaussianSpectrum(config.sigma, config.d), config.delta)
    else:
        if config.d != 3:
            raise BadParameter("truncated receivers are implemented for d = 3 only")
        p1, p2, p3 = _truncated_bob_profiles(config)
        s1, s2, s3 = (fourier_radial(p) for p in (p1, p2, p3))
    z_b = (momentum_amplitude(FieldObservableSpec("phi", s2, config.delta, config.lambda_phi))
           + momentum_amplitude(FieldObservableSpec("pi", s1, config.delta, config.lambda_phi)))
    x_b = (momentum_amplitude(FieldObservableSpec("phi", s3, config.delta, lpi))
           + momentum_amplitude(FieldObservableSpec("pi", s2, config.delta, lpi)))
    if variant == "rank1":
        x_b = x_b.scaled(0.0)
    elif variant == "none":
        z_b, x_b = z_b.scaled(0.0), x_b.scaled(0.0)

    return ExponentTemplate(SLOT_BASE, SIGN_NAMES, [phi_a, pi_a, x_b, z_b])


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
    if config.bob.eps <= 0:
        raise BadParameter("broadcast sweep needs a positive window width eps")
    rows = []
    for r0 in r0_grid:
        r0 = float(r0)
        inner = replace(config, bob=replace(config.bob, variant="truncated_inner", r0=r0))
        outer = replace(config, bob=replace(config.bob, variant="truncated_outer", r0=r0))
        rows.append((r0, coherent_info_of(inner), coherent_info_of(outer)))
    return rows
