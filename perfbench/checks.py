"""Reference computations and output checks for the benchmark workloads.

Nothing here calls into fieldchannel: every reference is computed from the
formulas the package documents, so a check can fail when the package is
wrong. Each check returns a list of failure messages (empty when the
outputs pass); tolerances are module constants and are listed in README.md.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.special

# capacity: brute-force rho_CB against the sweep, per sampled point
CAPACITY_IC_TOL = 1e-9
# the clamped curve may not fall between neighbouring grid points
MONOTONE_TOL = 1e-12
# I_c at the top of the grid (lambda_phi >= 1000)
STRONG_COUPLING_FLOOR = 0.99
# broadcast: a receiver that covers the whole shell equals the full receiver
FULL_RECEIVER_TOL = 1e-6
# no simultaneous broadcast: min(I_c1, I_c2) stays below this
BROADCAST_MIN_CEILING = 1e-6
# at lambda_phi = 10 neither receiver gets more than this
BROADCAST_LPHI10_CEILING = 0.65
# documented full-receiver values; the brute-force reference must match them
FULL_RECEIVER_VALUES = {10.0: 0.555567, 1000.0: 0.999849}
FULL_RECEIVER_VALUE_TOL = 5e-7
# scatter: tr_B rho_CB = I/2, and I_c in [-1, 1]
REFERENCE_QUBIT_TOL = 1e-9
IC_RANGE_TOL = 1e-9
# smearings-2d: numeric Hankel profiles against the closed-kernel route,
# relative to the peak magnitude of each profile on the grid
FB1_TOL = 1e-9
FB23_TOL = 1e-8
# step of the Richardson-extrapolated Delta differences
RICHARDSON_STEP = 0.04


# ---------------------------------------------------------------------------
# qubit algebra, written out independently of fieldchannel.qmath
# ---------------------------------------------------------------------------

def _ket(axis: str, s: int) -> np.ndarray:
    if axis == "z":
        return np.array([1.0, 0.0], complex) if s > 0 else np.array([0.0, 1.0], complex)
    if axis == "x":
        return np.array([1.0, s], complex) / math.sqrt(2.0)
    return np.array([1.0, 1j * s], complex) / math.sqrt(2.0)


def _proj(axis: str, s: int) -> np.ndarray:
    v = _ket(axis, s)
    return np.outer(v, v.conj())


def entropy_bits(m: np.ndarray) -> float:
    ev = np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None)
    ev = ev[ev > 0.0]
    return float(-np.sum(ev * np.log2(ev)))


def trace_out_c(m: np.ndarray) -> np.ndarray:
    """tr_C of a 4x4 state with C the left tensor factor."""
    return m[:2, :2] + m[2:, 2:]


def trace_out_b(m: np.ndarray) -> np.ndarray:
    """tr_B of a 4x4 state with C the left tensor factor."""
    return np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                     [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]])


def coherent_info_bits(m: np.ndarray) -> float:
    return entropy_bits(trace_out_c(m)) - entropy_bits(m)


# ---------------------------------------------------------------------------
# brute-force full-receiver channel state
# ---------------------------------------------------------------------------

def gamma_rule_lambda_pi(lambda_phi: float, sigma: float = 1.0) -> float:
    """lambda_pi with gamma_A = pi/4 in d = 3: (pi/4) (2 pi)^{3/2} sigma^3 / lambda_phi."""
    return (math.pi / 4.0) * (2.0 * math.pi) ** 1.5 * sigma**3 / lambda_phi


def gaussian_w(xl, zl, xm, zm, sigma, lphi, lpi) -> complex:
    """W_lm for O = x pi_A + z phi_A with a width-sigma Gaussian (d = 3)."""
    return (4.0 * xl * xm * lpi**2 + 2.0 * zl * zm * sigma**2 * lphi**2
            + 1j * math.sqrt(2.0 * math.pi) * sigma * lphi * lpi * (xm * zl - xl * zm)
            ) / (8.0 * math.pi**2 * sigma**4)


def brute_force_rho(lambda_phi: float, sigma: float = 1.0) -> np.ndarray:
    """rho_CB of the full receiver as the explicit sum over 2^10 sign terms.

    Slots are z1 phi_A, x1 pi_A, x2 X_B, z2 Z_B, z3 Z_B, x3 X_B, x4 pi_A,
    z4 phi_A with X_B = pi_A and Z_B = phi_A; the vacuum factor is the
    ordered Wick product prod_{l<m} e^{-W_lm} prod_l e^{-W_ll/2}.
    """
    lpi = gamma_rule_lambda_pi(lambda_phi, sigma)
    plus_y = _proj("y", 1)
    rho = np.zeros((4, 4), complex)
    for z1, x1, x2, z2, z3, x3, x4, z4 in itertools.product((1, -1), repeat=8):
        coeffs = [(0, z1), (x1, 0), (x2, 0), (0, z2), (0, z3), (x3, 0), (x4, 0), (0, z4)]
        exponent = 0.0
        for l, (xl, zl) in enumerate(coeffs):
            exponent += 0.5 * gaussian_w(xl, zl, xl, zl, sigma, lambda_phi, lpi)
            for xm, zm in coeffs[l + 1:]:
                exponent += gaussian_w(xl, zl, xm, zm, sigma, lambda_phi, lpi)
        if exponent.real > 700.0:
            continue
        vacuum = np.exp(-exponent)
        alice = _proj("z", -z1) @ _proj("x", -x1) @ _proj("x", x4) @ _proj("z", z4)
        bob = _proj("z", -z3) @ _proj("x", -x3) @ plus_y @ _proj("x", x2) @ _proj("z", z2)
        for j, k in itertools.product((1, -1), repeat=2):
            element = _ket("z", k).conj() @ alice @ _ket("z", j)
            c = np.outer(_ket("z", -j), _ket("z", -k).conj())
            rho += 0.5 * vacuum * element * np.kron(c, bob)
    return rho


def full_receiver_ic(lambda_phi: float) -> float:
    return coherent_info_bits(brute_force_rho(lambda_phi))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_capacity(output, sample_rows=()) -> list[str]:
    """output: (grid, rows) of one sweep; the rows listed in sample_rows are
    recomputed by brute force."""
    grid, rows = output
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (len(grid), 3):
        return [f"{rows.shape} rows for a {len(grid)}-point grid"]
    errors = []
    if not np.allclose(rows[:, 0], grid, rtol=1e-15, atol=0.0):
        errors.append("lambda column differs from the grid")
    if np.any(rows[:, 2] != np.maximum(0.0, rows[:, 1])):
        errors.append("clamped column is not max(0, I_c)")
    drop = np.min(np.diff(rows[:, 2]))
    if drop < -MONOTONE_TOL:
        errors.append(f"clamped curve decreases by {-drop:.3e}")
    top = rows[rows[:, 0] >= 1000.0, 1]
    if top.size == 0 or top.min() < STRONG_COUPLING_FLOOR:
        errors.append(f"I_c at lambda_phi >= 1000 is {top} (need >= {STRONG_COUPLING_FLOOR})")
    for i in sample_rows:
        lam, ic, _ = rows[i]
        ref = full_receiver_ic(lam)
        if not abs(ic - ref) <= CAPACITY_IC_TOL:
            errors.append(f"I_c({lam:.6g}) = {ic!r}, brute force {ref!r}")
    return errors


def full_receiver_references() -> dict:
    """Brute-force full-receiver I_c at lambda_phi = 10 and 1000."""
    return {lam: full_receiver_ic(lam) for lam in FULL_RECEIVER_VALUES}


def check_full_receiver_references(refs: dict) -> list[str]:
    return [f"brute-force I_c({lam:g}) = {refs[lam]!r}, documented {value}"
            for lam, value in FULL_RECEIVER_VALUES.items()
            if not abs(refs[lam] - value) <= FULL_RECEIVER_VALUE_TOL]


def check_broadcast(output, refs: dict) -> list[str]:
    """output: (delta, {lambda_phi: rows}) of one command; rows are
    (r0, I_c1, I_c2) on a grid from delta - 8 to delta + 8."""
    errors = check_full_receiver_references(refs)
    delta, by_lambda = output
    for lam, rows in by_lambda.items():
        rows = np.asarray(rows, dtype=float)
        tag = f"lambda_phi={lam:g}"
        if rows[0, 0] != delta - 8.0 or rows[-1, 0] != delta + 8.0:
            errors.append(f"{tag}: r0 grid {rows[0, 0]}..{rows[-1, 0]} does not span delta -+ 8")
        for name, value in (("outer at delta-8", rows[0, 2]), ("inner at delta+8", rows[-1, 1])):
            if not abs(value - refs[lam]) <= FULL_RECEIVER_TOL:
                errors.append(f"{tag}: {name} I_c = {value!r}, full receiver {refs[lam]!r}")
        both = np.min(rows[:, 1:], axis=1).max()
        if not both <= BROADCAST_MIN_CEILING:
            errors.append(f"{tag}: both receivers get I_c >= {both:.3e}")
        if lam == 10.0 and not rows[:, 1:].max() <= BROADCAST_LPHI10_CEILING:
            errors.append(f"{tag}: I_c {rows[:, 1:].max()!r} above {BROADCAST_LPHI10_CEILING}")
    return errors


def check_scatter(output) -> list[str]:
    """output: (4x4 rho_CB, I_c) of one evaluation."""
    rho, ic = np.asarray(output[0]), output[1]
    errors = []
    residual = np.max(np.abs(trace_out_b(rho) - 0.5 * np.eye(2)))
    if not residual <= REFERENCE_QUBIT_TOL:
        errors.append(f"tr_B rho_CB differs from I/2 by {residual:.3e}")
    if not -1.0 - IC_RANGE_TOL <= ic <= 1.0 + IC_RANGE_TOL:
        errors.append(f"I_c = {ic!r} outside [-1, 1]")
    recomputed = coherent_info_bits(rho)
    if not abs(recomputed - ic) <= REFERENCE_QUBIT_TOL:
        errors.append(f"I_c = {ic!r} but the state gives {recomputed!r}")
    return errors


def _richardson(d_of_h, h: float) -> float:
    """Two Richardson steps on an even-error difference quotient D(h)."""
    d1, d2, d4 = d_of_h(h), d_of_h(h / 2.0), d_of_h(h / 4.0)
    r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def closed_kernel_2d(r: np.ndarray, delta: float, sigma: float = 1.0,
                     nodes: int = 256) -> np.ndarray:
    """F_B1 in d = 2 from the interior kernel -1/sqrt(Delta^2 - rho^2):

    F_B1(r) = -(Delta / pi s^2) int_0^{pi/2} sin(t) e^{-(r - Delta sin t)^2/s^2}
              I0e(2 r Delta sin t / s^2) dt,

    here on a single Gauss-Legendre rule of `nodes` points, independent of
    fieldchannel.propagation.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * np.pi * (x + 1.0)
    w = 0.25 * np.pi * w
    r = np.asarray(r, dtype=float)
    rho = delta * np.sin(theta)
    arg = 2.0 * r[:, None] * rho[None, :] / sigma**2
    gauss = np.exp(-((r[:, None] - rho[None, :]) ** 2) / sigma**2)
    return -(delta / (np.pi * sigma**2)) * (gauss * scipy.special.i0e(arg) * np.sin(theta)) @ w


def smearing_references(rs: np.ndarray, delta: float) -> np.ndarray:
    """(len(rs), 3): F_B1, F_B2 = -d/dDelta F_B1, F_B3 = d^2/dDelta^2 F_B1."""
    f = lambda d: closed_kernel_2d(rs, d)
    f0 = f(delta)
    h0 = RICHARDSON_STEP
    d1 = _richardson(lambda h: (f(delta + h) - f(delta - h)) / (2.0 * h), h0)
    d2 = _richardson(lambda h: (f(delta + h) - 2.0 * f0 + f(delta - h)) / (h * h), h0)
    return np.column_stack([f0, -d1, d2])


def check_smearings_2d(output) -> list[str]:
    """output: (delta, rows) of one command, rows (r, F_B1, F_B2, F_B3)."""
    delta, rows = output
    rows = np.asarray(rows, dtype=float)
    ref = smearing_references(rows[:, 0], delta)
    errors = []
    for col, tol, name in ((0, FB1_TOL, "F_B1"), (1, FB23_TOL, "F_B2"), (2, FB23_TOL, "F_B3")):
        worst = np.max(np.abs(rows[:, col + 1] - ref[:, col])) / np.max(np.abs(ref[:, col]))
        if not worst <= tol:
            errors.append(f"delta={delta!r}: {name} differs by {worst:.3e} of its peak")
    return errors
