"""Exact linear algebra and entropy computations for 2- and 4-dimensional states.

All entropies are in bits (log base 2). The tensor order for bipartite
states is fixed project-wide as C (reference) on the left, B (receiver)
on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidState, NotHermitian

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9


# ---------------------------------------------------------------------------
# qubit basis constants
# ---------------------------------------------------------------------------

def ket_z(s: int) -> np.ndarray:
    """Eigenvector of sigma_z with eigenvalue s = +1 or -1."""
    return np.array([1.0, 0.0], complex) if s > 0 else np.array([0.0, 1.0], complex)


def ket_x(s: int) -> np.ndarray:
    """Eigenvector of sigma_x with eigenvalue s: (|+z> + s|-z>)/sqrt(2)."""
    return np.array([1.0, s], complex) / np.sqrt(2.0)


def ket_y(s: int) -> np.ndarray:
    """Eigenvector of sigma_y = [[0,-i],[i,0]] with eigenvalue s."""
    return np.array([1.0, 1j * s], complex) / np.sqrt(2.0)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def proj_z(s: int) -> np.ndarray:
    return projector(ket_z(s))


def proj_x(s: int) -> np.ndarray:
    return projector(ket_x(s))


def proj_y(s: int) -> np.ndarray:
    return projector(ket_y(s))


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def _require_eigenvalue_floor(ev: np.ndarray) -> None:
    evmin = float(ev.min())
    if evmin < EIGENVALUE_FLOOR:
        raise InvalidState(f"smallest eigenvalue {evmin:.3e} below {EIGENVALUE_FLOOR:.0e}")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix of dimension 2 or 4.

    Construction checks Hermiticity (entrywise 1e-9), unit trace (1e-9)
    and positivity (smallest eigenvalue >= -1e-9), and keeps the
    eigenvalues (descending) for the entropy.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def from_matrix(m: np.ndarray) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatch(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
        ev = hermitian_eigenvalues(m)
        _require_eigenvalue_floor(ev)
        return DensityMatrix(m, ev)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    Raises NotHermitian if the symmetry residual exceeds 1e-9. Backed by
    LAPACK (numpy.linalg.eigvalsh); residuals are checked in the tests.
    """
    a = _as_matrix(m)
    herm = np.max(np.abs(a - a.conj().T))
    if herm > HERMITICITY_TOL:
        raise NotHermitian(f"Hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))[::-1]


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho, in bits.

    Eigenvalues in [-1e-9, 0] are clamped to zero (quadrature noise);
    anything below -1e-9 raises InvalidState. 0 log 0 is taken as 0. A
    DensityMatrix reuses the eigenvalues of its validation.
    """
    if isinstance(rho, DensityMatrix):
        ev = rho.eigenvalues
    else:
        ev = hermitian_eigenvalues(rho)
        _require_eigenvalue_floor(ev)
    ev = np.clip(ev, 0.0, None)
    pos = ev[ev > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def partial_trace(rho_cb, keep: str) -> np.ndarray:
    """Reduce a 4x4 state on C (x) B to the kept qubit.

    keep='B' returns tr_C rho, keep='C' returns tr_B rho. C is the left
    tensor factor throughout the project.
    """
    m = _as_matrix(rho_cb)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"partial_trace needs a 4x4 matrix, got {m.shape}")
    t = m.reshape(2, 2, 2, 2)
    if keep == "B":
        return np.trace(t, axis1=0, axis2=2)
    if keep == "C":
        return np.trace(t, axis1=1, axis2=3)
    raise DimensionMismatch(f"keep must be 'C' or 'B', got {keep!r}")


def coherent_information(rho_cb) -> float:
    """I_c = S(rho_B) - S(rho_CB) in bits, for a state on C (x) B."""
    return von_neumann_entropy(partial_trace(rho_cb, "B")) - von_neumann_entropy(rho_cb)


def conditional_entropy(rho_cb) -> float:
    """S(C|B) = S(rho_CB) - S(rho_B); equals -coherent_information."""
    return von_neumann_entropy(rho_cb) - von_neumann_entropy(partial_trace(rho_cb, "B"))


# ---------------------------------------------------------------------------
# random state generators for property tests
# ---------------------------------------------------------------------------

def random_density_matrix(dim: int, seed: int) -> DensityMatrix:
    """GG^dagger / Tr(GG^dagger) with G of iid standard complex Gaussians."""
    if dim not in (2, 4):
        raise DimensionMismatch(f"dim must be 2 or 4, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def _random_pure_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_separable_state(n_terms: int, seed: int) -> DensityMatrix:
    """Convex mixture sum_i p_i |c_i><c_i| (x) |b_i><b_i| on C (x) B."""
    if n_terms < 1:
        raise DimensionMismatch(f"n_terms must be >= 1, got {n_terms}")
    rng = np.random.default_rng(seed)
    weights = rng.random(n_terms)
    weights /= weights.sum()
    m = np.zeros((4, 4), complex)
    for p in weights:
        c = _random_pure_qubit(rng)
        b = _random_pure_qubit(rng)
        m += p * np.kron(projector(c), projector(b))
    return DensityMatrix.from_matrix(m)
