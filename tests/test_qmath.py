"""Tests for the small-dimension quantum state toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldchannel import qmath
from fieldchannel.errors import DimensionMismatch, InvalidState, NotHermitian


def bell_phi():
    v = np.zeros(4, complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestQubitBasis:
    def test_projectors_idempotent_hermitian_complete(self):
        for proj in (qmath.proj_z, qmath.proj_x, qmath.proj_y):
            for s in (1, -1):
                p = proj(s)
                assert np.allclose(p @ p, p, atol=1e-14)
                assert np.allclose(p, p.conj().T, atol=1e-14)
            assert np.allclose(proj(1) + proj(-1), np.eye(2), atol=1e-14)

    def test_plus_y_is_sigma_y_eigenvector(self):
        sigma_y = np.array([[0, -1j], [1j, 0]])
        v = qmath.ket_y(1)
        assert np.allclose(sigma_y @ v, v, atol=1e-14)


class TestEigenvalues:
    def test_identity_over_two(self):
        ev = qmath.hermitian_eigenvalues(np.eye(2) / 2)
        assert ev == pytest.approx([0.5, 0.5])

    def test_diagonal_dim4(self):
        ev = qmath.hermitian_eigenvalues(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert ev == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_descending_order(self):
        ev = qmath.hermitian_eigenvalues(np.diag([0.1, 0.4, 0.3, 0.2]))
        assert np.all(np.diff(ev) <= 0)

    def test_against_quadratic_formula(self):
        # dim-2 closed form: eigenvalues of [[a, b],[b*, c]] from the
        # characteristic polynomial, as an independent oracle
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, c = rng.standard_normal(2)
            b = rng.standard_normal() + 1j * rng.standard_normal()
            m = np.array([[a, b], [np.conj(b), c]])
            half_diff = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
            expected = np.array([(a + c) / 2 + half_diff, (a + c) / 2 - half_diff])
            assert np.max(np.abs(qmath.hermitian_eigenvalues(m) - expected)) < 1e-10

    def test_eigen_residuals(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (g + g.conj().T)
            ev, vec = np.linalg.eigh(h)
            for j in range(dim):
                assert np.linalg.norm(h @ vec[:, j] - ev[j] * vec[:, j]) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            qmath.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert qmath.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_zero(self):
        assert qmath.von_neumann_entropy(qmath.proj_y(1)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_dim4(self):
        assert qmath.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_clamps_tiny_negative_eigenvalues(self):
        rho = np.diag([1.0 + 5e-10, -5e-10])
        assert qmath.von_neumann_entropy(rho) >= -1e-9

    def test_validated_spectrum_gives_same_entropy(self):
        # a DensityMatrix reuses the eigenvalues of its validation; the
        # entropy must be bit-identical to decomposing the matrix again
        for seed in range(20):
            for dim in (2, 4):
                rho = qmath.random_density_matrix(dim, seed=seed)
                assert qmath.von_neumann_entropy(rho) == \
                    qmath.von_neumann_entropy(rho.matrix)

    def test_rejects_large_negative_eigenvalue(self):
        with pytest.raises(InvalidState):
            qmath.von_neumann_entropy(np.diag([1.1, -0.1]))


class TestPartialTrace:
    def test_product_state(self):
        rc = qmath.random_density_matrix(2, seed=1).matrix
        rb = qmath.random_density_matrix(2, seed=2).matrix
        assert np.allclose(qmath.partial_trace(np.kron(rc, rb), "B"), rb, atol=1e-12)
        assert np.allclose(qmath.partial_trace(np.kron(rc, rb), "C"), rc, atol=1e-12)

    def test_maximally_entangled(self):
        assert np.allclose(qmath.partial_trace(bell_phi(), "B"), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        for seed in range(20):
            rho = qmath.random_density_matrix(4, seed=seed).matrix
            reduced = qmath.partial_trace(rho, "B")
            assert abs(np.trace(reduced).real - 1.0) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            qmath.partial_trace(np.eye(2) / 2, "B")
        with pytest.raises(DimensionMismatch):
            qmath.partial_trace(np.eye(4) / 4, "A")


class TestCoherentInformation:
    def test_mixed_reference_pure_receiver(self):
        rho = np.kron(np.eye(2) / 2, qmath.proj_y(1))
        assert qmath.coherent_information(rho) == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_entangled(self):
        assert qmath.coherent_information(bell_phi()) == pytest.approx(1.0, abs=1e-12)

    def test_separable_non_positive(self):
        for seed in range(50):
            rho = qmath.random_separable_state(n_terms=3, seed=seed)
            assert qmath.coherent_information(rho) <= 1e-9

    def test_matches_minus_conditional_entropy(self):
        rho = qmath.random_density_matrix(4, seed=33)
        assert qmath.coherent_information(rho) == pytest.approx(
            -qmath.conditional_entropy(rho), abs=1e-12)


class TestConditionalEntropy:
    def test_product_of_mixed_and_pure(self):
        rho = np.kron(np.eye(2) / 2, qmath.proj_z(1))
        assert qmath.conditional_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_entangled(self):
        assert qmath.conditional_entropy(bell_phi()) == pytest.approx(-1.0, abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_concavity(self, seed, lam):
        r1 = qmath.random_density_matrix(4, seed=seed).matrix
        r2 = qmath.random_density_matrix(4, seed=seed + 1).matrix
        mix = lam * r1 + (1 - lam) * r2
        lhs = qmath.conditional_entropy(mix)
        rhs = lam * qmath.conditional_entropy(r1) + (1 - lam) * qmath.conditional_entropy(r2)
        assert lhs >= rhs - 1e-9


class TestRandomStates:
    def test_invariants(self):
        for dim in (2, 4):
            rho = qmath.random_density_matrix(dim, seed=7)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(m).min() > -1e-12

    def test_deterministic(self):
        a = qmath.random_density_matrix(4, seed=42).matrix
        b = qmath.random_density_matrix(4, seed=42).matrix
        assert np.array_equal(a, b)

    def test_unit_trace_by_construction(self):
        traces = [np.trace(qmath.random_density_matrix(2, seed=s).matrix).real
                  for s in range(1000)]
        assert np.mean(traces) == pytest.approx(1.0, abs=1e-13)

    def test_separable_single_term_is_product(self):
        rho = qmath.random_separable_state(n_terms=1, seed=3)
        assert qmath.coherent_information(rho) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_separable_coherent_information_bound(self, seed, n_terms):
        rho = qmath.random_separable_state(n_terms=n_terms, seed=seed)
        assert qmath.coherent_information(rho) <= 1e-9
