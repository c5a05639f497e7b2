import math

import numpy as np
import pytest
from oracles import ID2

from qubitlab.errors import ATOL_EXACT, DimensionError, DomainError, HermiticityError, unit_vector
from qubitlab.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PauliCoefficients,
    commutator,
    is_hermitian,
    pauli_decompose,
    pauli_matrix,
    tensor,
)


def random_hermitian(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestPauliDecompose:
    def test_sigma_z_is_a_basis_element(self):
        c = pauli_decompose(SIGMA_Z)
        assert (c.m0, c.mx, c.my, c.mz) == (0.0, 0.0, 0.0, 1.0)

    def test_identity(self):
        c = pauli_decompose(ID2)
        assert (c.m0, c.mx, c.my, c.mz) == (1.0, 0.0, 0.0, 0.0)

    def test_identity_plus_sigma_x_eigenvalues(self):
        c = pauli_decompose(ID2 + SIGMA_X)
        assert (c.m0, c.mx, c.my, c.mz) == (1.0, 1.0, 0.0, 0.0)
        assert c.eigenvalue_pair() == (0.0, 2.0)

    def test_roundtrip_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_hermitian(rng)
            c = pauli_decompose(m)
            np.testing.assert_allclose(c.reconstruct(), m, atol=ATOL_EXACT)

    def test_coefficient_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = PauliCoefficients(*rng.normal(size=4))
            back = pauli_decompose(c.reconstruct())
            np.testing.assert_allclose(
                [back.m0, back.mx, back.my, back.mz], [c.m0, c.mx, c.my, c.mz], atol=ATOL_EXACT
            )

    def test_eigenvalue_formula_matches_numerical_spectrum(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = random_hermitian(rng)
            lo, hi = pauli_decompose(m).eigenvalue_pair()
            np.testing.assert_allclose(np.linalg.eigvalsh(m), [lo, hi], atol=ATOL_EXACT)

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionError):
            pauli_decompose(np.eye(3))

    def test_huge_finite_entries_read_without_overflow(self):
        c = pauli_decompose(np.array([[1e308, 1e308], [1e308, -1e308]]))
        assert (c.m0, c.mx, c.my, c.mz) == (0.0, 1e308, 0.0, 1e308)
        assert c.eigenvalue_pair() == (-math.hypot(1e308, 1e308), math.hypot(1e308, 1e308))
        assert not is_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))


class TestPauliMatrix:
    def test_real_coefficients_give_the_hermitian_sum(self):
        np.testing.assert_array_equal(
            pauli_matrix(0.5, (0.25, -1.0, 2.0)), 0.5 * ID2 + 0.25 * SIGMA_X - SIGMA_Y + 2.0 * SIGMA_Z
        )

    def test_complex_coefficients_give_su2(self):
        # exp(i*theta*n.sigma) = cos(theta) I + i sin(theta) n.sigma
        n, theta = np.array([0.6, 0.0, 0.8]), 0.7
        u = pauli_matrix(math.cos(theta), 1j * math.sin(theta) * n)
        expected = math.cos(theta) * ID2 + 1j * math.sin(theta) * (0.6 * SIGMA_X + 0.8 * SIGMA_Z)
        np.testing.assert_allclose(u, expected, rtol=0, atol=ATOL_EXACT)
        np.testing.assert_allclose(u @ u.conj().T, ID2, rtol=0, atol=ATOL_EXACT)


class TestTensor:
    def test_identity_tensor_identity(self):
        np.testing.assert_array_equal(tensor(ID2, ID2), np.eye(4))

    def test_sigma_z_tensor_sigma_z_diagonal(self):
        np.testing.assert_array_equal(tensor(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_sigma_x_tensor_sigma_x_eigenvector(self):
        # direct 4x4 multiplication: (1,0,0,1)/sqrt(2) has eigenvalue +1
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(tensor(SIGMA_X, SIGMA_X) @ v, v, atol=ATOL_EXACT)

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            np.testing.assert_allclose(
                tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d), atol=1e-10
            )

    def test_bilinear(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_hermitian(rng) for _ in range(3))
        np.testing.assert_allclose(
            tensor(a + 2.0 * b, c), tensor(a, c) + 2.0 * tensor(b, c), atol=ATOL_EXACT
        )

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_hermitian(rng), random_hermitian(rng)
            np.testing.assert_allclose(
                np.trace(tensor(a, b)), np.trace(a) * np.trace(b), atol=1e-10
            )

    def test_overflowing_product_rejected(self):
        # the product of two finite 1e200 entries used to come back as inf, with a RuntimeWarning
        big = np.array([[1e200, 0], [0, 0]])
        with pytest.raises(DomainError, match="finite"):
            tensor(big, big)

    def test_unsupported_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            tensor(np.eye(3), np.eye(2))
        with pytest.raises(DimensionError):
            tensor(np.eye(2), np.eye(4))


class TestCommutator:
    def test_self_commutator_vanishes(self):
        np.testing.assert_array_equal(commutator(SIGMA_X, SIGMA_X), np.zeros((2, 2)))

    def test_sigma_x_sigma_y(self):
        # oracle: direct 2x2 multiplication of the Pauli matrices
        direct = SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X
        np.testing.assert_allclose(direct, 2j * SIGMA_Z, atol=ATOL_EXACT)
        np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=ATOL_EXACT)

    def test_spin_half_algebra(self):
        # hbar = 1: [J_x, J_y] = i J_z for J_i = sigma_i / 2
        jx, jy, jz = SIGMA_X / 2, SIGMA_Y / 2, SIGMA_Z / 2
        np.testing.assert_allclose(commutator(jx, jy), 1j * jz, atol=ATOL_EXACT)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(2), np.eye(3))

    def test_overflowing_product_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            commutator([[1e200, 0], [0, 0]], [[0, 1e200], [0, 0]])


class TestUnitVector:
    def test_unit_vector_passes_through_as_float(self):
        v = unit_vector([0, 0, 1], "axis")
        assert v == (0.0, 0.0, 1.0) and all(type(c) is float for c in v)

    @pytest.mark.parametrize(
        "v",
        [
            [float("nan"), 0.0, 0.0],
            [1.0, float("nan"), 0.0],
            [float("inf"), 0.0, 0.0],
            [float("inf"), float("nan"), 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ],
    )
    def test_non_unit_or_non_finite_rejected(self, v):
        with pytest.raises(DomainError):
            unit_vector(v, "axis")

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            unit_vector([1.0, 0.0], "axis")
