"""Dense complex linear algebra for 2-, 3- and 4-dimensional operators.

Everything is plain numpy on small fixed-size arrays. ATOL_EXACT bounds
closed-form algebra, ATOL_SCAN bounds iterative or scanned results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, HermiticityError

ATOL_EXACT = 1e-12
ATOL_SCAN = 1e-9
SUPPORTED_DIMS = (2, 3, 4)

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def as_matrix(m, dims=SUPPORTED_DIMS) -> np.ndarray:
    """Coerce to a square complex array of a supported dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise DimensionError(
            f"dimension {a.shape[0]} unsupported here (want one of {tuple(dims)})"
        )
    return a


def unit_vector(v, what: str) -> np.ndarray:
    """Coerce to a float 3-vector of unit length; NaN or inf components are rejected."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DimensionError(f"{what} must be a 3-vector, got shape {a.shape}")
    norm = math.hypot(*a)
    if not abs(norm - 1.0) <= ATOL_EXACT:  # a NaN norm fails this comparison too
        raise DomainError(f"{what} must be a finite unit vector, |v| = {norm}")
    return a


def is_hermitian(m, atol: float = ATOL_EXACT) -> bool:
    a = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def require_hermitian(m, dims=SUPPORTED_DIMS, atol: float = ATOL_EXACT) -> np.ndarray:
    a = as_matrix(m, dims)
    if not is_hermitian(a, atol):
        raise HermiticityError("matrix is not Hermitian within tolerance")
    return a


@dataclass(frozen=True)
class PauliCoefficients:
    """Real expansion coefficients of a Hermitian 2x2 matrix over (I, sigma_x, sigma_y, sigma_z)."""

    m0: float
    mx: float
    my: float
    mz: float

    def reconstruct(self) -> np.ndarray:
        return self.m0 * ID2 + self.mx * SIGMA_X + self.my * SIGMA_Y + self.mz * SIGMA_Z

    def eigenvalue_pair(self) -> tuple[float, float]:
        """The two eigenvalues, centered about m0 with half-spread |(mx,my,mz)|."""
        r = math.sqrt(self.mx**2 + self.my**2 + self.mz**2)
        return (self.m0 - r, self.m0 + r)


def pauli_decompose(m) -> PauliCoefficients:
    """Expand a Hermitian 2x2 matrix in the identity-plus-Pauli basis.

    The coefficients are unique and real; reconstruct() inverts the expansion.
    """
    a = require_hermitian(m, dims=(2,))
    m0 = float((a[0, 0] + a[1, 1]).real) / 2.0
    mz = float((a[0, 0] - a[1, 1]).real) / 2.0
    mx = float((a[0, 1] + a[1, 0]).real) / 2.0
    my = float((a[1, 0] - a[0, 1]).imag) / 2.0
    return PauliCoefficients(m0, mx, my, mz)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators (the only composite needed here)."""
    aa = as_matrix(a, dims=(2,))
    bb = as_matrix(b, dims=(2,))
    return np.kron(aa, bb)


def commutator(a, b) -> np.ndarray:
    """ab - ba for two square matrices of equal dimension."""
    aa = as_matrix(a)
    bb = as_matrix(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"dimension mismatch: {aa.shape[0]} vs {bb.shape[0]}")
    return aa @ bb - bb @ aa
