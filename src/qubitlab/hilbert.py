"""Dense complex linear algebra for 2-, 3- and 4-dimensional operators.

Everything is plain numpy on small fixed-size arrays. A 2x2 operator is one
expansion m0*I + m.sigma: `pauli_matrix` builds it (complex coefficients too,
as in SU(2)) and `pauli_decompose` reads a Hermitian one back.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ATOL_EXACT, DimensionError, DomainError, HermiticityError, check_atol

SUPPORTED_DIMS = (2, 3, 4)

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(m, dims=SUPPORTED_DIMS) -> np.ndarray:
    """Coerce to a square complex array of a supported dimension with finite entries.

    The entries must be numbers: a string or a bool entry is a DimensionError,
    and an int past the float range a DomainError.
    """
    try:
        a = np.asarray(m)
    except (TypeError, ValueError):  # a ragged nesting
        raise DimensionError(f"expected a square matrix of numbers, got {m!r}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise DimensionError(
            f"dimension {a.shape[0]} unsupported here (want one of {tuple(dims)})"
        )
    # numpy types no array of an int past int64, a Fraction or None: such entries stay objects
    if a.dtype.kind not in "iufc" and not (
        a.dtype.kind == "O" and all(isinstance(x, numbers.Number) and not isinstance(x, bool) for x in a.flat)
    ):
        raise DimensionError(f"expected a square matrix of numbers, got {m!r}")
    try:
        a = a.astype(complex, copy=False)
    except (OverflowError, ValueError):  # an int past the float range, a signaling-NaN Decimal
        raise DomainError("matrix entries must be finite") from None
    return _finite(a, "matrix entries")


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """`a` if every entry is finite, else DomainError."""
    # at most 16 entries: Python scalars are quicker than a numpy reduction here
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise DomainError(f"{what} must be finite")
    return a


def is_hermitian(m, atol: float = ATOL_EXACT) -> bool:
    """|m_ij - conj(m_ji)| <= atol for every entry; a difference too large for a float is not within atol."""
    rows = as_matrix(m).tolist()
    atol = check_atol(atol)
    try:
        return all(
            abs(x - rows[j][i].conjugate()) <= atol for i, row in enumerate(rows) for j, x in enumerate(row[i:], i)
        )
    except OverflowError:  # Python's abs of a complex raises where numpy's gives inf
        return False


def pauli_matrix(m0, m) -> np.ndarray:
    """m0*I + m.sigma for m = (mx, my, mz), written out entry by entry; the coefficients may be complex."""
    mx, my, mz = m
    return np.array([[m0 + mz, mx - 1j * my], [mx + 1j * my, m0 - mz]], dtype=complex)


@dataclass(frozen=True)
class PauliCoefficients:
    """Real expansion coefficients of a Hermitian 2x2 matrix over (I, sigma_x, sigma_y, sigma_z)."""

    m0: float
    mx: float
    my: float
    mz: float

    def reconstruct(self) -> np.ndarray:
        return pauli_matrix(self.m0, (self.mx, self.my, self.mz))

    def eigenvalue_pair(self) -> tuple[float, float]:
        """The two eigenvalues, centered about m0 with half-spread |(mx,my,mz)|."""
        r = math.hypot(self.mx, self.my, self.mz)
        return (self.m0 - r, self.m0 + r)


def pauli_decompose(m) -> PauliCoefficients:
    """Expand a Hermitian 2x2 matrix in the identity-plus-Pauli basis.

    The coefficients are unique and real; reconstruct() inverts the expansion.
    """
    a = as_matrix(m, dims=(2,))
    if not is_hermitian(a):
        raise HermiticityError("matrix is not Hermitian within tolerance")
    # halves first, so that the sum of two finite entries stays finite
    (p, q), (r, s) = (a / 2.0).tolist()
    return PauliCoefficients((p + s).real, (q + r).real, (r - q).imag, (p - s).real)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators (the only composite needed here)."""
    aa = as_matrix(a, dims=(2,))
    bb = as_matrix(b, dims=(2,))
    # np.kron's own broadcast product, without its general-shape set-up
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite((aa[:, None, :, None] * bb[None, :, None, :]).reshape(4, 4), "tensor product entries")


def commutator(a, b) -> np.ndarray:
    """ab - ba for two square matrices of equal dimension."""
    aa = as_matrix(a)
    bb = as_matrix(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"dimension mismatch: {aa.shape[0]} vs {bb.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(aa @ bb - bb @ aa, "commutator entries")
