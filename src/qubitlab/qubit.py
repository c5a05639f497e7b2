"""Qubit (Bloch ball) and classical-bit (1-simplex) state spaces.

Rotation convention, fixed here once and verified numerically in the test
suite: the Hilbert-space transformation U = exp(i*theta*sigma_j) moves the
Bloch vector by the real-space angle -2*theta about axis j under the
right-hand rule. Real-space angles are twice Hilbert-space angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ATOL_EXACT, DomainError, HermiticityError, InvalidStateError, check_int, real_3vector, real_number
from .hilbert import as_matrix, pauli_decompose, pauli_matrix

# classification tolerance for pure/mixed, looser than exact algebra since
# states may come out of long rotation chains
PURITY_ATOL = 1e-9
# largest generalized-bit s: 2**s - 1 is exact int arithmetic, and this keeps it to 8 KiB
MAX_GBIT_S = 2**16
# most interior points of classical_pure_path: one ClassicalBitState object per point
MAX_PATH_STEPS = 2**16

_AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


def axis_vector(axis) -> np.ndarray:
    """Resolve 'x'/'y'/'z' or a nonzero 3-vector to a unit axis."""
    if isinstance(axis, str):
        if axis not in _AXES:
            raise DomainError(f"unknown axis name {axis!r}")
        return _AXES[axis].copy()
    v = real_3vector(axis, "axis")
    n = math.hypot(*v)  # no overflow or underflow for a finite, nonzero axis
    if n == 0.0 or not math.isfinite(n):
        raise DomainError("axis vector must be nonzero and finite")
    return np.array(v) / n


@dataclass(frozen=True)
class QubitState:
    """A qubit density matrix rho = m0*I + m.sigma, validated and read through its Pauli expansion."""

    rho: np.ndarray

    def __post_init__(self):
        rho = as_matrix(self.rho, dims=(2,))
        try:
            c = pauli_decompose(rho)
        except HermiticityError:
            raise InvalidStateError("density matrix must be Hermitian") from None
        if not abs(2.0 * c.m0 - 1.0) <= ATOL_EXACT:
            raise InvalidStateError(f"density matrix trace must be 1, got {2.0 * c.m0}")
        lo = c.eigenvalue_pair()[0]
        if lo < -ATOL_EXACT:
            raise InvalidStateError(f"density matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_bloch(cls, bloch) -> QubitState:
        r = real_3vector(bloch, "Bloch vector")
        norm = math.hypot(*r)
        if not math.isfinite(norm):
            raise DomainError(f"Bloch vector must be finite, got {bloch!r}")
        if norm > 1.0 + ATOL_EXACT:
            raise InvalidStateError("Bloch vector lies outside the unit ball")
        return cls(pauli_matrix(0.5, [x / 2.0 for x in r]))

    @classmethod
    def up(cls) -> QubitState:
        return cls.from_bloch([0.0, 0.0, 1.0])

    @classmethod
    def down(cls) -> QubitState:
        return cls.from_bloch([0.0, 0.0, -1.0])

    @classmethod
    def maximally_mixed(cls) -> QubitState:
        return cls.from_bloch([0.0, 0.0, 0.0])

    @property
    def bloch(self) -> np.ndarray:
        """The Pauli coefficients m of rho, times 2."""
        c = pauli_decompose(self.rho)
        return np.array([2.0 * c.mx, 2.0 * c.my, 2.0 * c.mz])

    @property
    def purity(self) -> float:
        """tr(rho^2) = 2(m0^2 + |m|^2)."""
        c = pauli_decompose(self.rho)
        return 2.0 * (c.m0**2 + c.mx**2 + c.my**2 + c.mz**2)

    @property
    def is_pure(self) -> bool:
        # purity 1 <=> |bloch| = 1 <=> rank-1 projector
        return abs(self.purity - 1.0) <= PURITY_ATOL


def bloch_roundtrip(state: QubitState) -> QubitState:
    """Rebuild the state from its Bloch vector (density -> Bloch -> density)."""
    if not isinstance(state, QubitState):
        raise DomainError(f"not a QubitState: {state!r}")
    return QubitState.from_bloch(state.bloch)


def su2_rotation(axis, theta: float) -> np.ndarray:
    """U = exp(i*theta * n.sigma) for a named axis or arbitrary axis vector."""
    theta = real_number(theta, "rotation angle")
    return pauli_matrix(math.cos(theta), 1j * math.sin(theta) * axis_vector(axis))


def su2_rotate(state: QubitState, axis, theta: float) -> QubitState:
    """Conjugate the state: U rho U^dagger with U = exp(i*theta * n.sigma)."""
    if not isinstance(state, QubitState):
        raise DomainError(f"not a QubitState: {state!r}")
    u = su2_rotation(axis, theta)
    return QubitState(u @ state.rho @ u.conj().T)


def so3_rotation(axis, angle: float) -> np.ndarray:
    """Right-handed real-space rotation matrix about `axis` by `angle` (Rodrigues)."""
    angle = real_number(angle, "rotation angle")
    n = axis_vector(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def bloch_rotation_for(axis, theta: float) -> np.ndarray:
    """The SO(3) rotation that su2_rotate(., axis, theta) induces on Bloch vectors."""
    return so3_rotation(axis, -2.0 * real_number(theta, "rotation angle"))


def gbit_dimension(s: int) -> int:
    """Probability-space dimension 2**s - 1 of the generalized bit."""
    return 2 ** check_int(s, "gbit s", 1, MAX_GBIT_S) - 1


@dataclass(frozen=True)
class ClassicalBitState:
    """One ball over two boxes: the whole state is the probability of box 1."""

    p1: float

    def __post_init__(self):
        p1 = real_number(self.p1, "p1")
        if not (0.0 <= p1 <= 1.0):
            raise InvalidStateError(f"p1 must lie in [0, 1], got {p1}")
        object.__setattr__(self, "p1", p1)

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    @property
    def is_pure(self) -> bool:
        return self.p1 in (0.0, 1.0)


def classical_pure_path(
    a: ClassicalBitState, b: ClassicalBitState, steps: int
) -> list[ClassicalBitState]:
    """The unique continuous path between distinct pure bit states.

    `steps` counts interior points; the path is linear in p1 and every
    interior point is mixed, which is the whole point of exposing it.
    """
    if not all(isinstance(x, ClassicalBitState) and x.is_pure for x in (a, b)):
        raise DomainError("path endpoints must be pure classical bit states")
    if a.p1 == b.p1:
        raise DomainError("path endpoints must differ")
    ps = np.linspace(a.p1, b.p1, check_int(steps, "interior step count", 1, MAX_PATH_STEPS) + 2)
    return [ClassicalBitState(float(p)) for p in ps]
