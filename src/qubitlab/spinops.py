"""Spin-1 measurement operators built from the diagonal one by embedded SU(2) blocks.

A rotation "about" a basis vector acts as exp(i*theta*sigma_j) on the
complementary 2-dim subspace and as identity on that vector. The composite is
assembled in rotated-frame order (V = U1 U2 U3); the steps taken about
post-transformed axes enter as inverse blocks. This is the one structurally
uniform reading of the construction recipe that reproduces the printed
L_x and L_y exactly; the test suite holds the printed matrices as its oracle.
Units hbar = 1: eigenvalues are {+1, 0, -1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ATOL_EXACT, DomainError
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, MatrixRecord, _finite, as_matrix
from .qubit import su2_rotation

LZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
LZ.flags.writeable = False

# basis order (u, 0, d); "about |k>" acts on the two remaining basis vectors
_COMPLEMENT = {"u": (1, 2), "0": (0, 2), "d": (0, 1)}

# (pauli axis, theta degrees, fixed basis vector) per step
_LX_SEQUENCE = (("x", 90.0, "d"), ("x", 45.0, "u"), ("x", -45.0, "0"))
_LY_SEQUENCE = (("x", -90.0, "d"), ("x", 45.0, "u"), ("y", 45.0, "0"))


def embedded_su2(pauli_axis: str, theta_deg: float, fixed: str) -> np.ndarray:
    """exp(i*theta*sigma_j) on the 2-dim subspace complementary to `fixed`."""
    u = np.eye(3, dtype=complex)
    u[np.ix_(_COMPLEMENT[fixed], _COMPLEMENT[fixed])] = su2_rotation(pauli_axis, math.radians(theta_deg))
    return u


def _construct_from_lz(sequence) -> np.ndarray:
    """V LZ V^dagger for V = U1 U2^dagger U3^dagger, U_k = embedded_su2(*sequence[k])."""
    v = np.eye(3, dtype=complex)
    for k, step in enumerate(sequence):
        u = embedded_su2(*step)
        v = v @ (u if k == 0 else u.conj().T)
    return v @ LZ @ v.conj().T


def construct_lx_from_lz() -> np.ndarray:
    """Sequential-rotation construction of L_x (90 about |d>, 45 about |u>, -45 about |0>)."""
    return _construct_from_lz(_LX_SEQUENCE)


def construct_ly_from_lz() -> np.ndarray:
    """Sequential-rotation construction of L_y (-90 about |d>, 45 about |u>, 45 about |0>)."""
    return _construct_from_lz(_LY_SEQUENCE)


@dataclass(frozen=True, eq=False)
class SpinOperatorTriple(MatrixRecord):
    """The three mutually complementary spin-1 operators (units hbar = 1): read-only copies, compared by entries."""

    lx: np.ndarray
    ly: np.ndarray
    lz: np.ndarray

    def __post_init__(self):
        for name in ("lx", "ly", "lz"):
            m = as_matrix(getattr(self, name), dims=(3,)).copy()  # as_matrix may return the caller's own array
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @classmethod
    def canonical(cls) -> SpinOperatorTriple:
        return cls(construct_lx_from_lz(), construct_ly_from_lz(), LZ)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float


@dataclass(frozen=True)
class SpinTripleReport:
    """Outcome of the structural verification of a spin-operator triple."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


_S2 = 1.0 / math.sqrt(2)
# the visible Pauli blocks: lx upper and lower, ly upper and lower, lz corner
_BLOCK_TARGETS = np.stack((_S2 * SIGMA_X, _S2 * SIGMA_X, _S2 * SIGMA_Y, _S2 * SIGMA_Y, SIGMA_Z))
_NAMES = (
    "lx upper block = sigma_x/sqrt2", "lx lower block = sigma_x/sqrt2", "ly upper block = sigma_y/sqrt2",
    "ly lower block = sigma_y/sqrt2", "lz corner block = sigma_z", "[lx,ly] = i lz", "[ly,lz] = i lx", "[lz,lx] = i ly",
)


def _deviations(actual: np.ndarray, expected: np.ndarray) -> list[float]:
    """max |actual - expected| over each item of a stack."""
    return np.abs(actual - expected).max(axis=tuple(range(1, actual.ndim))).tolist()


def verify_pauli_embedding(triple: SpinOperatorTriple) -> SpinTripleReport:
    """Check the visible Pauli blocks, the cyclic commutators, and the spectra.

    Violations come back as failed checks in the report, never as exceptions.
    For lx and ly the overlapping upper/lower 2x2 blocks carry sigma_x/sqrt(2)
    and sigma_y/sqrt(2); for lz it is the corner block that carries sigma_z.
    """
    if not isinstance(triple, SpinOperatorTriple):
        raise DomainError(f"not a SpinOperatorTriple: {triple!r}")
    ops = np.stack((triple.lx, triple.ly, triple.lz))
    nxt = ops[[1, 2, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        comm = _finite(ops @ nxt - nxt @ ops, "commutator entries")  # [lx,ly], [ly,lz], [lz,lx]
        asymmetry = _deviations(ops, ops.conj().swapaxes(1, 2))
    blocks = np.stack((ops[0, :2, :2], ops[0, 1:, 1:], ops[1, :2, :2], ops[1, 1:, 1:], ops[2, ::2, ::2]))
    devs = _deviations(blocks, _BLOCK_TARGETS) + _deviations(comm, 1j * ops[[2, 0, 1]])
    hermitian = [d <= ATOL_EXACT for d in asymmetry]
    # eigvalsh returns each spectrum in ascending order
    spectra = iter(_deviations(np.linalg.eigvalsh(ops[hermitian]), np.array([-1.0, 0.0, 1.0])))
    devs += [next(spectra) if h else asym for h, asym in zip(hermitian, asymmetry)]
    names = _NAMES + tuple(f"l{a} spectrum = (-1, 0, +1)" if h else f"l{a} Hermitian" for a, h in zip("xyz", hermitian))
    return SpinTripleReport(tuple(CheckResult(name, dev <= ATOL_EXACT, dev) for name, dev in zip(names, devs)))
