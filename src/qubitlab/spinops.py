"""Spin-1 measurement operators built from the diagonal one by embedded SU(2) blocks.

A rotation "about" a basis vector acts as exp(i*theta*sigma_j) on the
complementary 2-dim subspace and as identity on that vector. The composite is
assembled in rotated-frame order (V = U1 U2 U3); the steps taken about
post-transformed axes enter as inverse blocks. This is the one structurally
uniform reading of the construction recipe that reproduces the target
matrices exactly, and the targets are what the suite asserts against.
Units hbar = 1: eigenvalues are {+1, 0, -1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ATOL_EXACT, SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix, commutator, is_hermitian
from .qubit import su2_rotation

LZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

LX_TARGET = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
LY_TARGET = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / math.sqrt(2)

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


@dataclass(frozen=True)
class SpinOperatorTriple:
    """The three mutually complementary spin-1 operators (units hbar = 1)."""

    lx: np.ndarray
    ly: np.ndarray
    lz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lx", as_matrix(self.lx, dims=(3,)))
        object.__setattr__(self, "ly", as_matrix(self.ly, dims=(3,)))
        object.__setattr__(self, "lz", as_matrix(self.lz, dims=(3,)))

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


def _check(name: str, actual: np.ndarray, expected: np.ndarray, atol=ATOL_EXACT) -> CheckResult:
    dev = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    return CheckResult(name, dev <= atol, dev)


def verify_pauli_embedding(triple: SpinOperatorTriple) -> SpinTripleReport:
    """Check the visible Pauli blocks, the cyclic commutators, and the spectra.

    Violations come back as failed checks in the report, never as exceptions.
    For lx and ly the overlapping upper/lower 2x2 blocks carry sigma_x/sqrt(2)
    and sigma_y/sqrt(2); for lz it is the corner block that carries sigma_z.
    """
    lx, ly, lz = triple.lx, triple.ly, triple.lz
    s = 1.0 / math.sqrt(2)
    upper = np.ix_((0, 1), (0, 1))
    lower = np.ix_((1, 2), (1, 2))
    corner = np.ix_((0, 2), (0, 2))
    checks = [
        _check("lx upper block = sigma_x/sqrt2", lx[upper], s * SIGMA_X),
        _check("lx lower block = sigma_x/sqrt2", lx[lower], s * SIGMA_X),
        _check("ly upper block = sigma_y/sqrt2", ly[upper], s * SIGMA_Y),
        _check("ly lower block = sigma_y/sqrt2", ly[lower], s * SIGMA_Y),
        _check("lz corner block = sigma_z", lz[corner], SIGMA_Z),
        _check("[lx,ly] = i lz", commutator(lx, ly), 1j * lz),
        _check("[ly,lz] = i lx", commutator(ly, lz), 1j * lx),
        _check("[lz,lx] = i ly", commutator(lz, lx), 1j * ly),
    ]
    for name, op in (("lx", lx), ("ly", ly), ("lz", lz)):
        if is_hermitian(op):  # eigvalsh returns the spectrum in ascending order
            checks.append(_check(f"{name} spectrum = (-1, 0, +1)", np.linalg.eigvalsh(op), np.array([-1.0, 0.0, 1.0])))
        else:
            checks.append(_check(f"{name} Hermitian", op, op.conj().T))
    return SpinTripleReport(tuple(checks))
