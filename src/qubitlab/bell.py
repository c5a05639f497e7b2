"""Two-qubit Bell states: densities, joint measurement statistics, invariances.

Conventions: composite basis order (uu, ud, du, dd); Alice owns the first
factor, Bob the second. A coordinate plane "pq" has in-plane direction
cos(angle)*p_hat + sin(angle)*q_hat, so only relative in-plane angles enter
the correlations. The singlet anti-correlates at every angle; each triplet
correlates in its own symmetry plane. Marginals are uniform, so with
E(a, b) = sum_i s_i a_i b_i (s = pauli_signs), p(alpha, beta) = (1 + alpha*beta*E)/4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, InvalidStateError, check_finite, check_int
from .hilbert import ATOL_EXACT, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor, unit_vector
from .measure import MAX_TRIALS
from .qubit import axis_vector, su2_rotation
from .rng import uniform_blocks

ID4 = np.eye(4, dtype=complex)


class BellKind(enum.Enum):
    SINGLET = "singlet"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PHI_PLUS = "phi+"

    @property
    def symmetry_plane(self) -> str:
        """Plane of correlated measurements: 'all' for the singlet."""
        return _PLANES[self]

    @property
    def invariance_axis(self) -> str | None:
        """Axis whose common rotations leave the state fixed (None = every axis)."""
        return _INVARIANCE_AXES[self]

    @property
    def pauli_signs(self) -> tuple[int, int, int]:
        """Signs of (sx sx, sy sy, sz sz) in the 4*rho expansion."""
        return _PAULI_SIGNS[self]

    @property
    def is_singlet(self) -> bool:
        return self is BellKind.SINGLET


_PLANES = {
    BellKind.SINGLET: "all",
    BellKind.PSI_PLUS: "xy",
    BellKind.PHI_MINUS: "yz",
    BellKind.PHI_PLUS: "xz",
}
_INVARIANCE_AXES = {
    BellKind.SINGLET: None,
    BellKind.PSI_PLUS: "z",
    BellKind.PHI_MINUS: "x",
    BellKind.PHI_PLUS: "y",
}
_PAULI_SIGNS = {
    BellKind.SINGLET: (-1, -1, -1),
    BellKind.PSI_PLUS: (1, 1, -1),
    BellKind.PHI_MINUS: (-1, 1, 1),
    BellKind.PHI_PLUS: (1, -1, 1),
}
_VECTORS = {
    BellKind.SINGLET: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
}

_PLANE_BASES = {
    "xy": (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
    "yz": (np.array([0, 1.0, 0]), np.array([0, 0, 1.0])),
    "xz": (np.array([1.0, 0, 0]), np.array([0, 0, 1.0])),
}


def bell_vector(kind: BellKind) -> np.ndarray:
    """State vector in the z basis (uu, ud, du, dd)."""
    return _VECTORS[kind].copy()


def pauli_expansion(kind: BellKind) -> np.ndarray:
    """Density matrix assembled from its identity-plus-correlator expansion."""
    sx, sy, sz = kind.pauli_signs
    return (
        ID4
        + sx * tensor(SIGMA_X, SIGMA_X)
        + sy * tensor(SIGMA_Y, SIGMA_Y)
        + sz * tensor(SIGMA_Z, SIGMA_Z)
    ) / 4.0


def _checked_density(kind: BellKind) -> np.ndarray:
    v = _VECTORS[kind]
    rho = np.outer(v, v.conj())
    dev = float(np.max(np.abs(rho - pauli_expansion(kind))))
    if dev > ATOL_EXACT:
        raise RuntimeError(f"Bell density inconsistent with its Pauli expansion ({dev:.3e})")
    return rho


# built and cross-checked against the Pauli expansions once, at import
_DENSITIES = {kind: _checked_density(kind) for kind in BellKind}


def bell_density(kind: BellKind) -> np.ndarray:
    """Projector onto the Bell state (a copy of the import-time checked density)."""
    return _DENSITIES[kind].copy()


def measurement_operator(direction) -> np.ndarray:
    """Spin component along a unit direction: a.sigma, eigenvalues +1/-1."""
    a = unit_vector(direction, "measurement direction")
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (I +/- a.sigma)/2 of the direction's spin operator."""
    op = measurement_operator(direction)
    return (ID2 + op) / 2.0, (ID2 - op) / 2.0


def plane_direction(plane: str, angle) -> np.ndarray:
    """Unit vector(s) at `angle` (a scalar or an array) in coordinate plane 'xy', 'yz' or 'xz'."""
    if plane not in _PLANE_BASES:
        raise DomainError(f"unknown plane {plane!r} (want one of xy, yz, xz)")
    e1, e2 = _PLANE_BASES[plane]
    t = np.asarray(check_finite(angle, "in-plane angle"))[..., None]
    return np.cos(t) * e1 + np.sin(t) * e2


def resolve_plane(kind: BellKind, plane: str | None = None) -> str:
    """Check `plane` for `kind`; None picks the symmetry plane ('xz' for the singlet)."""
    if plane is None:
        return "xz" if kind.is_singlet else kind.symmetry_plane
    if kind.symmetry_plane not in ("all", plane):
        raise DomainError(f"{kind.value} correlates in plane {kind.symmetry_plane}, not {plane}")
    return plane


@dataclass(frozen=True)
class JointProbabilities:
    """Joint outcome distribution p(alice, bob) over {+1, -1} x {+1, -1}."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        ps = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if min(ps) < -ATOL_EXACT:
            raise InvalidStateError(f"negative joint probability {min(ps):.3e}")
        if not abs(sum(ps) - 1.0) <= ATOL_EXACT:  # also catches NaN and inf entries
            raise InvalidStateError(f"joint probabilities sum to {sum(ps)}, not 1")

    def as_array(self) -> np.ndarray:
        """2x2 array indexed [alice][bob] with index 0 -> +1, 1 -> -1."""
        return np.array([[self.p_pp, self.p_pm], [self.p_mp, self.p_mm]])

    @property
    def correlator(self) -> float:
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm

    @property
    def alice_marginal_plus(self) -> float:
        return self.p_pp + self.p_pm

    @property
    def bob_marginal_plus(self) -> float:
        return self.p_pp + self.p_mp

    def conditional_average(self, alice_outcome: int) -> float:
        """E[Bob's outcome | Alice's outcome]."""
        if alice_outcome == 1:
            weight, signed = self.p_pp + self.p_pm, self.p_pp - self.p_pm
        elif alice_outcome == -1:
            weight, signed = self.p_mp + self.p_mm, self.p_mp - self.p_mm
        else:
            raise DomainError(f"alice_outcome must be +1 or -1, got {alice_outcome!r}")
        if weight <= ATOL_EXACT:
            raise ConditioningError(f"conditioning outcome {alice_outcome:+d} has zero probability")
        return signed / weight


def joint_probabilities(kind: BellKind, a_dir, b_dir) -> JointProbabilities:
    """Joint outcome probabilities (1 + alice*bob*E)/4 for the four outcome pairs."""
    e = correlator(kind, a_dir, b_dir)
    like, unlike = (1.0 + e) / 4.0, (1.0 - e) / 4.0
    return JointProbabilities(like, unlike, unlike, like)


def correlator(kind: BellKind, a_dir, b_dir) -> float:
    """Expectation of the product of outcomes: E(a, b) = sum_i s_i a_i b_i."""
    a = unit_vector(a_dir, "Alice's direction")
    b = unit_vector(b_dir, "Bob's direction")
    sx, sy, sz = kind.pauli_signs
    return float(sx * a[0] * b[0] + sy * a[1] * b[1] + sz * a[2] * b[2])


def closed_form_joint(kind: BellKind, theta: float) -> JointProbabilities:
    """Symmetry-plane closed forms at relative angle theta.

    Triplets: like outcomes with probability cos^2(theta/2)/2 each, unlike
    sin^2(theta/2)/2 each; the singlet swaps the roles at every angle.
    """
    like = math.cos(theta / 2.0) ** 2 / 2.0
    unlike = 0.5 - like
    if kind.is_singlet:
        return JointProbabilities(unlike, like, like, unlike)
    return JointProbabilities(like, unlike, unlike, like)


def conditional_average(kind: BellKind, a_dir, b_dir, alice_outcome: int) -> float:
    """E[Bob | Alice]: cos(theta) in a triplet's plane, -cos(theta) for the singlet."""
    return joint_probabilities(kind, a_dir, b_dir).conditional_average(alice_outcome)


@dataclass(frozen=True)
class InvarianceReport:
    """Result of conjugating a Bell density by a common single-qubit rotation."""

    kind: BellKind
    axis: tuple[float, float, float]
    theta: float
    invariant: bool
    max_deviation: float


def invariance_check(kind: BellKind, axis, theta: float) -> InvarianceReport:
    """Compare (U x U) rho (U x U)^dagger against rho for U = exp(i*theta*n.sigma)."""
    u = su2_rotation(axis, theta)
    uu = tensor(u, u)
    rho = bell_density(kind)
    dev = float(np.max(np.abs(uu @ rho @ uu.conj().T - rho)))
    n = axis_vector(axis)
    return InvarianceReport(kind, (n[0], n[1], n[2]), theta, dev <= ATOL_EXACT, dev)


@dataclass(frozen=True)
class JointSample:
    """Seeded tally of joint outcomes; counts indexed [alice][bob], 0 -> +1."""

    counts: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (2, 2) or (c < 0).any() or c.sum() != self.n:
            raise DomainError("joint counts must be a nonnegative 2x2 table summing to the number of trials")

    def conditional_mean(self, alice_outcome: int) -> float:
        row = self.counts[0] if alice_outcome == 1 else self.counts[1]
        total = int(row.sum())
        if total == 0:
            raise ConditioningError(f"no samples with Alice outcome {alice_outcome:+d}")
        return (int(row[0]) - int(row[1])) / total


def sample_joint(kind: BellKind, a_dir, b_dir, n: int, seed: int) -> JointSample:
    """Draw n joint outcomes; draw i is a pure function of (seed, i).

    Uniform draw u falls in cell k (order pp, pm, mp, mm) when
    edges[k-1] <= u < edges[k] for the running sums `edges` of p_pp, p_pm,
    p_mp. The last cell takes every draw at or above edges[2], so the counts
    sum to n even where the float sum of the four probabilities is below 1.
    """
    n = check_int(n, "trial count", 1, MAX_TRIALS)
    jp = joint_probabilities(kind, a_dir, b_dir)
    edges = np.cumsum([jp.p_pp, jp.p_pm, jp.p_mp])
    below = [0, 0, 0]  # draws below each edge
    for u in uniform_blocks(seed, n):
        for k, edge in enumerate(edges):
            below[k] += int(np.count_nonzero(u < edge))
    return JointSample(np.diff([0, *below, n]).reshape(2, 2), n, seed)
