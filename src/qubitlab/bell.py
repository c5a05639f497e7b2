"""Two-qubit Bell states: densities, joint measurement statistics, invariances.

Conventions: composite basis order (uu, ud, du, dd); Alice owns the first
factor, Bob the second. A coordinate plane "pq" has in-plane direction
cos(angle)*p_hat + sin(angle)*q_hat, so only relative in-plane angles enter
the correlations. The singlet anti-correlates at every angle; each triplet
correlates in its own symmetry plane. Marginals are uniform, so with
E(a, b) = sum_i s_i a_i b_i (s = pauli_signs), p(alpha, beta) = (1 + alpha*beta*E)/4.

Directions, joint tables and joint tallies are Python floats, ints and
tuples; this module imports numpy only in the densities and
`invariance_check`, and `sample_joint` draws through `measure.tally`. Arguments are
checked once: `joint_probabilities` and `closed_form_joint` build their table
with the unchecked `_joint`; a user's `JointProbabilities(...)` is checked in full.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    ATOL_EXACT, ConditioningError, DomainError, InvalidStateError, check_int, real_entries, real_number, unit_vector,
)
from .measure import _check_tally, tally

if TYPE_CHECKING:
    import numpy as np


class BellKind(enum.Enum):
    SINGLET = "singlet"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PHI_PLUS = "phi+"

    @classmethod
    def _missing_(cls, value):
        # raised from BellKind(value) as it is, being a ValueError
        raise DomainError(f"unknown Bell state {value!r} (want one of {', '.join(kind.value for kind in cls)})")

    @property
    def symmetry_plane(self) -> str:
        """Plane of correlated measurements, the axes of the +1 signs: 'all' for the singlet, which has none."""
        return "".join(axis for axis, s in zip("xyz", self.pauli_signs) if s > 0) or "all"

    @property
    def invariance_axis(self) -> str | None:
        """Axis whose common rotations leave the state fixed, a triplet's -1 sign (None = every axis)."""
        return None if self.is_singlet else "xyz"[self.pauli_signs.index(-1)]

    @property
    def pauli_signs(self) -> tuple[int, int, int]:
        """Signs of (sx sx, sy sy, sz sz) in the 4*rho expansion."""
        return _PAULI_SIGNS[self]

    @property
    def is_singlet(self) -> bool:
        return self is BellKind.SINGLET


# the one table: everything else about a kind is derived from its signs
_PAULI_SIGNS = {
    BellKind.SINGLET: (-1, -1, -1),
    BellKind.PSI_PLUS: (1, 1, -1),
    BellKind.PHI_MINUS: (-1, 1, 1),
    BellKind.PHI_PLUS: (1, -1, 1),
}


def _check_kind(kind) -> BellKind:
    """`kind` if it is a BellKind, else DomainError; a value string is not coerced."""
    if not isinstance(kind, BellKind):
        raise DomainError(f"Bell kind must be a BellKind, got {kind!r}")
    return kind


_PLANE_BASES = {
    "xy": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    "yz": ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "xz": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
}


def bell_vector(kind: BellKind) -> np.ndarray:
    """State vector in the z basis (uu, ud, du, dd): anti-correlated in z when sz = -1, with relative sign sx."""
    import numpy as np
    sx, _, sz = _check_kind(kind).pauli_signs
    return np.array((0, 1, sx, 0) if sz < 0 else (1, 0, 0, sx), dtype=complex) / math.sqrt(2)


@functools.cache  # the outer product of the derived amplitudes; tests hold it equal to the Pauli expansion
def _density(kind: BellKind) -> np.ndarray:
    import numpy as np
    v = bell_vector(kind)
    return np.outer(v, v.conj())


def bell_density(kind: BellKind) -> np.ndarray:
    """Projector onto the Bell state (a copy of the density built on first use)."""
    return _density(_check_kind(kind)).copy()


def _check_plane(plane) -> str:
    """`plane` if it is one of the plane strings 'xy', 'yz' and 'xz', else DomainError."""
    if not isinstance(plane, str) or plane not in _PLANE_BASES:
        raise DomainError(f"unknown plane {plane!r} (want one of xy, yz, xz)")
    return plane


def plane_direction(plane: str, angle: float) -> tuple[float, float, float]:
    """Unit vector at one `angle` in plane 'xy', 'yz' or 'xz', as a float 3-tuple."""
    bases = _PLANE_BASES[_check_plane(plane)]
    t = real_number(angle, "in-plane angle")
    c, s = math.cos(t), math.sin(t)
    return tuple(c * p + s * q for p, q in zip(*bases))


def resolve_plane(kind: BellKind, plane: str | None = None) -> str:
    """Check `plane` for `kind`; None picks the symmetry plane ('xz' for the singlet)."""
    kind = _check_kind(kind)
    if plane is None:
        return "xz" if kind.is_singlet else kind.symmetry_plane
    if kind.symmetry_plane not in ("all", _check_plane(plane)):
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
        ps = real_entries((self.p_pp, self.p_pm, self.p_mp, self.p_mm), "joint probabilities")
        self.__dict__.update(zip(("p_pp", "p_pm", "p_mp", "p_mm"), ps))
        low, total = min(ps), sum(ps)
        if low < -ATOL_EXACT:
            raise InvalidStateError(f"negative joint probability {low:.3e}")
        if not abs(total - 1.0) <= ATOL_EXACT:  # also catches NaN and inf entries
            raise InvalidStateError(f"joint probabilities sum to {total}, not 1")

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
        return _conditional_average((self.p_pp, self.p_pm, self.p_mp, self.p_mm), alice_outcome)


def _joint(like: float, unlike: float) -> JointProbabilities:
    """The table (like, unlike, unlike, like) of the engine's float cells, unchecked."""
    # they pass the check: unit vectors accepted within ATOL_EXACT give |E| <= 1 + 3e-12, so (1 +- E)/4 >= -1e-12,
    # and cos^2(theta/2)/2 and 0.5 minus it lie in [0, 0.5]; the four cells sum to 1 to a few ulps
    table = object.__new__(JointProbabilities)
    table.__dict__.update(p_pp=like, p_pm=unlike, p_mp=unlike, p_mm=like)  # one write, in field order
    return table


def _conditional_average(cells, outcome: int) -> float:
    """E[Bob | Alice] from the cells (pp, pm, mp, mm) of a joint table or a tally; a bool is no outcome."""
    if isinstance(outcome, bool) or not isinstance(outcome, numbers.Integral) or outcome not in (1, -1):
        raise DomainError(f"alice_outcome must be +1 or -1, got {outcome!r}")
    bob_plus, bob_minus = cells[:2] if outcome == 1 else cells[2:]
    weight = bob_plus + bob_minus
    if weight <= ATOL_EXACT:
        raise ConditioningError(f"Alice's outcome {outcome:+d} has zero weight")
    return (bob_plus - bob_minus) / weight


def joint_probabilities(kind: BellKind, a_dir, b_dir) -> JointProbabilities:
    """Joint outcome probabilities (1 + alice*bob*E)/4 for the four outcome pairs."""
    e = correlator(kind, a_dir, b_dir)
    like, unlike = (1.0 + e) / 4.0, (1.0 - e) / 4.0
    return _joint(like, unlike)


def correlator(kind: BellKind, a_dir, b_dir) -> float:
    """Expectation of the product of outcomes: E(a, b) = sum_i s_i a_i b_i."""
    a, b = unit_vector(a_dir, "Alice's direction"), unit_vector(b_dir, "Bob's direction")
    return correlate(_check_kind(kind).pauli_signs, a, b)


def correlate(signs, a, b) -> float:
    """sum_i s_i a_i b_i over the three components of two directions."""
    sx, sy, sz = signs
    return sx * a[0] * b[0] + sy * a[1] * b[1] + sz * a[2] * b[2]


def closed_form_joint(kind: BellKind, theta: float) -> JointProbabilities:
    """Symmetry-plane closed forms at relative angle theta.

    Triplets: like outcomes with probability cos^2(theta/2)/2 each, unlike
    sin^2(theta/2)/2 each; the singlet swaps the roles at every angle.
    """
    like = math.cos(real_number(theta, "relative angle") / 2.0) ** 2 / 2.0
    unlike = 0.5 - like
    return _joint(unlike, like) if _check_kind(kind).is_singlet else _joint(like, unlike)


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
    import numpy as np
    from .hilbert import tensor
    from .qubit import axis_vector, su2_rotation
    theta = real_number(theta, "rotation angle")
    u = su2_rotation(axis, theta)
    uu = tensor(u, u)
    rho = bell_density(kind)
    dev = float(np.max(np.abs(uu @ rho @ uu.conj().T - rho)))
    return InvarianceReport(kind, axis_vector(axis), theta, dev <= ATOL_EXACT, dev)


@dataclass(frozen=True)
class JointSample:
    """Seeded tally of joint outcomes: counts is a 2x2 tuple of ints indexed [alice][bob], 0 -> +1."""

    counts: tuple[tuple[int, int], tuple[int, int]]
    n: int
    seed: int

    def __post_init__(self):
        try:
            (pp, pm), (mp, mm) = self.counts
        except (TypeError, ValueError):
            raise DomainError(f"joint counts must be a 2x2 table, got {self.counts!r}") from None
        (pp, pm, mp, mm), n = _check_tally((pp, pm, mp, mm), self.n)
        object.__setattr__(self, "counts", ((pp, pm), (mp, mm)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))

    def conditional_mean(self, alice_outcome: int) -> float:
        """E[Bob's outcome | Alice's outcome] over the tallied trials."""
        return _conditional_average(self.counts[0] + self.counts[1], alice_outcome)


def sample_joint(kind: BellKind, a_dir, b_dir, n: int, seed: int) -> JointSample:
    """Draw n joint outcomes, the `measure.tally` of (p_pp, p_pm, p_mp, p_mm); draw i is a function of (seed, i)."""
    jp = joint_probabilities(kind, a_dir, b_dir)
    pp, pm, mp, mm = tally((jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm), n, seed)
    return JointSample(((pp, pm), (mp, mm)), n, seed)
