"""Behavior boxes: joint conditional distributions over two binary settings per side.

Setting labels map a -> x=0, a' -> x=1 (Alice) and b -> y=0, b' -> y=1 (Bob);
outcome index 0 is +1 and index 1 is -1 throughout. The module carries the
CHSH machinery, the local-deterministic bound by exhaustive enumeration, the
PR-box, no-signalling verification, and the conservation filter that rules
extremal boxes consistent or inconsistent with a single fixed spin direction
per setting label.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bell
from .errors import DomainError, InvalidStateError, check_finite, check_int
from .hilbert import ATOL_EXACT

OUTCOMES = (1, -1)
# largest tsirelson_scan grid: its three n x n float64 buffers stay near 400 MB
MAX_SCAN_N = 4096
ALICE_LABELS = ("a", "a'")
BOB_LABELS = ("b", "b'")


@dataclass(frozen=True)
class BehaviorBox:
    """p[x][y][i][j]: probability of outcomes (OUTCOMES[i], OUTCOMES[j]) at settings (x, y)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2, 2, 2):
            raise InvalidStateError(f"behavior box must have shape (2,2,2,2), got {p.shape}")
        if p.min() < -ATOL_EXACT:
            raise InvalidStateError(f"negative probability {p.min():.3e}")
        sums = p.sum(axis=(2, 3))
        if not np.max(np.abs(sums - 1.0)) <= ATOL_EXACT:  # also catches NaN and inf entries
            raise InvalidStateError("each setting pair must carry a normalized distribution")
        object.__setattr__(self, "p", p)

    def alice_marginal(self, x: int, y: int) -> float:
        """P(Alice = +1 | settings x, y)."""
        return float(self.p[x, y, 0, :].sum())

    def bob_marginal(self, x: int, y: int) -> float:
        """P(Bob = +1 | settings x, y)."""
        return float(self.p[x, y, :, 0].sum())

    def correlator(self, x: int, y: int) -> float:
        q = self.p[x, y]
        return float(q[0, 0] - q[0, 1] - q[1, 0] + q[1, 1])

    def correlators(self) -> np.ndarray:
        return np.array([[self.correlator(x, y) for y in (0, 1)] for x in (0, 1)])

    def to_json(self) -> str:
        """Serialize as {settings, outcomes, p row-major (x,y,a,b)}; floats round-trip exactly."""
        return json.dumps(
            {"settings": [2, 2], "outcomes": [1, -1], "p": self.p.reshape(-1).tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> BehaviorBox:
        obj = json.loads(text)
        if obj.get("settings") != [2, 2] or obj.get("outcomes") != [1, -1]:
            raise InvalidStateError("unrecognized behavior-box JSON header")
        flat = np.asarray(obj["p"], dtype=float)
        if flat.shape != (16,):
            raise InvalidStateError("behavior-box JSON must carry 16 probabilities")
        return cls(flat.reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class NoSignallingReport:
    passed: bool
    violations: tuple[str, ...]


def no_signalling_check(box: BehaviorBox, atol: float = ATOL_EXACT) -> NoSignallingReport:
    """Marginals of each party must not depend on the other party's setting."""
    violations = []
    for x in (0, 1):
        m0, m1 = box.alice_marginal(x, 0), box.alice_marginal(x, 1)
        if abs(m0 - m1) > atol:
            violations.append(
                f"Alice marginal at {ALICE_LABELS[x]} depends on Bob's setting: {m0} vs {m1}"
            )
    for y in (0, 1):
        m0, m1 = box.bob_marginal(0, y), box.bob_marginal(1, y)
        if abs(m0 - m1) > atol:
            violations.append(
                f"Bob marginal at {BOB_LABELS[y]} depends on Alice's setting: {m0} vs {m1}"
            )
    return NoSignallingReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ChshResult:
    """CHSH value maximized over the four one-minus-sign placements."""

    value: float
    correlators: np.ndarray
    minus_on: tuple[int, int]


def chsh_value(box: BehaviorBox) -> ChshResult:
    e = box.correlators()
    total = float(e.sum())
    best_value, best_pos = -math.inf, (0, 0)
    for pos in ((0, 0), (0, 1), (1, 0), (1, 1)):
        v = abs(total - 2.0 * float(e[pos]))
        if v > best_value:
            best_value, best_pos = v, pos
    return ChshResult(best_value, e, best_pos)


def deterministic_box(alice_outcomes, bob_outcomes) -> BehaviorBox:
    """Local deterministic strategy: fixed outcome per setting on each side."""
    a = tuple(alice_outcomes)
    b = tuple(bob_outcomes)
    if not (set(a) <= {1, -1} and set(b) <= {1, -1} and len(a) == len(b) == 2):
        raise DomainError("strategies assign +1 or -1 to each of the two settings")
    p = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product((0, 1), repeat=2):
        p[x, y, OUTCOMES.index(a[x]), OUTCOMES.index(b[y])] = 1.0
    return BehaviorBox(p)


@dataclass(frozen=True)
class LhvScanResult:
    """Exhaustive scan over the 16 local deterministic strategy pairs."""

    max_value: float
    best_alice: tuple[int, int]
    best_bob: tuple[int, int]
    n_strategies: int
    n_maximizers: int


def lhv_max_chsh() -> LhvScanResult:
    """Brute-force the CHSH maximum over all local deterministic strategies."""
    best, best_pair, hits, n = -math.inf, None, 0, 0
    for a in itertools.product(OUTCOMES, repeat=2):
        for b in itertools.product(OUTCOMES, repeat=2):
            n += 1
            v = chsh_value(deterministic_box(a, b)).value
            if v > best + ATOL_EXACT:
                best, best_pair, hits = v, (a, b), 1
            elif abs(v - best) <= ATOL_EXACT:
                hits += 1
    return LhvScanResult(best, best_pair[0], best_pair[1], n, hits)


def sign_pattern_box(signs) -> BehaviorBox:
    """Extremal correlation box: correlator signs[x][y] = +/-1, uniform marginals.

    Sign +1 puts probability 1/2 on each equal outcome pair, -1 on each
    unequal pair.
    """
    s = np.asarray(signs, dtype=int)
    if s.shape != (2, 2) or not set(s.reshape(-1).tolist()) <= {1, -1}:
        raise DomainError("signs must be a 2x2 array of +/-1")
    p = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product((0, 1), repeat=2):
        if s[x, y] == 1:
            p[x, y, 0, 0] = p[x, y, 1, 1] = 0.5
        else:
            p[x, y, 0, 1] = p[x, y, 1, 0] = 0.5
    return BehaviorBox(p)


def pr_box() -> BehaviorBox:
    """The extremal no-signalling box: equal outcomes except at settings (a', b')."""
    return sign_pattern_box([[1, 1], [1, -1]])


def extremal_sign_family() -> list[tuple[tuple[int, int, int, int], BehaviorBox]]:
    """All 16 extremal correlator sign patterns (s00, s01, s10, s11)."""
    family = []
    for signs in itertools.product((1, -1), repeat=4):
        family.append((signs, sign_pattern_box(np.array(signs).reshape(2, 2))))
    return family


def quantum_box(kind: bell.BellKind, a_dirs, b_dirs) -> BehaviorBox:
    """Behavior box of a Bell state measured along two directions per side."""
    if len(a_dirs) != 2 or len(b_dirs) != 2:
        raise DomainError("need exactly two measurement directions per side")
    return BehaviorBox(
        np.array([[bell.joint_probabilities(kind, a, b).as_array() for b in b_dirs] for a in a_dirs])
    )


@dataclass(frozen=True)
class ConservationVerdict:
    """Whether fixed spin directions per setting can satisfy an extremal box."""

    status: str  # "consistent" | "inconsistent" | "not_applicable"
    trace: tuple[str, ...]


def conservation_filter(box: BehaviorBox, atol: float = ATOL_EXACT) -> ConservationVerdict:
    """Treat each +/-1 correlator as equality/antipodality of setting directions.

    Only extremal boxes (all four correlators within atol of +/-1) are in
    scope. The edges a-b, a-b' and a'-b each reach a new direction, so they
    always fit; the cycle a'-b-a-b' then fixes a' = +/-b' by the product of
    their signs, and the box is inconsistent exactly when E(a',b') demands
    the other sign.
    """
    e = box.correlators()
    if np.max(np.abs(np.abs(e) - 1.0)) > atol:
        return ConservationVerdict(
            "not_applicable",
            ("box is not extremal: correlators " + np.array2string(e, precision=6) + " are not all +/-1",),
        )
    neg = e < 0  # rounding can leave |E| a hair below 1, so only the signs are read
    trace = [
        f"correlator E({ALICE_LABELS[x]},{BOB_LABELS[y]}) = {'-' if neg[x, y] else '+'}1 "
        f"says {ALICE_LABELS[x]} = {'-' if neg[x, y] else ''}{BOB_LABELS[y]}"
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    implied = "-" if neg[1, 0] ^ neg[0, 0] ^ neg[0, 1] else ""
    if neg[1, 1] == bool(implied):
        trace[-1] += f"; already implied (a' = {implied}b')"
        return ConservationVerdict("consistent", tuple(trace))
    trace[-1] += f"; but the chain so far implies a' = {implied}b', so some direction would equal its own antipode"
    return ConservationVerdict("inconsistent", tuple(trace))


@dataclass(frozen=True)
class TsirelsonScan:
    """Maximum CHSH over an in-plane grid of Bob angle pairs."""

    max_value: float
    best_b0: float
    best_b1: float
    n: int
    kind: bell.BellKind
    plane: str
    alice_angles: tuple[float, float]


def tsirelson_scan(
    kind: bell.BellKind = bell.BellKind.SINGLET,
    plane: str = "xz",
    n: int = 180,
    alice_angles: tuple[float, float] = (0.0, math.pi / 2.0),
) -> TsirelsonScan:
    """Scan Bob's two in-plane angles over an n-point grid (step pi/n).

    Alice's angles stay fixed. The 2n correlators E = sum_i s_i a_i b_i are one
    (2x3).(3xn) contraction, summed in bell.correlator's order; the CHSH value
    is maximized over sign placements at each grid pair in three n x n buffers.
    """
    n = check_int(n, "grid size n", 2, MAX_SCAN_N)
    if np.shape(check_finite(alice_angles, "Alice's angles")) != (2,):
        raise DomainError(f"need exactly two Alice angles, got {alice_angles!r}")
    plane = bell.resolve_plane(kind, plane)
    grid = np.arange(n) * (math.pi / n)
    a = bell.plane_direction(plane, alice_angles) * kind.pauli_signs  # [x, i]
    b = bell.plane_direction(plane, grid)  # [k, i]
    e = a[:, :1] * b[:, 0] + a[:, 1:2] * b[:, 1] + a[:, 2:] * b[:, 2]  # [x, k]
    s = e[0] + e[1]
    total = s[:, None] + s[None, :]  # [k0, k1]
    best = np.zeros_like(total)
    term = np.empty_like(total)
    for corr in (e[0][:, None], e[0][None, :], e[1][:, None], e[1][None, :]):
        np.subtract(total, 2.0 * corr, out=term)
        np.maximum(best, np.abs(term, out=term), out=best)
    k0, k1 = np.unravel_index(int(best.argmax()), best.shape)
    return TsirelsonScan(
        float(best[k0, k1]), float(grid[k0]), float(grid[k1]), n, kind, plane, tuple(alice_angles)
    )
