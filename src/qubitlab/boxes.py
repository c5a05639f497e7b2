"""Behavior boxes: joint conditional distributions over two binary settings per side.

Setting labels map a -> x=0, a' -> x=1 (Alice) and b -> y=0, b' -> y=1 (Bob);
outcome index 0 is +1 and index 1 is -1 throughout. The module carries the
CHSH machinery, the local-deterministic bound by exhaustive enumeration, the
PR-box, no-signalling verification, and the conservation filter that rules
extremal boxes consistent or inconsistent with a single fixed spin direction
per setting label.

A box is 16 Python floats in nested tuples, and every box built here comes
from the one rule in `_box`. The module runs on Python floats and imports no numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from . import bell
from .errors import (
    ATOL_EXACT, DomainError, InvalidStateError, check_atol, check_int, real_entries, real_number, unit_vector,
)

OUTCOMES = (1, -1)
# largest tsirelson_scan grid: tests check it equal to the full n x n evaluation up to here
MAX_SCAN_N = 4096
ALICE_LABELS = ("a", "a'")
BOB_LABELS = ("b", "b'")


@dataclass(frozen=True)
class BehaviorBox:
    """p[x][y][i][j]: probability of outcomes (OUTCOMES[i], OUTCOMES[j]) at settings (x, y)."""

    p: tuple

    def __post_init__(self):
        try:  # unpacking each table's two rows of two checks the inner shape
            p = tuple(tuple(((a, b), (c, d)) for (a, b), (c, d) in px) for px in self.p)
        except (TypeError, ValueError):
            p = ()
        if [len(px) for px in p] != [2, 2]:
            raise InvalidStateError("behavior box must be 2 x 2 x 2 x 2 real numbers")
        flat = [v for px in p for q in px for row in q for v in row]
        if set(map(type, flat)) != {float}:  # one type read per entry on the all-float path of `_box`
            flat = real_entries(flat, "behavior box entries")
            p = _nest(flat)
        if min(flat) < -ATOL_EXACT:
            raise InvalidStateError(f"negative probability {min(flat):.3e}")
        # also catches NaN and inf entries
        if not all(abs(sum(flat[k : k + 4]) - 1.0) <= ATOL_EXACT for k in (0, 4, 8, 12)):
            raise InvalidStateError("each setting pair must carry a normalized distribution")
        object.__setattr__(self, "p", p)

    def _table(self, x: int, y: int) -> tuple:
        return self.p[check_int(x, "Alice's setting x", 0, 1)][check_int(y, "Bob's setting y", 0, 1)]

    def alice_marginal(self, x: int, y: int) -> float:
        """P(Alice = +1 | settings x, y): the sum of her +1 row."""
        return sum(self._table(x, y)[0])

    def bob_marginal(self, x: int, y: int) -> float:
        """P(Bob = +1 | settings x, y): the sum of his +1 column."""
        return sum(row[0] for row in self._table(x, y))

    def correlator(self, x: int, y: int) -> float:
        return self.correlators()[check_int(x, "Alice's setting x", 0, 1)][check_int(y, "Bob's setting y", 0, 1)]

    def correlators(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return tuple(tuple(q[0][0] - q[0][1] - q[1][0] + q[1][1] for q in px) for px in self.p)

    def to_json(self) -> str:
        """Serialize as {settings, outcomes, p row-major (x,y,a,b)}; floats round-trip exactly."""
        flat = [v for px in self.p for q in px for row in q for v in row]
        return json.dumps({"settings": [2, 2], "outcomes": [1, -1], "p": flat})

    @classmethod
    def from_json(cls, text: str) -> BehaviorBox:
        try:
            obj = json.loads(text)
        except (RecursionError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise InvalidStateError(f"behavior-box JSON does not parse: {exc}") from None
        if not isinstance(obj, dict) or obj.get("settings") != [2, 2] or obj.get("outcomes") != [1, -1]:
            raise InvalidStateError("unrecognized behavior-box JSON header")
        flat = obj.get("p")
        if not isinstance(flat, list) or len(flat) != 16:
            raise InvalidStateError("behavior-box JSON must carry 16 probabilities")
        return cls(_nest(flat))


def _nest(flat) -> tuple:
    """16 probabilities, row-major (x, y, a, b), as the nested tables p[x][y][a][b]."""
    return tuple(
        tuple(((flat[k], flat[k + 1]), (flat[k + 2], flat[k + 3])) for k in (8 * x, 8 * x + 4))
        for x in (0, 1)
    )


def _check_box(box, atol: float = 0.0) -> tuple[BehaviorBox, float]:
    """The box and the tolerance, which must be one finite number >= 0, else DomainError."""
    if not isinstance(box, BehaviorBox):
        raise DomainError(f"not a BehaviorBox: {box!r}")
    return box, check_atol(atol)


def _box(alice, bob, corr) -> BehaviorBox:
    """The box with mean outcomes A = alice, B = bob and correlators E = corr, by the one rule.

    p(i, j | x, y) = (1 + i*A_x + j*B_y + i*j*E_xy)/4, written out for (i, j) = ++, +-, -+, --.
    """
    return BehaviorBox([
        [(((1 + a + b + e) / 4, (1 + a - b - e) / 4), ((1 - a + b - e) / 4, (1 - a - b + e) / 4))
         for b, e in zip(bob, row)]
        for a, row in zip(alice, corr)
    ])


@dataclass(frozen=True)
class NoSignallingReport:
    passed: bool
    violations: tuple[str, ...]


def no_signalling_check(box: BehaviorBox, atol: float = ATOL_EXACT) -> NoSignallingReport:
    """Marginals of each party must not depend on the other party's setting."""
    box, atol = _check_box(box, atol)
    violations = []
    for x in (0, 1):
        m0, m1 = box.alice_marginal(x, 0), box.alice_marginal(x, 1)
        if abs(m0 - m1) > atol:
            violations.append(f"Alice marginal at {ALICE_LABELS[x]} depends on Bob's setting: {m0} vs {m1}")
    for y in (0, 1):
        m0, m1 = box.bob_marginal(0, y), box.bob_marginal(1, y)
        if abs(m0 - m1) > atol:
            violations.append(f"Bob marginal at {BOB_LABELS[y]} depends on Alice's setting: {m0} vs {m1}")
    return NoSignallingReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ChshResult:
    """CHSH value maximized over the four one-minus-sign placements."""

    value: float
    correlators: tuple[tuple[float, float], tuple[float, float]]
    minus_on: tuple[int, int]


def _chsh(e) -> tuple:
    """ChshResult's fields for a 2x2 correlator table e[x][y]: the value, e, and the (x, y) of the minus sign."""
    total = e[0][0] + e[0][1] + e[1][0] + e[1][1]
    values = [abs(total - 2.0 * v) for row in e for v in row]  # row-major (x, y)
    k = values.index(max(values))  # the first of equal maxima
    return values[k], e, divmod(k, 2)


def chsh_value(box: BehaviorBox) -> ChshResult:
    return ChshResult(*_chsh(_check_box(box)[0].correlators()))


def deterministic_box(alice_outcomes, bob_outcomes) -> BehaviorBox:
    """Local deterministic strategy: fixed outcome per setting on each side."""
    try:
        a, b = tuple(alice_outcomes), tuple(bob_outcomes)
        ok = set(a) <= {1, -1} and set(b) <= {1, -1} and len(a) == len(b) == 2
    except TypeError:  # None, or an unhashable outcome
        ok = False
    if not ok:
        raise DomainError("strategies assign +1 or -1 to each of the two settings")
    return _box(a, b, [[ax * by for by in b] for ax in a])


@dataclass(frozen=True)
class LhvScanResult:
    """Exhaustive scan over the 16 local deterministic strategy pairs."""

    max_value: float
    best_alice: tuple[int, int]
    best_bob: tuple[int, int]
    n_strategies: int
    n_maximizers: int


def lhv_max_chsh() -> LhvScanResult:
    """Brute-force the CHSH maximum over the correlator tables E_xy = a_x * b_y of the deterministic strategies."""
    pairs = list(itertools.product(itertools.product(OUTCOMES, repeat=2), repeat=2))
    values = [_chsh([[ax * by for by in b] for ax in a])[0] for a, b in pairs]
    best = max(values)
    hits = [pair for pair, v in zip(pairs, values) if abs(v - best) <= ATOL_EXACT]
    return LhvScanResult(best, *hits[0], len(pairs), len(hits))


def sign_pattern_box(signs) -> BehaviorBox:
    """Extremal correlation box: correlator signs[x][y] = +/-1, uniform marginals.

    Sign +1 puts probability 1/2 on each equal outcome pair, -1 on each
    unequal pair.
    """
    try:
        signed = [[v in (1, -1) for v in row] for row in signs] == [[True, True], [True, True]]
    except TypeError:  # not nested two levels deep
        signed = False
    if not signed:
        raise DomainError("signs must be a 2x2 array of +/-1")
    return _box((0, 0), (0, 0), signs)


def pr_box() -> BehaviorBox:
    """The extremal no-signalling box: equal outcomes except at settings (a', b')."""
    return sign_pattern_box([[1, 1], [1, -1]])


def quantum_box(kind: bell.BellKind, a_dirs, b_dirs) -> BehaviorBox:
    """Behavior box of a Bell state measured along two directions per side."""
    try:
        (a0, a1), (b0, b1) = a_dirs, b_dirs
    except (TypeError, ValueError):  # None, or not two directions
        raise DomainError("need exactly two measurement directions per side") from None
    a = [unit_vector(d, "Alice's direction") for d in (a0, a1)]
    b = [unit_vector(d, "Bob's direction") for d in (b0, b1)]
    signs = bell._check_kind(kind).pauli_signs
    return _box((0, 0), (0, 0), [[bell.correlate(signs, ax, by) for by in b] for ax in a])


@dataclass(frozen=True)
class ConservationVerdict:
    """Whether fixed spin directions per setting can satisfy an extremal box."""

    status: str  # "consistent" | "inconsistent" | "not_applicable"
    trace: tuple[str, ...]


def _places(v: float) -> int:
    """numpy's fraction digits for v in scientific form at precision 6: the fewer of its repr's and trimmed .6e's."""
    shortest = len(repr(v).lstrip("-").split("e")[0].replace(".", "").strip("0")) - 1
    rounded = f"{v:.6e}".split("e")[0].rstrip("0")
    return min(shortest, len(rounded) - rounded.index(".") - 1)


def _table_text(e) -> str:
    """np.array2string(np.array(e), precision=6) of a 2x2 table of correlators, byte for byte, without numpy.

    numpy's rules for finite |v| < 1e8: scientific form when the smallest nonzero |v| < 1e-4 or
    the largest over it > 1e3, each value then printed to the most fraction digits any value needs
    and each exponent padded to the widest; else each value rounded to 6 fraction digits,
    trailing zeros trimmed, whole parts right- and fractions left-justified.
    """
    flat = [v for row in e for v in row]
    mags = [abs(v) for v in flat if v]
    if mags and (min(mags) < 1e-4 or max(mags) / min(mags) > 1e3):
        p = max(map(_places, flat))
        mant, exp = zip(*(f"{v:#.{p}e}".split("e") for v in flat))
        width = max(map(len, exp)) - 1
        texts = [m.rjust(max(map(len, mant))) + "e" + x[0] + x[1:].zfill(width) for m, x in zip(mant, exp)]
    else:
        whole, frac = zip(*(f"{v:.6f}".rstrip("0").split(".") for v in flat))
        texts = [w.rjust(max(map(len, whole))) + "." + f.ljust(max(map(len, frac))) for w, f in zip(whole, frac)]
    return "[[{} {}]\n [{} {}]]".format(*texts)


def conservation_filter(box: BehaviorBox, atol: float = ATOL_EXACT) -> ConservationVerdict:
    """Treat each +/-1 correlator as equality/antipodality of setting directions.

    Only extremal boxes (all four correlators within atol of +/-1) are in
    scope. The edges a-b, a-b' and a'-b each reach a new direction, so they
    always fit; the cycle a'-b-a-b' then fixes a' = +/-b' by the product of
    their signs, and the box is inconsistent exactly when E(a',b') demands
    the other sign.
    """
    box, atol = _check_box(box, atol)
    e = box.correlators()
    if max(abs(abs(v) - 1.0) for row in e for v in row) > atol:
        return ConservationVerdict(
            "not_applicable", (f"box is not extremal: correlators {_table_text(e)} are not all +/-1",)
        )
    neg = [[v < 0 for v in row] for row in e]  # rounding can leave |E| a hair below 1, so only the signs are read
    trace = [
        f"correlator E({ALICE_LABELS[x]},{BOB_LABELS[y]}) = {'-' if neg[x][y] else '+'}1 "
        f"says {ALICE_LABELS[x]} = {'-' if neg[x][y] else ''}{BOB_LABELS[y]}"
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    implied = "-" if neg[1][0] ^ neg[0][0] ^ neg[0][1] else ""
    if neg[1][1] == bool(implied):
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
    """Scan Bob's two in-plane angles over an n-point grid (step pi/n); Alice's angles stay fixed.

    With s = E_a + E_a', each sign placement's term is f(k0) + g(k1) (f = s - 2 E_a, g = s for the
    minus on E_a at k0). As E = sigma*cos(a - b) in the plane, each part +/-s, +/-(s - 2 E_a) and
    +/-(s - 2 E_a') is R*cos(theta - phi), with phi = mu + j*pi/2 for Alice's mean angle mu and
    R = 2|cos(Delta/2)| or 2|sin(Delta/2)| for Delta = a' - a. Unless some R < 1e-4, the grid points
    within 1e-12 of a part's top lie next to a phi or at an end, and only those are evaluated.
    """
    n = check_int(n, "grid size n", 2, MAX_SCAN_N)
    try:
        a0, a1 = alice_angles
    except (TypeError, ValueError):  # None, a number, or not two angles
        raise DomainError(f"need exactly two Alice angles, got {alice_angles!r}") from None
    angles = (real_number(a0, "Alice's angle"), real_number(a1, "Alice's angle"))
    plane, step = bell.resolve_plane(kind, plane), math.pi / n
    # each angle in (-pi, pi] from its own cosine and sine: exact where a remainder by 2 pi is not
    t0, t1 = (math.atan2(math.sin(t), math.cos(t)) for t in angles)
    half, ks = (t1 - t0) / 2.0, range(n)
    if 2.0 * min(abs(math.cos(half)), abs(math.sin(half))) >= 1e-4:  # else a part is too flat to skip a point
        lows = [math.floor((t0 + half + j * math.pi / 2.0) % math.tau / step) for j in range(4)]
        ks = sorted({k for k in (0, 1, n - 2, n - 1, *(lo + d for lo in lows for d in (-1, 0, 1, 2))) if 0 <= k < n})
    a = [bell.plane_direction(plane, t) for t in angles]
    b = [bell.plane_direction(plane, k * step) for k in ks]
    signs = kind.pauli_signs
    e0, e1 = ([bell.correlate(signs, ax, bk) for bk in b] for ax in a)
    s = [x + y for x, y in zip(e0, e1)]
    rows = [[x - 2.0 * y for x, y in zip(s, e0)], [x - 2.0 * y for x, y in zip(s, e1)], s]
    rows += [[-v for v in row] for row in rows]  # every part f or g: +/-(s - 2 E_a), +/-(s - 2 E_a'), +/-s
    top = [max(row) for row in rows]
    at_top = [tuple(i for i, v in enumerate(row) if v >= t - 1e-12) for row, t in zip(rows, top)]
    # (row of f, row of g) per placement: the minus on E_x at k0, then at k1, each with the sign + then -
    parts = [(f + m, g + m) for x in (0, 1) for f, g in ((x, 2), (2, x)) for m in (0, 3)]
    peak = max(top[f] + top[g] for f, g in parts)
    blocks = {(at_top[f], at_top[g]) for f, g in parts if top[f] + top[g] >= peak - 1e-12}  # a shared block runs once
    value, k0, k1 = max(  # the largest value, then the first row-major grid pair
        (max(abs(t - 2.0 * e0[i]), abs(t - 2.0 * e1[i]), abs(t - 2.0 * e0[j]), abs(t - 2.0 * e1[j])), -ks[i], -ks[j])
        for i0, j0 in blocks for i in i0 for j in j0 for t in (s[i] + s[j],)
    )
    return TsirelsonScan(value, -k0 * step, -k1 * step, n, kind, plane, angles)
