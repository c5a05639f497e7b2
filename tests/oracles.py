"""Slow general forms and second constructions that the library does not need, kept as references for tests."""

import functools
import itertools
import json
import math

import numpy as np

from qubitlab import bell
from qubitlab.boxes import OUTCOMES, LhvScanResult, TsirelsonScan, chsh_value, deterministic_box, sign_pattern_box
from qubitlab.errors import ATOL_EXACT, DomainError, check_int, unit_vector
from qubitlab.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, commutator, is_hermitian
from qubitlab.measure import MAX_TRIALS, SGSetup, projection_probabilities
from qubitlab.quoin import (
    CHIPS_START,
    DEFAULT_LANES,
    MAX_GAMES,
    MAX_LANES,
    STREAM_DEAL,
    STREAM_MECH,
    STREAM_STRATEGY,
    ClassicalBitsStrategy,
    GameRecord,
    MonteCarloSummary,
    QuoinMechanics,
    QuoinStrategy,
    RandomStrategy,
    lane_bits,
    parity_name,
    popcount,
)
from qubitlab.rng import draws
from qubitlab.spinops import CheckResult, SpinOperatorTriple, SpinTripleReport

# the 2x2 identity, which the library never needs as a name
ID2 = np.eye(2, dtype=complex)


def pauli_expansion(kind: bell.BellKind) -> np.ndarray:
    """A Bell density from its correlation signs s as the paper writes it: 4 rho = I + sum_i s_i sigma_i(x)sigma_i."""
    return (np.eye(4) + sum(s * np.kron(p, p) for s, p in zip(kind.pauli_signs, (SIGMA_X, SIGMA_Y, SIGMA_Z)))) / 4.0


# the spin-1 operators as the paper prints them, units hbar = 1
LX_TARGET = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
LY_TARGET = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / math.sqrt(2)


def measurement_operator(direction) -> np.ndarray:
    """Spin component along a unit direction: a.sigma, eigenvalues +1/-1."""
    a = unit_vector(direction, "measurement direction")
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (I +/- a.sigma)/2 of the direction's spin operator."""
    op = measurement_operator(direction)
    return (ID2 + op) / 2.0, (ID2 - op) / 2.0


def matrix_scan(
    kind: bell.BellKind = bell.BellKind.SINGLET,
    plane: str = "xz",
    n: int = 180,
    alice_angles: tuple[float, float] = (0.0, math.pi / 2.0),
) -> TsirelsonScan:
    """The n x n tsirelson_scan: the CHSH value at every grid pair in three n x n buffers.

    The directions are numpy columns cos(t)*p + sin(t)*q over the plane's basis (p, q) and
    the correlators sum_i s_i a_i b_i, the float expressions of boxes.tsirelson_scan at every
    grid point; the maximum over sign placements is taken at each grid pair and the first
    row-major argmax wins.
    """
    plane = bell.resolve_plane(kind, plane)
    grid = np.arange(n) * (math.pi / n)
    p, q = (np.array(axis) for axis in bell._PLANE_BASES[plane])

    def directions(t):  # [k, i]
        return np.cos(t)[:, None] * p + np.sin(t)[:, None] * q

    a = directions(np.array(alice_angles, dtype=float)) * kind.pauli_signs  # [x, i]
    b = directions(grid)
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


def box_enumeration() -> LhvScanResult:
    """lhv_max_chsh by building each of the 16 deterministic strategy boxes and taking its chsh_value."""
    pairs = list(itertools.product(itertools.product(OUTCOMES, repeat=2), repeat=2))
    values = [chsh_value(deterministic_box(a, b)).value for a, b in pairs]
    best = max(values)
    hits = [pair for pair, v in zip(pairs, values) if abs(v - best) <= ATOL_EXACT]
    return LhvScanResult(best, *hits[0], len(pairs), len(hits))


def extremal_sign_family() -> list:
    """All 16 extremal correlator sign patterns (s00, s01, s10, s11), each with its sign_pattern_box."""
    return [(signs, sign_pattern_box((signs[:2], signs[2:]))) for signs in itertools.product((1, -1), repeat=4)]


def correlator_text(e) -> str:
    """numpy's printing of a 2x2 correlator table, as a non-extremal box's conservation trace shows it."""
    return np.array2string(np.array(e), precision=6)


def _check(name: str, actual, expected) -> CheckResult:
    dev = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    return CheckResult(name, dev <= ATOL_EXACT, dev)


def pauli_embedding_checks(triple: SpinOperatorTriple) -> SpinTripleReport:
    """verify_pauli_embedding one check at a time: each block, commutator and spectrum on its own."""
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
        if is_hermitian(op):
            checks.append(_check(f"{name} spectrum = (-1, 0, +1)", np.linalg.eigvalsh(op), np.array([-1.0, 0.0, 1.0])))
        else:
            checks.append(_check(f"{name} Hermitian", op, op.conj().T))
    return SpinTripleReport(tuple(checks))


# ---------------------------------------------------------------------------
# the per-game quoin engine that the lane-mask engine replaced: hands and lane
# outcomes are bit tuples, and every draw is read straight from numpy's Philox
# by the recipe of random-stream contract v2 (README "Conventions")

WIDENING = 2**192  # the dealer's widening words sit at counter g + r * WIDENING


@functools.cache
def recipe_key(seed: int, stream: int) -> np.ndarray:
    """The one Philox key of a (seed, stream) pair."""
    return np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)


def recipe_bits(seed: int, stream: int, counter: int, k: int = 64) -> tuple[int, ...]:
    """The first k draws at one counter of a stream, low bit first, from numpy alone."""
    word = int(np.random.Philox(key=recipe_key(seed, stream), counter=counter).random_raw())
    return tuple(word >> i & 1 for i in range(k))


def alice_candidates(seed: int, game_index: int, lanes: int, first_widening: int = 0):
    """Alice's candidate hands in the dealer's order, from widening word `first_widening` on.

    Word 0 is the game's deal word, whose group 0 is Bob's; the groups that
    follow it are candidates, and then every group of widening words 1, 2, ...
    """
    for r in itertools.count(first_widening):
        bits = recipe_bits(seed, STREAM_DEAL, game_index + r * WIDENING)
        for start in range(lanes if r == 0 else 0, 64 - lanes + 1, lanes):
            yield bits[start : start + lanes]


def standard_dealer(seed: int, game_index: int, lanes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bob's hand and the first candidate hand of Alice's that is not all zero.

    The guesser is never dealt the trivial all-zero hand; with it excluded
    the target parity is exactly 50/50 over Bob's bits.
    """
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    bob = recipe_bits(seed, STREAM_DEAL, game_index, lanes)
    return bob, next(hand for hand in alice_candidates(seed, game_index, lanes) if any(hand))


def lane_outcomes(mech: QuoinMechanics, alice_bits, bob_bits, fair):
    """Outcome bits (1 = H) of one entangled pair per lane, started on the dealt bits, from the fair draws."""
    return tuple(fair), tuple(f ^ mech.u[a][b] for f, a, b in zip(fair, alice_bits, bob_bits))


def coin_text(bits) -> str:
    """Coin bits as H/T text (1 = H), rendered here rather than by the library renderer under test."""
    return "".join("TH"[b] for b in bits)


def target_parity(alice_bits, bob_bits) -> str:
    """Parity of the number of lanes holding a 1 on both sides."""
    return parity_name(sum(a & b for a, b in zip(alice_bits, bob_bits)))


# each strategy's play(self, mech, alice_bits, bob_bits, bits) -> (bits_bought, guess, transcript);
# bits(stream, k) reads the game's first k draws on that stream


def quoin_play(self, mech, alice_bits, bob_bits, bits) -> tuple[int, str, tuple[str, ...]]:
    alice_out, bob_out = lane_outcomes(mech, alice_bits, bob_bits, bits(STREAM_MECH, len(alice_bits)))
    bob_parity_bit = sum(bob_out) % 2
    alice_h = sum(alice_out)
    guess = parity_name(alice_h + bob_parity_bit)
    transcript = (
        f"alice outcomes: {coin_text(alice_out)}",
        f"bob outcomes: {coin_text(bob_out)}",
        f"bob sends parity bit {bob_parity_bit} (1 chip)",
        f"alice counts {alice_h} H, guesses {guess}",
    )
    return 1, guess, transcript


def classical_play(self, mech, alice_bits, bob_bits, bits) -> tuple[int, str, tuple[str, ...]]:
    if self.k > len(alice_bits):
        raise DomainError(f"cannot buy {self.k} bits across {len(alice_bits)} lanes")
    one_lanes = [i for i, v in enumerate(alice_bits) if v]
    asked = one_lanes[: self.k]
    revealed = [bob_bits[i] for i in asked]
    known = sum(revealed)
    # unrevealed 1-lanes are double-1 with even parity at probability 1/2;
    # the tie goes to even, so the guess is the revealed parity either way
    guess = parity_name(known)
    transcript = (
        f"alice asks lanes {[i + 1 for i in asked]}",
        f"bob reveals {revealed} ({len(asked)} chips)",
        f"alice knows {known} shared lanes among revealed, guesses {guess}",
    )
    return len(asked), guess, transcript


def random_play(self, mech, alice_bits, bob_bits, bits) -> tuple[int, str, tuple[str, ...]]:
    guess = parity_name(bits(STREAM_STRATEGY, 1)[0])
    return 0, guess, (f"alice guesses {guess} blind",)


PLAY = {QuoinStrategy: quoin_play, ClassicalBitsStrategy: classical_play, RandomStrategy: random_play}


def record_json(record: GameRecord) -> str:
    """json.dumps of a record's fields in field order, chips_net after chips_start: what `to_json` must print."""
    return json.dumps(
        {
            "bob_bits": list(record.bob_bits),
            "alice_bits": list(record.alice_bits),
            "target_parity": record.target_parity,
            "bits_bought": record.bits_bought,
            "guess": record.guess,
            "chips_start": record.chips_start,
            "chips_net": record.chips_net,
            "transcript": list(record.transcript),
        }
    )


def play_game(strategy, dealer_seed, mech_seed, *, game_index=0, mech=None, lanes=DEFAULT_LANES, deal=None):
    """Run one seeded round; pass `deal` = (bob_bits, alice_bits) to fix the hands."""
    mech = mech or QuoinMechanics.standard()
    if type(strategy) not in PLAY:
        raise DomainError(f"unknown strategy {strategy!r}")
    if deal is None:
        bob_bits, alice_bits = standard_dealer(dealer_seed, game_index, lanes)
    else:
        bob_bits, alice_bits = tuple(deal[0]), tuple(deal[1])
        if len(bob_bits) != len(alice_bits) or not all(v in (0, 1) for v in bob_bits + alice_bits):
            raise DomainError(f"hands must be 0/1 bits over the same lanes, got {deal!r}")
        check_int(len(alice_bits), "lanes", 1, MAX_LANES)
        bob_bits, alice_bits = tuple(map(int, bob_bits)), tuple(map(int, alice_bits))

    def bits(stream: int, k: int) -> tuple[int, ...]:
        return recipe_bits(mech_seed if stream == STREAM_MECH else dealer_seed, stream, game_index, k)

    bits_bought, guess, transcript = PLAY[type(strategy)](strategy, mech, alice_bits, bob_bits, bits)
    target = target_parity(alice_bits, bob_bits)
    return GameRecord(bob_bits, alice_bits, target, bits_bought, guess, CHIPS_START, transcript)


def play_games(strategy, games, seed, *, mech=None, lanes=DEFAULT_LANES):
    """Lazily play rounds 0..games-1 with `seed` as dealer and mechanics seed."""
    games = check_int(games, "game count", 1, MAX_GAMES)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    return (play_game(strategy, seed, seed, game_index=g, mech=mech, lanes=lanes) for g in range(games))


def summary(records) -> MonteCarloSummary:
    """What `monte_carlo` must return for these records: their count, win rate, mean net and 3-sigma band."""
    records = list(records)
    n, wins, net = len(records), sum(r.correct for r in records), sum(r.chips_net for r in records)
    rate = wins / n
    return MonteCarloSummary(n, rate, net / n, 3.0 * math.sqrt(rate * (1.0 - rate) / n))


def seeded_parity_exhaust(
    seeds, lanes: int, mech: QuoinMechanics, shown: int | None = None
) -> tuple[int, int, bool, tuple[str, ...]]:
    """(checked, failure_count, holds, failures) of the parity exhaust, deal by deal from each seed's lane outcomes.

    The seeded loop that `verify_parity_theorem` replaced by the identity
    popcount(f) + popcount(f ^ u) = popcount(u) (mod 2): deal d gives Alice
    the mask d >> lanes and Bob d mod 2**lanes, its lanes end (f, f ^ u[a][b])
    for game d's fair draws f on the mechanics stream, and it fails when its
    combined H count and its double-1 count differ in parity. Every failure
    is counted; only the first `shown` (all for None) are formatted.
    """
    deals = np.arange(4**lanes, dtype=np.uint64)
    alice, bob = deals >> lanes, deals & (1 << lanes) - 1
    table = np.array(mech.u, dtype=np.uint64)
    unequal = sum(table[alice >> i & 1, bob >> i & 1] << i for i in range(lanes))
    doubles = popcount(alice & bob).tolist()
    checked, count, failures = 0, 0, []
    for seed in seeds:
        fair = draws(seed, STREAM_MECH, range(4**lanes), lanes)
        combined_h = (popcount(fair) + popcount(fair ^ unequal)).tolist()
        checked += len(deals)
        for d, (h, n) in enumerate(zip(combined_h, doubles)):
            if (h - n) % 2:
                count += 1
                if shown is None or len(failures) < shown:
                    alice_bits, bob_bits = lane_bits(d >> lanes, lanes), lane_bits(d & (1 << lanes) - 1, lanes)
                    failures.append(f"seed {seed} deal alice={alice_bits} bob={bob_bits}: {h} H vs {n} double-1 lanes")
    return checked, count, not count, tuple(failures)


def recipe_uniforms(seed: int, n: int) -> np.ndarray:
    """The n sampled trials of a seed as doubles, from numpy alone: Generator(Philox(seed)).random(n)."""
    return np.random.Generator(np.random.Philox(seed)).random(n)


def sample_outcome_values(setup: SGSetup, n: int, seed: int) -> np.ndarray:
    """n outcomes in {+1, -1} from one recipe_uniforms(seed, n) draw, the trials `measure.sample_outcomes` counts."""
    n = check_int(n, "trial count", 1, MAX_TRIALS)
    p_plus, _ = projection_probabilities(setup)
    return np.where(recipe_uniforms(seed, n) < p_plus, 1, -1)
