"""Entangled-coin mechanics, the rigging impossibility, and the parity guessing game.

Coins are bits, 1 = H and 0 = T; "H"/"T" symbols appear only in rendered
output (transcripts, `flip_pair`, rigging records). A player's dealt bit is
the side the coin starts on; start pairs are ordered (alice, bob). The
mechanics' table u[a][b] is 1 for the start pairs listed as unequal, and a
lane with fair draw f ends (f, f ^ u[a][b]). Chip accounting: the pair buys
`chips_start` chips, spends one per purchased bit, and the House doubles
whatever remains on a correct guess, so a win nets chips_start -
2*bits_bought and a loss forfeits the full stake.

Random-stream contract v1 (see `rng`): game g draws its deal from
philox(dealer_seed, STREAM_DEAL, g), its lane outcomes from
philox(mech_seed, STREAM_MECH, g) and the strategy's coin flips from
philox(dealer_seed, STREAM_STRATEGY, g), so games are pure functions of
(seeds, game index). Every game runs through one engine on lane masks, and
`rng.draws` computes those draws by counter for one game index (an int) or
a block of GAME_BLOCK of them (an array) alike, so `play_game`, `play_games`
and `monte_carlo` agree exactly. `verify_parity_theorem` takes its lane
draws from one philox(seed) array per seed, row-major over the deals.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_int
from .rng import draws, philox

CHIPS_START = 6
DEFAULT_LANES = 5
# a lane mask indexes the 256-entry popcount table, and the parity exhaust
# holds 4**lanes * lanes int64 draws: 4 MiB at 8 lanes
MAX_LANES = 8
# monte_carlo plays 2**21 games in 2-4 s, and every index of a block stays below 2**32 for rng.draws
MAX_GAMES = 2**21
# games per block of play_games and monte_carlo; their arrays peak near 1 MiB
GAME_BLOCK = 4096

STREAM_DEAL = 0
STREAM_MECH = 1
STREAM_STRATEGY = 2

SYMBOLS = ("T", "H")  # SYMBOLS[bit]


def coin_symbols(bits) -> str:
    """Render coin bits as an H/T string."""
    return "".join(SYMBOLS[b] for b in bits)


def _start_bits(start) -> tuple[int, int]:
    """Bits of an (alice, bob) start pair of H/T symbols."""
    if not isinstance(start, (tuple, list)) or len(start) != 2 or not all(s in SYMBOLS for s in start):
        raise DomainError(f"start pair must be two H/T symbols, got {start!r}")
    return SYMBOLS.index(start[0]), SYMBOLS.index(start[1])


@dataclass(frozen=True)
class QuoinMechanics:
    """Start-pair rule: listed start pairs end unequal, all others end equal."""

    unequal_starts: frozenset
    # u[a][b] = 1 exactly when start bits (a, b) end unequal
    u: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unequal = {_start_bits(pair) for pair in self.unequal_starts}
        object.__setattr__(self, "u", tuple(tuple(int((a, b) in unequal) for b in (0, 1)) for a in (0, 1)))

    @classmethod
    @functools.cache  # immutable, and built on every default-mechanics game
    def standard(cls) -> QuoinMechanics:
        """Heads-heads starts end unequal; every other start ends equal."""
        return cls(frozenset({("H", "H")}))

    @classmethod
    def quantum_coin(cls) -> QuoinMechanics:
        """Comparison rule with the heads-heads row changed to equal outcomes."""
        return cls(frozenset())

    def unequal_lanes(self, alice, bob, lanes: int):
        """Mask of the lanes whose start bits (alice, bob), given as masks, end unequal."""
        full = (1 << lanes) - 1
        unequal = 0
        for a, b in itertools.product((0, 1), repeat=2):
            if self.u[a][b]:
                unequal |= (alice if a else full & ~alice) & (bob if b else full & ~bob)
        return unequal


def _check_mech(mech) -> QuoinMechanics:
    """The mechanics, the standard ones for None; anything else is a DomainError."""
    if mech is None:
        return QuoinMechanics.standard()
    if not isinstance(mech, QuoinMechanics):
        raise DomainError(f"mechanics must be a QuoinMechanics, got {mech!r}")
    return mech


def flip_pair(mech: QuoinMechanics | None, start, seed: int, trial: int) -> tuple[str, str]:
    """Outcome pair for one flip; a pure function of (seed, trial)."""
    mech = _check_mech(mech)
    a, b = _start_bits(start)
    f = int(philox(seed, trial).integers(0, 2))
    return SYMBOLS[f], SYMBOLS[f ^ mech.u[a][b]]


# ---------------------------------------------------------------------------
# rigging enumeration

# each deterministic single-coin rule's outcome bit, indexed by the start bit
RIGGINGS = {"H": (1, 1), "T": (0, 0), "S": (0, 1), "O": (1, 0)}


def apply_rigging(rigging: str, start: str) -> str:
    """Deterministic single-coin rule: ends-heads, ends-tails, same, or other."""
    if rigging not in RIGGINGS or start not in SYMBOLS:
        raise DomainError(f"unknown rigging {rigging!r} or start {start!r} (want {'/'.join(RIGGINGS)}, H/T)")
    return SYMBOLS[RIGGINGS[rigging][SYMBOLS.index(start)]]


@dataclass(frozen=True)
class RiggingFailure:
    """First mechanics row a rigging pair violates."""

    alice_rigging: str
    bob_rigging: str
    start: tuple[str, str]
    outcome: tuple[str, str]
    required: str  # "equal" | "unequal"


@dataclass(frozen=True)
class RiggingScan:
    valid: tuple[tuple[str, str], ...]
    failures: tuple[RiggingFailure, ...]


def enumerate_riggings(mech: QuoinMechanics | None = None) -> RiggingScan:
    """Check all 16 deterministic rigging pairs against every start configuration.

    For the standard mechanics none survives: a rigging pair producing
    unequal outcomes from a heads-heads start necessarily produces unequal
    outcomes from some start that must end equal.
    """
    mech = _check_mech(mech)
    valid, failures = [], []
    for ra, rb in itertools.product(RIGGINGS, repeat=2):
        for a, b in itertools.product((1, 0), repeat=2):  # HH, HT, TH, TT
            oa, ob = RIGGINGS[ra][a], RIGGINGS[rb][b]
            if oa ^ ob != mech.u[a][b]:
                start, outcome = (SYMBOLS[a], SYMBOLS[b]), (SYMBOLS[oa], SYMBOLS[ob])
                failures.append(RiggingFailure(ra, rb, start, outcome, ("equal", "unequal")[mech.u[a][b]]))
                break
        else:
            valid.append((ra, rb))
    return RiggingScan(tuple(valid), tuple(failures))


# ---------------------------------------------------------------------------
# the guessing game on lane masks: a hand, a row of lane outcomes and a set of
# asked lanes are each an integer whose bit i is lane i. A strategy's
# play(mech, lanes, alice, bob, draw) uses only bit operators and `popcount`,
# so one body plays a game on Python ints and a block on uint64 arrays.
# draw(stream, k) gives the mask of each game's first k draws on that stream.
# play returns (bits_bought, guess parity bit, notes), and
# transcript(lanes, alice, bob, guess, *notes) renders one game's lines.

_POPCOUNT = tuple(bin(mask).count("1") for mask in range(1 << MAX_LANES))
_POPCOUNT_ARRAY = np.array(_POPCOUNT, dtype=np.uint8)


def popcount(mask):
    """Number of lanes set in a mask: an int for an int, a uint8 array for a mask array."""
    return _POPCOUNT[mask] if type(mask) is int else _POPCOUNT_ARRAY[mask]


@functools.cache  # at most 2**MAX_LANES entries per lane count
def lane_bits(mask: int, lanes: int) -> tuple[int, ...]:
    """Bits of lanes 0..lanes-1 of one mask, as Python ints."""
    return tuple(int(mask) >> i & 1 for i in range(lanes))


@dataclass(frozen=True)
class QuoinStrategy:
    """Flip per dealt bits, buy Bob's one parity bit, guess the combined parity."""

    def play(self, mech, lanes, alice, bob, draw):
        alice_out = draw(STREAM_MECH, lanes)
        bob_out = alice_out ^ mech.unequal_lanes(alice, bob, lanes)
        return 1, (popcount(alice_out) + popcount(bob_out)) & 1, (alice_out, bob_out)

    def transcript(self, lanes, alice, bob, guess, alice_out, bob_out) -> tuple[str, ...]:
        return (
            f"alice outcomes: {coin_symbols(lane_bits(alice_out, lanes))}",
            f"bob outcomes: {coin_symbols(lane_bits(bob_out, lanes))}",
            f"bob sends parity bit {popcount(bob_out) & 1} (1 chip)",
            f"alice counts {popcount(alice_out)} H, guesses {parity_name(guess)}",
        )


@dataclass(frozen=True)
class ClassicalBitsStrategy:
    """Buy Bob's values in up to k of Alice's 1-lanes; guess the revealed parity."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "classical bit count k"))

    def play(self, mech, lanes, alice, bob, draw):
        if self.k > lanes:
            raise DomainError(f"cannot buy {self.k} bits across {lanes} lanes")
        unasked = alice
        for _ in range(self.k):
            unasked = unasked & (unasked - 1)  # drop the lowest 1-lane
        asked = alice ^ unasked
        # unrevealed 1-lanes are double-1 with even parity at probability 1/2;
        # the tie goes to even, so the guess is the revealed parity either way
        return popcount(asked), popcount(asked & bob) & 1, (asked,)

    def transcript(self, lanes, alice, bob, guess, asked) -> tuple[str, ...]:
        lanes_asked = [i for i in range(lanes) if asked >> i & 1]
        revealed = [bob >> i & 1 for i in lanes_asked]
        return (
            f"alice asks lanes {[i + 1 for i in lanes_asked]}",
            f"bob reveals {revealed} ({len(lanes_asked)} chips)",
            f"alice knows {sum(revealed)} shared lanes among revealed, guesses {parity_name(guess)}",
        )


@dataclass(frozen=True)
class RandomStrategy:
    """Buy nothing and guess uniformly."""

    def play(self, mech, lanes, alice, bob, draw):
        return 0, draw(STREAM_STRATEGY, 1), ()

    def transcript(self, lanes, alice, bob, guess) -> tuple[str, ...]:
        return (f"alice guesses {parity_name(guess)} blind",)


Strategy = QuoinStrategy | ClassicalBitsStrategy | RandomStrategy


def _net_chips(correct, bits_bought, chips_start: int = CHIPS_START):
    """The chip ledger (see the module docstring) of one game or an array of them."""
    return correct * (2 * chips_start - 2 * bits_bought) - chips_start


@dataclass(frozen=True)
class GameRecord:
    """One guessing-game round with its chip-ledger outcome."""

    bob_bits: tuple[int, ...]
    alice_bits: tuple[int, ...]
    target_parity: str
    bits_bought: int
    guess: str
    chips_start: int = CHIPS_START
    transcript: tuple[str, ...] = ()

    @property
    def correct(self) -> bool:
        return self.guess == self.target_parity

    @property
    def chips_net(self) -> int:
        return _net_chips(self.correct, self.bits_bought, self.chips_start)

    def to_json(self) -> str:
        return json.dumps(
            {
                "bob_bits": list(self.bob_bits),
                "alice_bits": list(self.alice_bits),
                "target_parity": self.target_parity,
                "bits_bought": self.bits_bought,
                "guess": self.guess,
                "chips_start": self.chips_start,
                "chips_net": self.chips_net,
                "transcript": list(self.transcript),
            }
        )


def parity_name(count: int) -> str:
    return "even" if count % 2 == 0 else "odd"


def _deal(seed: int, games, lanes: int, width: int = 0):
    """The dealer's (bob, alice) masks for one game index (an int) or an array of them.

    Lane group 0 of a game's deal stream is Bob's hand, and Alice's is the
    first later group that is not all zero: with that hand excluded the
    target parity is exactly 50/50. Every group in the Philox blocks of 8
    draws that hold the first two is judged at once, and only the games
    whose candidates are all zero deal again, a block wider.
    """
    full, width = (1 << lanes) - 1, width or 8 * -(-2 * lanes // 8)
    deck = draws(seed, STREAM_DEAL, games, width)
    alice = deck >> lanes & full
    for group in range(2, width // lanes):
        alice |= (alice == 0) * (deck >> lanes * group & full)
    if type(games) is int:
        return deck & full, alice or _deal(seed, games, lanes, width + 8)[1]
    todo = np.flatnonzero(alice == 0)
    # many games deal on as one array; a few, or past 64 draws (a uint64 mask), one at a time
    if todo.size > 16 and width < 64:
        alice[todo] = _deal(seed, games[todo], lanes, width + 8)[1]
    else:
        alice[todo] = [_deal(seed, int(games[g]), lanes, width + 8)[1] for g in todo]
    return deck & full, alice


def _play(strategy: Strategy, dealer_seed: int, mech_seed: int, games, mech, lanes: int, hands=None):
    """The game engine: play one game index (an int) or a block of them (an array).

    Returns (bob, alice, bits_bought, guess, target, notes) as masks and
    parity bits: Python ints for one game, arrays for a block.
    """
    if not isinstance(strategy, Strategy):
        raise DomainError(f"unknown strategy {strategy!r}")
    mech = _check_mech(mech)

    def draw(stream: int, k: int):
        return draws(mech_seed if stream == STREAM_MECH else dealer_seed, stream, games, k)

    bob, alice = hands or _deal(dealer_seed, games, lanes)
    bought, guess, notes = strategy.play(mech, lanes, alice, bob, draw)
    return bob, alice, bought, guess, popcount(alice & bob) & 1, notes


def _record(strategy: Strategy, lanes: int, bob, alice, bought, guess, target, notes) -> GameRecord:
    """One game's record, from the Python ints of its masks and parity bits."""
    transcript = strategy.transcript(lanes, alice, bob, guess, *notes)
    return GameRecord(
        lane_bits(bob, lanes), lane_bits(alice, lanes), parity_name(target), bought, parity_name(guess),
        CHIPS_START, transcript,
    )


def play_game(
    strategy: Strategy,
    dealer_seed: int,
    mech_seed: int,
    *,
    game_index: int = 0,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
    deal: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> GameRecord:
    """Run one seeded round; pass `deal` = (bob_bits, alice_bits) to fix the hands."""
    game_index = check_int(game_index, "game index")
    if deal is None:
        lanes, hands = check_int(lanes, "lanes", 1, MAX_LANES), None
    else:
        bob_bits, alice_bits = tuple(deal[0]), tuple(deal[1])
        if len(bob_bits) != len(alice_bits) or not all(v in (0, 1) for v in bob_bits + alice_bits):
            raise DomainError(f"hands must be 0/1 bits over the same lanes, got {deal!r}")
        lanes = check_int(len(alice_bits), "lanes", 1, MAX_LANES)
        hands = tuple(sum(int(b) << i for i, b in enumerate(bits)) for bits in (bob_bits, alice_bits))
    return _record(strategy, lanes, *_play(strategy, dealer_seed, mech_seed, game_index, mech, lanes, hands))


@dataclass(frozen=True)
class MonteCarloSummary:
    games: int
    win_rate: float
    mean_chips_net: float
    ci_halfwidth: float


def _blocks(games: int) -> Iterator[np.ndarray]:
    """Game indices 0..games-1 as uint32 arrays of at most GAME_BLOCK."""
    for start in range(0, games, GAME_BLOCK):
        yield np.arange(start, min(start + GAME_BLOCK, games), dtype=np.uint32)


def _block_records(strategy: Strategy, seed: int, games: np.ndarray, mech, lanes: int) -> Iterator[GameRecord]:
    """The records of an array of games, played as one block."""
    bob, alice, bought, guess, target, notes = _play(strategy, seed, seed, games, mech, lanes)
    columns = [np.broadcast_to(col, games.shape).tolist() for col in (bob, alice, bought, guess, target, *notes)]
    for row in zip(*columns):
        yield _record(strategy, lanes, *row[:5], row[5:])


def play_games(
    strategy: Strategy,
    games: int,
    seed: int,
    *,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
) -> Iterator[GameRecord]:
    """Lazily play rounds 0..games-1 with `seed` as dealer and mechanics seed, a block at a time."""
    games = check_int(games, "game count", 1, MAX_GAMES)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    return itertools.chain.from_iterable(_block_records(strategy, seed, g, mech, lanes) for g in _blocks(games))


def summarize(records: Iterable[GameRecord]) -> MonteCarloSummary:
    """Aggregate rounds in one pass; the CI half-width is the 3-sigma binomial band."""
    games = wins = net = 0
    for rec in records:
        games += 1
        wins += rec.correct
        net += rec.chips_net
    if games < 1:
        raise DomainError("no game records to summarize")
    return _summary(games, wins, net)


def _summary(games: int, wins: int, net: int) -> MonteCarloSummary:
    w = wins / games
    return MonteCarloSummary(games, w, net / games, 3.0 * float(np.sqrt(w * (1.0 - w) / games)))


def monte_carlo(
    strategy: Strategy,
    games: int,
    seed: int,
    *,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
) -> MonteCarloSummary:
    """summarize(play_games(...)), played a block at a time without building records."""
    games = check_int(games, "game count", 1, MAX_GAMES)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    wins = net = 0
    for g in _blocks(games):
        _, _, bought, guess, target, _ = _play(strategy, seed, seed, g, mech, lanes)
        correct = guess == target
        wins += int(np.count_nonzero(correct))
        net += int(_net_chips(correct, np.asarray(bought, dtype=np.int64)).sum())
    return _summary(games, wins, net)


def write_transcript(records, fp) -> None:
    """Emit one GameRecord JSON object per line."""
    for rec in records:
        fp.write(rec.to_json() + "\n")


@dataclass(frozen=True)
class ParityTheoremReport:
    """Exhaust result; the failure strings are formatted only when `failures` is read."""

    checked: int
    failure_count: int
    lanes: int
    # (seed, failing deal indices, their combined H counts) for each seed with a failure
    failing: tuple = field(default=(), repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return not self.failure_count

    @functools.cached_property
    def failures(self) -> tuple[str, ...]:
        hands = list(itertools.product((0, 1), repeat=self.lanes))
        out = []
        for seed, deals, combined_h in self.failing:
            for d, h in zip(deals.tolist(), combined_h.tolist()):
                alice, bob = hands[d >> self.lanes], hands[d & (len(hands) - 1)]
                doubles = sum(a & b for a, b in zip(alice, bob))
                out.append(f"seed {seed} deal alice={alice} bob={bob}: {h} H vs {doubles} double-1 lanes")
        return tuple(out)


def verify_parity_theorem(
    seeds=range(32), lanes: int = DEFAULT_LANES, mech: QuoinMechanics | None = None
) -> ParityTheoremReport:
    """Exhaust every deal: combined H count parity must equal double-1-lane parity.

    The 4**lanes deals run in itertools.product order over (alice's lanes,
    bob's lanes), and one philox(seed) draw of shape (deals, lanes) per seed
    supplies the lane draws, so outcomes are reproducible functions of
    (seed, deal index, lane). Deal d deals Alice hand d >> lanes and Bob hand
    d mod 2**lanes of the product order.
    """
    mech = _check_mech(mech)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    deals = np.arange(4**lanes)
    # each hand as the mask of its product-order index, so lane i is bit lanes - 1 - i
    alice, bob = deals >> lanes, deals & ((1 << lanes) - 1)
    weights = 1 << np.arange(lanes - 1, -1, -1)
    unequal, doubles = mech.unequal_lanes(alice, bob, lanes), popcount(alice & bob)
    seeds = list(seeds)
    failing = []
    for seed in seeds:
        fair = philox(seed).integers(0, 2, (len(deals), lanes)) @ weights
        combined_h = popcount(fair) + popcount(fair ^ unequal)
        failed = np.flatnonzero((combined_h ^ doubles) & 1)
        if failed.size:
            # 5 bytes per failing deal: 4**MAX_LANES deals and at most 2 * MAX_LANES H
            failing.append((seed, failed.astype(np.uint32), combined_h[failed]))
    count = sum(len(failed) for _, failed, _ in failing)
    return ParityTheoremReport(len(seeds) * len(deals), count, lanes, tuple(failing))
