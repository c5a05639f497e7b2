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
game_rng(dealer_seed, STREAM_DEAL, g), its lane outcomes from
game_rng(mech_seed, STREAM_MECH, g) and the strategy's coin flips from
game_rng(dealer_seed, STREAM_STRATEGY, g), so games are pure functions of
(seeds, game index). `monte_carlo` computes the same draws for GAME_BLOCK
games at a time with `rng.game_bits`, so its summary equals
summarize(play_games(...)) exactly. `verify_parity_theorem` takes its lane
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
from .rng import game_bits, philox

CHIPS_START = 6
DEFAULT_LANES = 5
# the parity exhaust holds 4**lanes * lanes int64 draws: 4 MiB at 8 lanes
MAX_LANES = 8
# 3-7 s of batched play (slowest at one lane, where half the hands are
# redrawn), and every game index stays below 2**32 for rng.game_bits
MAX_GAMES = 2**21
# games per batched step of monte_carlo; its arrays peak near 1 MiB
GAME_BLOCK = 4096

STREAM_DEAL = 0
STREAM_MECH = 1
STREAM_STRATEGY = 2

SYMBOLS = ("T", "H")  # SYMBOLS[bit]


def game_rng(seed: int, stream: int, game_index: int) -> np.random.Generator:
    """Generator for one game's draws on one stream (random-stream contract v1)."""
    return philox(seed, stream, game_index)


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


def flip_pair(mech: QuoinMechanics, start, seed: int, trial: int) -> tuple[str, str]:
    """Outcome pair for one flip; a pure function of (seed, trial)."""
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
    mech = mech or QuoinMechanics.standard()
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
# the guessing game: a strategy's play(mech, alice_bits, bob_bits, rng) returns
# (bits_bought, guess, transcript); rng(stream) builds the game's generator on
# that stream only when the strategy asks for it. play_block(mech, alice, bob,
# draw) plays a block of games at once: alice and bob are (games, lanes) bit
# arrays, draw(stream, k) returns each game's first k bits on that stream, and
# it returns the arrays (bits_bought, guess parity bit).

@dataclass(frozen=True)
class QuoinStrategy:
    """Flip per dealt bits, buy Bob's one parity bit, guess the combined parity."""

    name: str = field(default="quoin", init=False)

    def play(self, mech, alice_bits, bob_bits, rng) -> tuple[int, str, tuple[str, ...]]:
        alice_out, bob_out = lane_outcomes(mech, alice_bits, bob_bits, rng(STREAM_MECH))
        bob_parity_bit = sum(bob_out) % 2
        alice_h = sum(alice_out)
        guess = parity_name(alice_h + bob_parity_bit)
        transcript = (
            f"alice outcomes: {coin_symbols(alice_out)}",
            f"bob outcomes: {coin_symbols(bob_out)}",
            f"bob sends parity bit {bob_parity_bit} (1 chip)",
            f"alice counts {alice_h} H, guesses {guess}",
        )
        return 1, guess, transcript

    def play_block(self, mech, alice, bob, draw) -> tuple[np.ndarray, np.ndarray]:
        fair = draw(STREAM_MECH, alice.shape[1])
        bob_out = fair ^ np.array(mech.u, dtype=np.uint8)[alice, bob]
        guess = (fair.sum(axis=1) + bob_out.sum(axis=1) % 2) % 2
        return np.ones(len(alice), dtype=np.int64), guess


@dataclass(frozen=True)
class ClassicalBitsStrategy:
    """Buy Bob's values in up to k of Alice's 1-lanes; guess the revealed parity."""

    k: int
    name: str = field(default="classical_bits", init=False)

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "classical bit count k"))

    def _check_k(self, lanes: int) -> None:
        if self.k > lanes:
            raise DomainError(f"cannot buy {self.k} bits across {lanes} lanes")

    def play(self, mech, alice_bits, bob_bits, rng) -> tuple[int, str, tuple[str, ...]]:
        self._check_k(len(alice_bits))
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

    def play_block(self, mech, alice, bob, draw) -> tuple[np.ndarray, np.ndarray]:
        self._check_k(alice.shape[1])
        asked = alice & (np.cumsum(alice, axis=1) <= self.k)
        return asked.sum(axis=1), (asked & bob).sum(axis=1) % 2


@dataclass(frozen=True)
class RandomStrategy:
    """Buy nothing and guess uniformly."""

    name: str = field(default="random", init=False)

    def play(self, mech, alice_bits, bob_bits, rng) -> tuple[int, str, tuple[str, ...]]:
        guess = parity_name(int(rng(STREAM_STRATEGY).integers(0, 2)))
        return 0, guess, (f"alice guesses {guess} blind",)

    def play_block(self, mech, alice, bob, draw) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(alice), dtype=np.int64), draw(STREAM_STRATEGY, 1)[:, 0]


Strategy = QuoinStrategy | ClassicalBitsStrategy | RandomStrategy


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
        # House doubles the remaining chips on a win; spent chips are gone
        if self.correct:
            return self.chips_start - 2 * self.bits_bought
        return -self.chips_start

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


def target_parity(alice_bits, bob_bits) -> str:
    """Parity of the number of lanes holding a 1 on both sides."""
    return parity_name(sum(a & b for a, b in zip(alice_bits, bob_bits)))


def standard_dealer(rng: np.random.Generator, lanes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Fair independent bits, redrawing Alice's hand until it is not all zero.

    The guesser is never dealt the trivial all-zero hand; with it excluded
    the target parity is exactly 50/50 over Bob's bits.
    """
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    bob = tuple(rng.integers(0, 2, lanes).tolist())
    alice = tuple(rng.integers(0, 2, lanes).tolist())
    while not any(alice):
        alice = tuple(rng.integers(0, 2, lanes).tolist())
    return bob, alice


def lane_outcomes(mech: QuoinMechanics, alice_bits, bob_bits, rng: np.random.Generator):
    """Outcome bits (1 = H) of one entangled pair per lane, started on the dealt bits."""
    fair = rng.integers(0, 2, len(alice_bits)).tolist()
    return tuple(fair), tuple(f ^ mech.u[a][b] for f, a, b in zip(fair, alice_bits, bob_bits))


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
    mech = mech or QuoinMechanics.standard()
    if not hasattr(strategy, "play"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if deal is None:
        bob_bits, alice_bits = standard_dealer(game_rng(dealer_seed, STREAM_DEAL, game_index), lanes)
    else:
        bob_bits, alice_bits = tuple(deal[0]), tuple(deal[1])
        if len(bob_bits) != len(alice_bits) or not all(v in (0, 1) for v in bob_bits + alice_bits):
            raise DomainError(f"hands must be 0/1 bits over the same lanes, got {deal!r}")
        check_int(len(alice_bits), "lanes", 1, MAX_LANES)
        bob_bits, alice_bits = tuple(map(int, bob_bits)), tuple(map(int, alice_bits))

    def rng(stream: int) -> np.random.Generator:
        return game_rng(mech_seed if stream == STREAM_MECH else dealer_seed, stream, game_index)

    bits_bought, guess, transcript = strategy.play(mech, alice_bits, bob_bits, rng)
    target = target_parity(alice_bits, bob_bits)
    return GameRecord(bob_bits, alice_bits, target, bits_bought, guess, CHIPS_START, transcript)


@dataclass(frozen=True)
class MonteCarloSummary:
    games: int
    win_rate: float
    mean_chips_net: float
    ci_halfwidth: float


def play_games(
    strategy: Strategy,
    games: int,
    seed: int,
    *,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
) -> Iterator[GameRecord]:
    """Lazily play rounds 0..games-1 with `seed` as dealer and mechanics seed."""
    games = check_int(games, "game count", 1, MAX_GAMES)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    return (play_game(strategy, seed, seed, game_index=g, mech=mech, lanes=lanes) for g in range(games))


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


def _deal_block(seed: int, g: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """`standard_dealer`'s (bob, alice) bit arrays for games g, by counter.

    Redraw r of a game is bits (r + 2)*lanes .. (r + 3)*lanes of its deal
    stream, computed by counter for only the games whose Alice hand is still
    all zero.
    """
    bits = game_bits(seed, STREAM_DEAL, g, 2 * lanes)
    bob, alice = bits[:, :lanes], bits[:, lanes:]
    todo = np.flatnonzero(~alice.any(axis=1))
    width = 2 * lanes
    while todo.size:
        width += lanes
        alice[todo] = game_bits(seed, STREAM_DEAL, g[todo], width)[:, -lanes:]
        todo = todo[~alice[todo].any(axis=1)]
    return bob, alice


def monte_carlo(
    strategy: Strategy,
    games: int,
    seed: int,
    *,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
) -> MonteCarloSummary:
    """Aggregate seeded rounds; the CI half-width is the 3-sigma binomial band.

    Plays GAME_BLOCK games at a time through the strategy's `play_block`,
    with every draw taken from its contract-v1 stream by counter, so the
    result equals summarize(play_games(...)) while memory stays bounded.
    """
    games = check_int(games, "game count", 1, MAX_GAMES)
    mech = mech or QuoinMechanics.standard()
    if not hasattr(strategy, "play_block"):
        raise DomainError(f"unknown strategy {strategy!r}")
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    wins = net = 0
    for start in range(0, games, GAME_BLOCK):
        g = np.arange(start, min(start + GAME_BLOCK, games), dtype=np.uint32)
        bob, alice = _deal_block(seed, g, lanes)
        bought, guess = strategy.play_block(mech, alice, bob, lambda stream, k: game_bits(seed, stream, g, k))
        correct = guess == (alice & bob).sum(axis=1) % 2
        wins += int(np.count_nonzero(correct))
        net += int(np.where(correct, CHIPS_START - 2 * np.asarray(bought, dtype=np.int64), -CHIPS_START).sum())
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
    mech = mech or QuoinMechanics.standard()
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    hands = np.array(list(itertools.product((0, 1), repeat=lanes)), dtype=np.int64)
    alice = np.repeat(hands, len(hands), axis=0)
    bob = np.tile(hands, (len(hands), 1))
    u = np.array(mech.u)[alice, bob]
    doubles = (alice & bob).sum(axis=1)
    seeds = list(seeds)
    failing = []
    for seed in seeds:
        fair = philox(seed).integers(0, 2, alice.shape)
        combined_h = (fair + (fair ^ u)).sum(axis=1)
        deals = np.flatnonzero((combined_h - doubles) % 2)
        if deals.size:
            # 5 bytes per failing deal: 4**MAX_LANES deals and at most 2 * MAX_LANES H
            failing.append((seed, deals.astype(np.uint32), combined_h[deals].astype(np.uint8)))
    count = sum(len(deals) for _, deals, _ in failing)
    return ParityTheoremReport(len(seeds) * len(alice), count, lanes, tuple(failing))
