"""Entangled-coin mechanics, the rigging impossibility, and the parity guessing game.

Coins are bits, 1 = H and 0 = T, across the API (mechanics, `flip_pair`,
rigging records); H/T appears only in rendered text. A player's dealt bit is
the side the coin starts on; start pairs are ordered (alice, bob). The
mechanics' table u[a][b] is 1 for the start pairs listed as unequal, and a
lane with fair draw f ends (f, f ^ u[a][b]). Chip accounting: the pair buys
`chips_start` chips, spends one per purchased bit, and the House doubles
whatever remains on a correct guess, so a win nets chips_start -
2*bits_bought and a loss forfeits the full stake.

Random-stream contract v2 (see `rng.draws`): game g reads the Philox block
at counter g of three streams, its deal from draws(dealer_seed, STREAM_DEAL,
g, 64), its lane outcomes from draws(mech_seed, STREAM_MECH, g, lanes) and
the strategy's coin flip from draws(dealer_seed, STREAM_STRATEGY, g, 1), so
games are pure functions of (seeds, game index). Every game runs through one
engine on lane masks, which reads those draws through `rng._draws` for one
game index (an int) or a block of GAME_BLOCK games (a range) alike, so
`play_game` and `monte_carlo` agree exactly. The engine checks nothing it
made itself: the public entry points (`play_game`, `monte_carlo`,
`flip_pair`, `run_interactive_game`) check their arguments, seeds and IO
included, once, and `_record` builds the engine's records unchecked, while a
`GameRecord(...)` built by a user is still checked in full. Outside the game,
`flip_pair`'s trial t is lane 0 of game t on the mechanics stream, and the
parity exhaust's deal d reads game d's lane outcomes there.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DomainError, check_int
from .measure import binomial_band
from .rng import MAX_GAME, _draws, _key, draws

CHIPS_START = 6
DEFAULT_LANES = 5
# a lane mask indexes the 256-entry popcount table
MAX_LANES = 8
# monte_carlo plays 2**21 games in 1-2 s
MAX_GAMES = 2**21
# seeds of one verify_parity_theorem call, whose verdict reads no draws, and the failure lines its report shows
MAX_PARITY_SEEDS = 256
MAX_FAILURE_LINES = 1000
# games per block of monte_carlo; its arrays peak near 1 MiB
GAME_BLOCK = 4096

STREAM_DEAL = 0
STREAM_MECH = 1
STREAM_STRATEGY = 2
# the dealer's widening word r of game g is at counter g + r * WIDEN of the deal stream, clear of every game's block
WIDEN = 2**192

SYMBOLS = ("T", "H")  # SYMBOLS[bit], read only by the renderer `lane_symbols`


def _start_bits(start) -> tuple[int, int]:
    """An (alice, bob) pair of 0/1 start bits as Python ints."""
    if len(bits := _bit_row(start)) != 2:
        raise DomainError(f"start pair must be two 0/1 bits, got {start!r}")
    return bits


@dataclass(frozen=True)
class QuoinMechanics:
    """Start-bit rule: listed (alice, bob) start-bit pairs end unequal, all others end equal."""

    unequal_starts: frozenset
    # u[a][b] = 1 exactly when start bits (a, b) end unequal
    u: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            unequal = frozenset(map(_start_bits, self.unequal_starts))
        except TypeError:
            raise DomainError(f"unequal starts must be a collection of pairs, got {self.unequal_starts!r}") from None
        # stored as a frozenset of bit pairs whatever collection was given, so the mechanics stay hashable
        object.__setattr__(self, "unequal_starts", unequal)
        object.__setattr__(self, "u", tuple(tuple(int((a, b) in unequal) for b in (0, 1)) for a in (0, 1)))

    @classmethod
    @functools.cache  # immutable, and built on every default-mechanics game
    def standard(cls) -> QuoinMechanics:
        """Heads-heads starts end unequal; every other start ends equal."""
        return cls(frozenset({(1, 1)}))

    @classmethod
    def quantum_coin(cls) -> QuoinMechanics:
        """Comparison rule with the heads-heads row changed to equal outcomes."""
        return cls(frozenset())

    def unequal_lanes(self, alice, bob, lanes: int):
        """Mask of the lanes whose start bits (alice, bob), given as masks, end unequal, of the hands' type."""
        full = (1 << lanes) - 1
        unequal = alice & 0
        for a, b in self.unequal_starts:
            unequal |= (alice if a else full & ~alice) & (bob if b else full & ~bob)
        return unequal


def _check_mech(mech) -> QuoinMechanics:
    """The mechanics, the standard ones for None; anything else is a DomainError."""
    if mech is None:
        return QuoinMechanics.standard()
    if not isinstance(mech, QuoinMechanics):
        raise DomainError(f"mechanics must be a QuoinMechanics, got {mech!r}")
    return mech


def flip_pair(mech: QuoinMechanics | None, start, seed: int, trial: int) -> tuple[int, int]:
    """(alice, bob) outcome bits from start bits `start`: lane 0 of game `trial` (0..MAX_GAME), mechanics stream."""
    mech = _check_mech(mech)
    a, b = _start_bits(start)
    seed, trial = check_int(seed, "seed"), check_int(trial, "trial", 0, MAX_GAME)
    f = _draws(_key(seed, STREAM_MECH), trial, 1)
    return f, f ^ mech.u[a][b]


# ---------------------------------------------------------------------------
# rigging enumeration

# each deterministic single-coin rule's outcome bit, indexed by the start bit
RIGGINGS = {"H": (1, 1), "T": (0, 0), "S": (0, 1), "O": (1, 0)}


@dataclass(frozen=True)
class RiggingFailure:
    """First mechanics row a rigging pair violates."""

    alice_rigging: str
    bob_rigging: str
    start: tuple[int, int]  # (alice, bob) start bits
    outcome: tuple[int, int]  # (alice, bob) outcome bits
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
        for a, b in itertools.product((1, 0), repeat=2):  # heads-heads first
            oa, ob = RIGGINGS[ra][a], RIGGINGS[rb][b]
            if oa ^ ob != mech.u[a][b]:
                failures.append(RiggingFailure(ra, rb, (a, b), (oa, ob), ("equal", "unequal")[mech.u[a][b]]))
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
    return _POPCOUNT[mask] if type(mask) is int else _POPCOUNT_ARRAY.take(mask)


@functools.cache  # at most 2**MAX_LANES entries per lane count
def lane_bits(mask: int, lanes: int) -> tuple[int, ...]:
    """Bits of lanes 0..lanes-1 of one mask, as Python ints."""
    return tuple(int(mask) >> i & 1 for i in range(lanes))


@functools.cache  # at most 2**MAX_LANES entries per lane count
def lane_symbols(mask: int, lanes: int) -> str:
    """H/T string of lanes 0..lanes-1 of one mask: the one coin renderer."""
    return "".join(SYMBOLS[b] for b in lane_bits(mask, lanes))


@dataclass(frozen=True)
class QuoinStrategy:
    """Flip per dealt bits, buy Bob's one parity bit, guess the combined parity."""

    def play(self, mech, lanes, alice, bob, draw):
        alice_out = draw(STREAM_MECH, lanes)
        bob_out = alice_out ^ mech.unequal_lanes(alice, bob, lanes)
        return 1, (popcount(alice_out) + popcount(bob_out)) & 1, (alice_out, bob_out)

    def transcript(self, lanes, alice, bob, guess, alice_out, bob_out) -> tuple[str, ...]:
        return (
            f"alice outcomes: {lane_symbols(alice_out, lanes)}",
            f"bob outcomes: {lane_symbols(bob_out, lanes)}",
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


# every row of 0/1 bits over 1..MAX_LANES lanes, as Python ints, keyed by itself
_BIT_ROWS = {row: row for lanes in range(1, MAX_LANES + 1) for row in itertools.product((0, 1), repeat=lanes)}
# the JSON list of each bit row
_BIT_JSON = {row: str(list(row)) for row in _BIT_ROWS}
PARITIES = ("even", "odd")


def _bit_row(bits) -> tuple[int, ...]:
    """A tuple or list of 0/1 bits over 1..MAX_LANES lanes as a tuple of Python ints; () for anything else."""
    try:
        return _BIT_ROWS[tuple(bits)] if isinstance(bits, (tuple, list)) else ()
    except (KeyError, TypeError):  # not 0/1 bits, or unhashable ones
        return ()


def _record_json(bob_bits, alice_bits, target_parity, bits_bought, guess, chips_start, transcript, chips_net) -> str:
    """One record's fields as one JSON object, byte for byte json.dumps of them with chips_net after chips_start."""
    return (
        f'{{"bob_bits": {_BIT_JSON[bob_bits]}, "alice_bits": {_BIT_JSON[alice_bits]}, '
        f'"target_parity": "{target_parity}", "bits_bought": {bits_bought}, "guess": "{guess}", '
        f'"chips_start": {chips_start}, "chips_net": {chips_net}, '
        f'"transcript": [{", ".join(map(encode_basestring_ascii, transcript))}]}}'
    )


@dataclass(frozen=True)
class GameRecord:
    """One guessing-game round with its chip-ledger outcome.

    Bit rows and the transcript are stored as tuples (a list becomes one, and
    each bit a Python int); a field `to_json` cannot render exactly is a
    DomainError.
    """

    bob_bits: tuple[int, ...]
    alice_bits: tuple[int, ...]
    target_parity: str
    bits_bought: int
    guess: str
    chips_start: int = CHIPS_START
    transcript: tuple[str, ...] = ()

    def __post_init__(self):
        bob, alice = _bit_row(self.bob_bits), _bit_row(self.alice_bits)
        if not bob or len(bob) != len(alice):
            rows = f"{self.bob_bits!r}, {self.alice_bits!r}"
            raise DomainError(f"bit rows must be 0/1 bits over the same 1..{MAX_LANES} lanes, got {rows}")
        for value in (self.target_parity, self.guess):
            if type(value) is not str or value not in PARITIES:
                raise DomainError(f"a parity must be 'even' or 'odd', got {value!r}")
        transcript = tuple(self.transcript) if isinstance(self.transcript, (tuple, list)) else (None,)
        if not all(type(line) is str for line in transcript):
            raise DomainError(f"transcript must be a sequence of strings, got {self.transcript!r}")
        # the normalised fields in one write to the instance dict, past the frozen __setattr__
        self.__dict__.update(
            bob_bits=bob, alice_bits=alice, transcript=transcript,
            bits_bought=check_int(self.bits_bought, "bits bought"),
            chips_start=check_int(self.chips_start, "chips at the start"),
        )

    @property
    def correct(self) -> bool:
        return self.guess == self.target_parity

    @property
    def chips_net(self) -> int:
        return _net_chips(self.correct, self.bits_bought, self.chips_start)

    def to_json(self) -> str:
        """The record as one JSON object: the one record formatter, `_record_json`, of its fields and chips_net."""
        return _record_json(*vars(self).values(), self.chips_net)  # the instance dict holds the fields in order


# GameRecord's field names in order, the order `to_json` reads the instance dict in
_RECORD_FIELDS = tuple(f.name for f in fields(GameRecord))


def _record(values) -> GameRecord:
    """The GameRecord of the engine's own `_fields`, unchecked: they are the values GameRecord(*values) stores."""
    record = object.__new__(GameRecord)
    record.__dict__.update(zip(_RECORD_FIELDS, values))
    return record


def parity_name(count: int) -> str:
    return PARITIES[count % 2]


def _first_group(word, lanes: int, first: int):
    """The first lane group of a 64-bit word, from group `first` on, that is not all zero; 0 if none is."""
    full = (1 << lanes) - 1
    if type(word) is int:
        for group in range(first, 64 // lanes):
            if hand := word >> lanes * group & full:
                return hand
        return 0
    # each later group is read only at the games whose hand is still zero
    hand = word >> lanes * first & full
    zero = np.flatnonzero(hand == 0)
    for group in range(first + 1, 64 // lanes):
        if not zero.size:
            break
        sub = word[zero] >> lanes * group & full
        hand[zero] = sub
        zero = zero[sub == 0]
    return hand


def _deal(seed: int, games, lanes: int):
    """The dealer's (bob, alice) masks for one game index (an int) or a block of them (a range).

    Lane group 0 of a game's word on the deal stream is Bob's hand, and
    Alice's is the first later group that is not all zero: with that hand
    excluded the target parity is exactly 50/50. A game whose later groups
    are all zero (at most 2**-54 of them, at 6 lanes) deals on one at a time,
    from the first non-zero group of its widening words, r = 1, 2, ...
    """
    key = _key(seed, STREAM_DEAL)
    deck = _draws(key, games, 64)
    bob, alice = deck & (1 << lanes) - 1, _first_group(deck, lanes, 1)
    if type(games) is int:
        widening = 0
        while not alice:
            widening += 1
            alice = _first_group(_draws(key, games + widening * WIDEN, 64), lanes, 0)
    else:
        for i in np.flatnonzero(alice == 0):
            alice[i] = _deal(seed, int(games[i]), lanes)[1]
    return bob, alice


def _play(strategy: Strategy, dealer_seed: int, mech_seed: int, games, mech, lanes: int, hands=None):
    """The game engine: play one game index (an int) or a block of them (a range).

    Returns (bob, alice, bits_bought, guess, target, *notes) as masks and
    parity bits: Python ints for one game, arrays for a block.
    """
    if not isinstance(strategy, Strategy):
        raise DomainError(f"unknown strategy {strategy!r}")
    mech = _check_mech(mech)

    def draw(stream: int, k: int):
        return _draws(_key(mech_seed if stream == STREAM_MECH else dealer_seed, stream), games, k)

    bob, alice = hands or _deal(dealer_seed, games, lanes)
    bought, guess, notes = strategy.play(mech, lanes, alice, bob, draw)
    return bob, alice, bought, guess, popcount(alice & bob) & 1, *notes


def _fields(strategy: Strategy, lanes: int, bob, alice, bought, guess, target, *notes) -> tuple:
    """One game's GameRecord fields in order, from the Python ints of its row (see `_rows`)."""
    fields = lane_bits(bob, lanes), lane_bits(alice, lanes), PARITIES[target], bought, PARITIES[guess], CHIPS_START
    return *fields, strategy.transcript(lanes, alice, bob, guess, *notes)


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
    dealer_seed, mech_seed = check_int(dealer_seed, "seed"), check_int(mech_seed, "seed")
    game_index = check_int(game_index, "game index", 0, MAX_GAME)
    if deal is None:
        lanes, hands = check_int(lanes, "lanes", 1, MAX_LANES), None
    else:
        try:
            bob_bits, alice_bits = (_bit_row(tuple(bits)) for bits in deal)
        except (TypeError, ValueError):  # not a pair of bit sequences
            bob_bits = alice_bits = ()
        if not bob_bits or len(bob_bits) != len(alice_bits):
            raise DomainError(f"hands must be 0/1 bits over the same 1..{MAX_LANES} lanes, got {deal!r}")
        lanes = len(alice_bits)
        hands = tuple(sum(b << i for i, b in enumerate(bits)) for bits in (bob_bits, alice_bits))
    row = _play(strategy, dealer_seed, mech_seed, game_index, mech, lanes, hands)
    return _record(_fields(strategy, lanes, *row))


def run_interactive_game(seed, mech, lanes, input_fn, say) -> GameRecord:
    """One human-guessed round of game 0; IO is injected so transcripts replay in tests.

    The record is the quoin strategy's, with the human's purchase and guess and its two outcome lines.
    """
    seed, lanes = check_int(seed, "seed"), check_int(lanes, "lanes", 1, MAX_LANES)
    if not (callable(input_fn) and callable(say)):
        raise DomainError(f"input_fn and say must be callable, got {input_fn!r} and {say!r}")

    def ask(prompt: str) -> str:
        if not isinstance(answer := input_fn(prompt), str):
            raise DomainError(f"an answer must be a string, got {answer!r}")
        return answer.strip().lower()

    strategy = QuoinStrategy()
    row = _play(strategy, seed, seed, 0, mech, lanes)
    auto = _record(_fields(strategy, lanes, *row))
    alice_out, bob_out = row[-2:]
    say(f"the dealer set your lanes to {list(auto.alice_bits)} (Bob's side is hidden)")
    say(f"you flip your quoins per your bits and see: {lane_symbols(alice_out, lanes)}")
    bits_bought = int(ask("buy Bob's parity bit for one chip? [y/n] ").startswith("y"))
    if bits_bought:
        say(f"Bob's message: his H count is {parity_name(popcount(bob_out))} ({popcount(bob_out) & 1})")
        say(f"protocol guess: {auto.guess}")
    guess = ask("your guess, even or odd? ")
    if guess not in PARITIES:
        guess = auto.guess if bits_bought else "even"
        say(f"unrecognized guess; recording {guess}")
    record = replace(auto, bits_bought=bits_bought, guess=guess, transcript=auto.transcript[:2])
    say(f"Bob's lanes were {list(record.bob_bits)}; the answer is {record.target_parity}")
    say(f"{'you win' if record.correct else 'you lose'}: net {record.chips_net:+d} chips")
    return record


@dataclass(frozen=True)
class MonteCarloSummary:
    games: int
    win_rate: float
    mean_chips_net: float
    ci_halfwidth: float


def _rows(block) -> Iterator[tuple]:
    """The rows of Python ints of a block's columns, each (bob, alice, bought, guess, target, *notes)."""
    return zip(*(np.broadcast_to(col, block[0].shape).tolist() for col in block))


def monte_carlo(
    strategy: Strategy,
    games: int,
    seed: int,
    *,
    mech: QuoinMechanics | None = None,
    lanes: int = DEFAULT_LANES,
    write=None,
) -> MonteCarloSummary:
    """Play and tally games 0..games-1, `seed` as dealer and mechanics seed; the CI is the 3-sigma binomial band.

    The one block loop: `write`, when given, gets each block's to_json lines.
    """
    games, seed = check_int(games, "game count", 1, MAX_GAMES), check_int(seed, "seed")
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    wins = net = 0
    for start in range(0, games, GAME_BLOCK):
        block = _play(strategy, seed, seed, range(start, min(start + GAME_BLOCK, games)), mech, lanes)
        bought, guess, target = block[2:5]
        correct = guess == target
        nets = _net_chips(correct, np.asarray(bought, dtype=np.int64))
        wins += int(np.count_nonzero(correct))
        net += int(nets.sum())
        if write is not None:
            write([_record_json(*_fields(strategy, lanes, *row), n) for row, n in zip(_rows(block), nets.tolist())])
    w = wins / games
    return MonteCarloSummary(games, w, net / games, binomial_band(w, games))


def write_transcript(records, fp) -> None:
    """Emit one GameRecord JSON object per line to a text file `fp`."""
    write = getattr(fp, "write", None)
    if not callable(write):
        raise DomainError(f"transcript file must have a write method, got {fp!r}")
    try:
        records = iter(records)
    except TypeError:
        raise DomainError(f"records must be an iterable of GameRecords, got {records!r}") from None
    for rec in records:
        if not isinstance(rec, GameRecord):
            raise DomainError(f"not a GameRecord: {rec!r}")
        write(rec.to_json() + "\n")


@dataclass(frozen=True)
class ParityTheoremReport:
    """Exhaust result: `failure_count` counts every failing (seed, deal), `failures` shows the first ones."""

    checked: int
    failure_count: int
    lanes: int
    failures: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.failure_count


def verify_parity_theorem(
    seeds=range(32), lanes: int = DEFAULT_LANES, mech: QuoinMechanics | None = None
) -> ParityTheoremReport:
    """Exhaust every deal: combined H count parity must equal double-1-lane parity.

    `seeds` holds 1..MAX_PARITY_SEEDS seeds. Deal d in 0..4**lanes - 1 deals Alice the mask
    d >> lanes and Bob the mask d mod 2**lanes (lane i at bit i, as in the game), and its lanes
    end (f, f ^ u) for game d's fair draws f = draws(seed, STREAM_MECH, d, lanes) and its
    unequal-lane mask u. As popcount(f) + popcount(f ^ u) = popcount(u) (mod 2) for any f, a
    deal fails for every seed or for none: the verdict reads no draw. `failures` shows the first
    MAX_FAILURE_LINES failing (seed, deal)s, for whose H counts each seed shown reads one run of games.
    """
    mech = _check_mech(mech)
    lanes = check_int(lanes, "lanes", 1, MAX_LANES)
    try:
        seeds = list(itertools.islice(seeds, MAX_PARITY_SEEDS + 1))
    except TypeError:
        raise DomainError(f"seeds must be an iterable of seeds, got {seeds!r}") from None
    if not 1 <= len(seeds) <= MAX_PARITY_SEEDS:
        raise DomainError(f"seeds must hold 1..{MAX_PARITY_SEEDS} seeds")
    seeds = tuple(check_int(seed, "seed") for seed in seeds)
    deals = np.arange(4**lanes, dtype=np.uint64)
    alice, bob = deals >> lanes, deals & (1 << lanes) - 1
    unequal = mech.unequal_lanes(alice, bob, lanes)
    failed = np.flatnonzero((popcount(unequal) ^ popcount(alice & bob)) & 1)
    failures = []
    for seed in seeds:
        shown = failed[: MAX_FAILURE_LINES - len(failures)]
        if not shown.size:
            break
        fair = draws(seed, STREAM_MECH, range(int(shown[-1]) + 1), lanes)[shown]
        for d, h in zip(shown.tolist(), (popcount(fair) + popcount(fair ^ unequal[shown])).tolist()):
            a, b = d >> lanes, d & (1 << lanes) - 1
            hands = f"alice={lane_bits(a, lanes)} bob={lane_bits(b, lanes)}"
            failures.append(f"seed {seed} deal {hands}: {h} H vs {popcount(a & b)} double-1 lanes")
    return ParityTheoremReport(len(seeds) * len(deals), len(seeds) * failed.size, lanes, tuple(failures))
