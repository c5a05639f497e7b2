"""Guards for the game engine.

One kernel in `rng` recomputes numpy's SeedSequence and Philox4x64-10 on
Python ints (one game index) and on arrays (many); `rng.draws` runs it on
either. These tests hold it to the real generator, and
`play_game`, `play_games` and `monte_carlo`, which all draw from that kernel,
to the per-game engine they replaced, `tests/oracles.py`.
"""

import itertools
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitlab import quoin
from qubitlab.errors import DomainError
from qubitlab.quoin import (
    ClassicalBitsStrategy,
    QuoinMechanics,
    QuoinStrategy,
    RandomStrategy,
    monte_carlo,
    play_game,
    play_games,
    summarize,
)
from qubitlab import rng
from qubitlab.rng import draws, philox

# game indices past one uint32 word: SeedSequence takes them as several words
WIDE_INDICES = [2**32, 2**40 + 3, 2**64 + 5]


def real_bits(seed, stream, games, k):
    return np.array([philox(seed, stream, int(g)).integers(0, 2, k) for g in games]).reshape(len(games), k)


def as_mask(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


def real_masks(seed, stream, games, k):
    return [as_mask(row) for row in real_bits(seed, stream, games, k)]


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        stream=st.integers(0, 2),
        games=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        k=st.integers(1, 64),
    )
    def test_rows_match_the_generator(self, seed, stream, games, k):
        # guards against numpy changing how Generator.integers consumes words
        expected = real_masks(seed, stream, games, k)
        # the same kernel on one int index, and on the index array
        assert [draws(seed, stream, g, k) for g in games] == expected
        assert draws(seed, stream, np.array(games), k).tolist() == expected

    @pytest.mark.parametrize("game", WIDE_INDICES)
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 2**200 + 12345])
    def test_wide_int_index_matches_the_generator(self, seed, game):
        for stream, k in itertools.product(range(3), (1, 5, 8, 16, 70)):
            assert draws(seed, stream, game, k) == as_mask(philox(seed, stream, game).integers(0, 2, k))

    def test_prefix_cache_is_bounded(self):
        for seed in range(10**6, 10**6 + rng.PREFIXES + 50):
            draws(seed, 0, 3, 4)
        assert rng._prefix.cache_info().currsize <= rng.PREFIXES
        assert rng._prefix.cache_info().maxsize == rng.PREFIXES

    @pytest.mark.parametrize("seed", [True, np.bool_(True)])
    def test_bool_seed_rejected_before_the_cache(self, seed):
        draws(1, 0, 3, 4)  # caches seed 1, which True equals
        with pytest.raises(DomainError):
            draws(seed, 0, 3, 4)
        with pytest.raises(DomainError):
            draws(1, seed, 3, 4)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 + 1, 2**200 + 12345])
    def test_consecutive_games_and_wide_seeds(self, seed):
        games = np.arange(2**32 - 40, 2**32, dtype=np.int64)
        assert draws(seed, 1, games, 24).tolist() == real_masks(seed, 1, games, 24)

    def test_split_draws_equal_one_draw(self):
        # the dealer draws its hands in pieces; the uint32 buffer carries over
        gen = philox(5, 0, 9)
        pieces = np.concatenate([gen.integers(0, 2, 3), gen.integers(0, 2, 5), gen.integers(0, 2, 7)])
        assert draws(5, 0, np.array([9]), 15).tolist() == [as_mask(pieces)]
        assert draws(5, 0, 9, 15) == as_mask(pieces)

    def test_empty_shapes(self):
        empty = draws(3, 0, np.array([], dtype=np.int64), 5)
        assert empty.dtype == np.uint64 and empty.shape == (0,)

    def test_zero_draws_give_one_zero_mask_per_index(self):
        # a sum over no Philox blocks used to return the int 0
        masks = draws(3, 0, np.array([1, 2]), 0)
        assert masks.dtype == np.uint64 and masks.tolist() == [0, 0]
        assert draws(3, 0, 1, 0) == 0

    @pytest.mark.parametrize("seed", [-1, -(2**40), True, np.bool_(False), 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError):
            philox(seed)
        with pytest.raises(DomainError):
            draws(seed, 0, np.array([0]), 4)

    def test_numpy_seed_accepted(self):
        assert draws(np.int64(7), 0, np.array([3]), 8).tolist() == real_masks(7, 0, [3], 8)

    @pytest.mark.parametrize(
        "games,k",
        [([-1], 4), ([2**32], 4), ([0.5], 4), ([[0, 1]], 4), ([0], -1), ([0], 2.0), ([0], True)],
    )
    def test_bad_indices_and_widths_rejected(self, games, k):
        with pytest.raises(DomainError):
            draws(1, 0, np.array(games), k)

    def test_bad_stream_rejected(self):
        with pytest.raises(DomainError):
            draws(1, -1, np.array([0]), 4)
        with pytest.raises(DomainError):
            philox(1, 0, -3)


def oracle_deals(seed, games, lanes):
    return [tuple(as_mask(hand) for hand in oracles.standard_dealer(philox(seed, 0, int(g)), lanes)) for g in games]


class TestDealer:
    @pytest.mark.parametrize("lanes", [1, 3, 4, 6, 8])
    def test_block_dealer_matches_the_oracle(self, lanes):
        # at 3 lanes one game in 8 has no non-zero candidate in its first Philox block:
        # many games still dealing go on as one array, the last few one at a time
        games = np.arange(2000, dtype=np.uint32)
        bob, alice = quoin._deal(13, games, lanes)
        assert list(zip(bob.tolist(), alice.tolist())) == oracle_deals(13, games, lanes)

    def test_games_dealing_past_64_draws_go_on_as_ints(self, monkeypatch):
        real = quoin.draws

        def no_candidates_in_arrays(seed, stream, game, k):
            mask = real(seed, stream, game, k)
            return mask if type(game) is int else mask & 0b11  # only Bob's hand at 2 lanes

        monkeypatch.setattr(quoin, "draws", no_candidates_in_arrays)
        games = np.arange(40, dtype=np.uint32)
        bob, alice = quoin._deal(13, games, 2)
        assert list(zip(bob.tolist(), alice.tolist())) == oracle_deals(13, games, 2)


STRATEGIES = {
    "quoin": QuoinStrategy(),
    "random": RandomStrategy(),
    "classical:0": ClassicalBitsStrategy(0),
    "classical:1": ClassicalBitsStrategy(1),
    "classical:3": ClassicalBitsStrategy(3),
}
MECHANICS = {"standard": QuoinMechanics.standard(), "quantum_coin": QuoinMechanics.quantum_coin()}


def outcome(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


class TestMonteCarloMatchesOracle:
    @pytest.mark.parametrize(
        "seed,lanes,mech", list(itertools.product([0, 7, 424242, 2**32, 2**64 + 5], range(1, 9), MECHANICS))
    )
    def test_summaries_equal(self, monkeypatch, seed, lanes, mech):
        # small blocks, so 100 games cross block boundaries and end on a partial one
        monkeypatch.setattr(quoin, "GAME_BLOCK", 32)
        for name, strategy in STRATEGIES.items():
            kw = {"mech": MECHANICS[mech], "lanes": lanes}
            expected = outcome(lambda: list(oracles.play_games(strategy, 100, seed, **kw)))
            # a strategy that cannot buy k bits across the lanes fails on every path
            assert (expected is DomainError) == (name == "classical:3" and lanes < 3), name
            assert outcome(lambda: list(play_games(strategy, 100, seed, **kw))) == expected, name
            singles = outcome(lambda: [play_game(strategy, seed, seed, game_index=g, **kw) for g in range(100)])
            assert singles == expected, name
            summary = expected if expected is DomainError else summarize(expected)
            assert outcome(lambda: monte_carlo(strategy, 100, seed, **kw)) == summary, name

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        mech_seed=st.integers(0, 2**70),
        games=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        lanes=st.integers(1, 8),
        name=st.sampled_from(sorted(STRATEGIES)),
        mech=st.sampled_from(sorted(MECHANICS)),
    )
    def test_any_game_index_matches_the_oracle(self, seed, mech_seed, games, lanes, name, mech):
        strategy, kw = STRATEGIES[name], {"mech": MECHANICS[mech], "lanes": lanes}

        def each(engine, mech_seed):
            return outcome(lambda: [engine.play_game(strategy, seed, mech_seed, game_index=g, **kw) for g in games])

        expected = each(oracles, seed)
        assert each(quoin, seed) == expected
        block = np.array(games, dtype=np.uint32)
        assert outcome(lambda: list(quoin._block_records(strategy, seed, block, **kw))) == expected
        # the mechanics draws follow mech_seed, the deal and the coin flips the dealer seed
        assert each(quoin, mech_seed) == each(oracles, mech_seed)

    @pytest.mark.parametrize("game", WIDE_INDICES)
    @pytest.mark.parametrize("lanes", [1, 5, 8])
    def test_wide_game_index_matches_the_oracle(self, game, lanes):
        for (name, strategy), mech in itertools.product(STRATEGIES.items(), MECHANICS.values()):
            kw = {"game_index": game, "mech": mech, "lanes": lanes}
            expected = outcome(lambda: oracles.play_game(strategy, 5, 9, **kw))
            assert outcome(lambda: play_game(strategy, 5, 9, **kw)) == expected, name

    def test_default_block_size(self):
        games = quoin.GAME_BLOCK + 37
        for strategy in (QuoinStrategy(), RandomStrategy()):
            kw = {"mech": QuoinMechanics.quantum_coin(), "lanes": 2}
            expected = list(oracles.play_games(strategy, games, 9, **kw))
            assert list(play_games(strategy, games, 9, **kw)) == expected
            assert monte_carlo(strategy, games, 9, **kw) == summarize(expected)

    def test_object_without_play_block_rejected(self):
        class Impostor:
            """Plays like a strategy, but is none of the three."""

            def play(self, mech, lanes, alice, bob, draw):
                return 0, 0, ()

            def transcript(self, lanes, alice, bob, guess):
                return ()

        for strategy in (Impostor(), object(), QuoinStrategy, "quoin", None):
            with pytest.raises(DomainError):
                monte_carlo(strategy, 10, 1)
            with pytest.raises(DomainError):
                list(play_games(strategy, 10, 1))

    def test_memory_stays_in_blocks(self):
        tracemalloc.start()
        try:
            monte_carlo(QuoinStrategy(), 10**5, 7, lanes=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
