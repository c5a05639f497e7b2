"""Guards for the game engine.

`rng.draws` reads random-stream contract v2: game g's draws on a stream are
the bits of word 0 of numpy's Philox(key=K(seed, stream), counter=g). Every
word comes from `rng._run`, one re-key of numpy's C Philox and one read: a
range of games is one `_run` of 4 * n words, and an int counter is a word of
the cached, aligned run of `rng.CHUNK` blocks that holds it. These tests hold
both to that recipe, at chunk edges and counter-word carries and from
several threads at once, check that a block of games re-keys each stream it
uses once and that the parity report re-keys once each seed whose failures
it shows, and none when no deal fails, and hold `play_game`, `monte_carlo`
and the block loop's transcript lines, which all draw through `rng._draws`, to the
per-game engine of `tests/oracles.py`, which plays from the recipe alone.
"""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitlab import quoin, rng
from qubitlab.errors import DomainError
from qubitlab.measure import tally
from qubitlab.quoin import (
    ClassicalBitsStrategy,
    GameRecord,
    QuoinMechanics,
    QuoinStrategy,
    RandomStrategy,
    monte_carlo,
    play_game,
)
from qubitlab.rng import CHUNK, MAX_GAME, draws

# game indices past one uint32 word, up to the last one
WIDE_INDICES = [2**32, 2**40 + 3, 2**63 + 5, MAX_GAME]


def as_mask(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


def recipe_masks(seed, stream, games, k):
    return [as_mask(oracles.recipe_bits(seed, stream, int(g), k)) for g in games]


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        stream=st.integers(0, 2),
        games=st.lists(st.integers(0, MAX_GAME), min_size=1, max_size=6),
        length=st.integers(0, 3 * CHUNK),
        k=st.integers(0, 64),
    )
    def test_ints_and_ranges_match_the_recipe(self, seed, stream, games, length, k):
        # one scalar read per int index, and one read for a range of games from the first index
        assert [draws(seed, stream, g, k) for g in games] == recipe_masks(seed, stream, games, k)
        block = range(games[0], min(games[0] + length, MAX_GAME + 1))
        assert draws(seed, stream, block, k).tolist() == recipe_masks(seed, stream, block, k)

    @pytest.mark.parametrize("game", WIDE_INDICES)
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 2**200 + 12345])
    def test_wide_seeds_and_indices_match_the_recipe(self, seed, game):
        for stream, k in itertools.product(range(3), (0, 1, 5, 8, 16, 64)):
            assert draws(seed, stream, game, k) == recipe_masks(seed, stream, [game], k)[0]
            assert draws(seed, stream, range(game, game + 1), k).tolist() == [draws(seed, stream, game, k)]

    @pytest.mark.parametrize("widening", [1, 2, 2**64 - 1])
    def test_widening_counters_match_the_recipe(self, widening):
        for game in (0, 5, MAX_GAME):
            counter = game + widening * oracles.WIDENING
            assert draws(3, 0, counter, 64) == as_mask(oracles.recipe_bits(3, 0, counter))

    # scattered games are read one int at a time, numpy ints of either signedness too, with the recipe's masks
    @pytest.mark.parametrize(
        "games",
        [
            [9, 8, 7, 6, 5],  # descending
            [5, 5, 6, 6, 7, 3, 3],  # duplicated indices
            [0, 100, 1, 101, 2, 102, 3, 4, 5],  # interleaved runs
            [*range(2**32 - 3, 2**32 + 3), 7, 8],  # a run crossing 2**32, then a short one
            [40, 41, *range(MAX_GAME - 4, MAX_GAME + 1)],  # a run ending at the last game index
            [MAX_GAME, 0, MAX_GAME - 1, MAX_GAME],  # no wrap from the last index back to 0
        ],
        ids=["descending", "duplicated", "interleaved", "across-2**32", "to-MAX_GAME", "no-wrap"],
    )
    def test_scattered_ints_match_the_recipe(self, games):
        for dtype in (int, np.uint64, np.int64) if max(games) < 2**63 else (int, np.uint64):
            for seed, stream, k in ((0, 0, 64), (2**64 + 5, 1, 8), (424242, 2, 1)):
                masks = [draws(seed, stream, dtype(g), k) for g in games]
                assert masks == recipe_masks(seed, stream, games, k), (dtype, seed, stream)

    # ranges at 0, across chunk edges and 2**32, ending at MAX_GAME, and empty ones
    RANGES = [
        range(0, 1), range(0, 3 * CHUNK + 1), range(CHUNK - 2, CHUNK + 2), range(7 * CHUNK - 1, 9 * CHUNK + 1),
        range(2**32 - 3, 2**32 + 3), range(MAX_GAME - 2 * CHUNK, MAX_GAME + 1), range(MAX_GAME, MAX_GAME + 1),
        range(0, 0), range(5, 3), range(MAX_GAME + 1, MAX_GAME + 1),
    ]

    @pytest.mark.parametrize("games", RANGES, ids=repr)
    def test_ranges_match_the_ints_and_the_recipe(self, games):
        for seed, stream, k in ((0, 0, 64), (2**64 + 5, 1, 8), (424242, 2, 1)):
            masks = draws(seed, stream, games, k)
            assert masks.dtype == np.uint64 and masks.shape == (len(games),)
            assert masks.tolist() == [draws(seed, stream, g, k) for g in games]
            assert masks.tolist() == recipe_masks(seed, stream, games, k), (seed, stream)

    def test_threads_share_the_rekeyed_generator(self):
        # each thread re-keys the one C Philox, for int indices and for several ranges in a row, beside
        # a sampler that re-keys it block by block; its masks must still be its own games', and the counts
        # the sampler's. Each worker's int sweeps touch more chunks per round than the cache keeps, so every
        # int read, the single int games' too, misses the cache and re-keys the generator in every round.
        ranges = {s: (range(s, s + 3), range(2**40 + s, 2**40 + s + 2), range(7, 8)) for s in range(4)}
        sweeps = {seed: [g * CHUNK + seed for g in range(1, rng.CHUNKS // 2 + 1)] for seed in range(4)}
        cases = [
            (seed, stream, game, k)
            for seed in range(4)
            for stream in range(3)
            for game, k in ((seed, 16), (2**40 + seed, 64), ("ranges", 64), ("sweep", 64))
        ]
        games = {"ranges": {s: [g for r in ranges[s] for g in r] for s in range(4)}, "sweep": sweeps}
        expected = {
            case: recipe_masks(*case[:2], games[case[2]][case[0]] if case[2] in games else [case[2]], case[3])
            for case in cases
        }
        probs, n = (0.2, 0.3, 0.5), 3 * rng.BLOCK + 5
        expected_tally = tally(probs, n, seed=9)
        barrier, mismatches, tallies, done = threading.Barrier(5, timeout=60), [], [], threading.Event()

        def worker(seed):
            barrier.wait()
            for _ in range(200):
                for case in cases:
                    if case[0] != seed:
                        continue
                    s, stream, game, k = case
                    if game == "ranges":
                        got = [mask for r in ranges[s] for mask in draws(s, stream, r, k).tolist()]
                    else:
                        got = [draws(s, stream, g, k) for g in (sweeps[s] if game == "sweep" else [game])]
                    if got != expected[case]:
                        mismatches.append(case)

        def sampler():
            barrier.wait()
            while not done.is_set():
                tallies.append(tally(probs, n, seed=9))
                if tallies[-1] != expected_tally:
                    mismatches.append("tally")

        rng._chunk.cache_clear()
        threads = [threading.Thread(target=sampler), *(threading.Thread(target=worker, args=(s,)) for s in range(4))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between the re-key and the read too
        try:
            for t in threads:
                t.start()
            for t in threads[1:]:
                t.join(timeout=60)
        finally:
            done.set()
            threads[0].join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches and tallies
        assert rng._chunk.cache_info().hits == 0

    @pytest.mark.parametrize("strategy", [QuoinStrategy(), RandomStrategy(), ClassicalBitsStrategy(2)])
    def test_a_block_of_games_rekeys_once_per_draws_call(self, monkeypatch, strategy):
        streams = {QuoinStrategy: (0, 1), RandomStrategy: (0, 2), ClassicalBitsStrategy: (0,)}[type(strategy)]
        calls, runs = [], []
        # the engine reads through rng._draws, under a key its public caller derived from checked seeds
        real_draws, real_run = quoin._draws, rng._run

        def counted_draws(*args):
            calls.append(args)
            return real_draws(*args)

        def counted_run(*args):
            runs.append(args)
            return real_run(*args)

        monkeypatch.setattr(quoin, "_draws", counted_draws)
        monkeypatch.setattr(rng, "_run", counted_run)
        games = 2 * quoin.GAME_BLOCK + 5
        assert monte_carlo(strategy, games, 7, lanes=3).games == games
        # a block is one run of consecutive games: one re-key per draws call, not one per game, and so
        # one re-key of each stream the strategy uses, at the block's first game (widening words aside)
        starts = range(0, games, quoin.GAME_BLOCK)
        assert len(calls) == len(runs) == len(starts) * len(streams)
        reads = sorted(read[:2] for read in runs if read[1] < quoin.WIDEN)
        assert reads == sorted((rng._key(7, stream), start) for stream in streams for start in starts)

    def test_the_parity_report_rekeys_once_per_seed_when_its_failures_are_read(self, monkeypatch):
        runs = []
        real_run = rng._run
        monkeypatch.setattr(rng, "_run", lambda *args: runs.append(args) or real_run(*args))
        assert quoin.verify_parity_theorem(range(3), quoin.MAX_LANES).failures == ()
        assert runs == []
        report = quoin.verify_parity_theorem(range(3), 4, quoin.QuoinMechanics.quantum_coin())
        assert len(report.failures) == 3 * 120
        # word 0 of each deal's block, up to the last failing deal, 254 (Alice 1111, Bob 0111)
        assert runs == [(rng._key(seed, quoin.STREAM_MECH), 0, 4 * 255) for seed in range(3)]

    # counters at both edges of a chunk, across the carries of counter words 0 and 1, at widening
    # counters g + r * 2**192 and at the top of the counter range
    RUN_EDGES = [
        0, CHUNK, 7 * CHUNK, 2**32, 2**64, 2**128, oracles.WIDENING, CHUNK + 2 * oracles.WIDENING,
        MAX_GAME + 1 + (2**64 - 1) * oracles.WIDENING, 2**256 - CHUNK,
    ]

    @pytest.mark.parametrize("edge", RUN_EDGES)
    def test_int_counters_read_their_chunk(self, edge):
        counters = [c for c in range(edge - 2, edge + 2) if 0 <= c < 2**256] + [edge + CHUNK - 1, 2**256 - 1]
        for order in (counters, counters[::-1]):  # from a cold cache, each chunk first read at either end
            rng._chunk.cache_clear()
            for seed, stream in ((5, 0), (2**64 + 5, 2)):
                assert [draws(seed, stream, c, 64) for c in order] == recipe_masks(seed, stream, order, 64)

    def test_chunk_cache_is_bounded(self):
        draws(1, 0, 0, 64)
        rng._chunk.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for start in range(0, (rng.CHUNKS + 50) * CHUNK, CHUNK):
                draws(10**6, 1, start + 3, 64)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rng._chunk.cache_info().currsize == rng._chunk.cache_info().maxsize == rng.CHUNKS
        assert held <= 256 * 1024

    def test_consecutive_ints_share_one_read_per_chunk(self, monkeypatch):
        runs = []
        real_run = rng._run
        monkeypatch.setattr(rng, "_run", lambda *args: runs.append(args) or real_run(*args))
        rng._chunk.cache_clear()
        for g in range(5 * CHUNK + 3, 9 * CHUNK + 3):
            play_game(QuoinStrategy(), 41, 42, game_index=g)
        # games 83..146 lie in chunks 5..9: five reads on each of the deal and mechanics streams, widening words aside
        assert {n for _, _, n in runs} == {4 * CHUNK}
        assert len(runs) - sum(counter >= oracles.WIDENING for _, counter, _ in runs) == 2 * 5

    def test_key_cache_is_bounded(self):
        for seed in range(10**6, 10**6 + rng.KEYS + 50):
            draws(seed, 0, 3, 4)
        assert rng._key.cache_info().currsize <= rng.KEYS
        assert rng._key.cache_info().maxsize == rng.KEYS

    @pytest.mark.parametrize("seed", [True, np.bool_(True)])
    def test_bool_seed_rejected_before_the_cache(self, seed):
        for games in (3, range(3)):
            draws(1, 0, games, 4)  # caches seed 1, which True equals
            with pytest.raises(DomainError):
                draws(seed, 0, games, 4)
            with pytest.raises(DomainError):
                draws(1, seed, games, 4)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 + 1, 2**200 + 12345])
    def test_consecutive_games_and_wide_seeds(self, seed):
        for games in (range(2**32 - 40, 2**32 + 40), range(MAX_GAME - 40, MAX_GAME + 1)):
            assert draws(seed, 1, games, 24).tolist() == recipe_masks(seed, 1, games, 24)

    def test_adjacent_games_are_uncorrelated(self):
        # every bit of game g against every bit of game g + 1 on each stream: as +-1 values, each of
        # the 64 x 64 mean products is 0 +- 1/sqrt(n) for independent fair bits; all must lie within 5 sigma
        n, chunk = 2**17, 2**13
        for stream in range(3):
            words = draws(11, stream, range(n + 1), 64)
            products = np.zeros((64, 64))
            for start in range(0, n, chunk):
                block = words[start : start + chunk + 1]
                signs = 1.0 - 2.0 * (block[:, None] >> np.arange(64, dtype=np.uint64) & 1).astype(np.float32)
                products += signs[:-1].T @ signs[1:]
            assert np.abs(products / n).max() < 5 / np.sqrt(n), stream

    def test_zero_draws_give_one_zero_mask_per_index(self):
        masks = draws(3, 0, range(1, 3), 0)
        assert masks.dtype == np.uint64 and masks.tolist() == [0, 0]
        assert draws(3, 0, 1, 0) == 0

    @pytest.mark.parametrize("seed", [-1, -(2**40), True, np.bool_(False), 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError):
            draws(seed, 0, range(1), 4)

    def test_numpy_seed_accepted(self):
        assert draws(np.int64(7), 0, range(3, 4), 8).tolist() == recipe_masks(7, 0, [3], 8)

    @pytest.mark.parametrize(
        "games,k", [(range(1), -1), (range(1), 65), (range(1), 2.0), (range(1), True), (2**256, 4), (-1, 4), (0, 65)]
    )
    def test_bad_indices_and_widths_rejected(self, games, k):
        with pytest.raises(DomainError):
            draws(1, 0, games, k)

    def test_bad_stream_rejected(self):
        with pytest.raises(DomainError):
            draws(1, -1, range(1), 4)
        with pytest.raises(DomainError):
            draws(1, -1, 0, 4)


def oracle_deals(seed, games, lanes):
    return [tuple(as_mask(hand) for hand in oracles.standard_dealer(seed, int(g), lanes)) for g in games]


class TestDealer:
    @pytest.mark.parametrize("lanes", [1, 3, 4, 6, 8])
    def test_block_dealer_matches_the_oracle(self, lanes):
        expected = oracle_deals(13, range(2000), lanes)
        bob, alice = quoin._deal(13, range(2000), lanes)
        assert list(zip(bob.tolist(), alice.tolist())) == expected

    @pytest.mark.parametrize("widenings", [1, 2])
    @pytest.mark.parametrize("lanes", [2, 6])
    def test_forced_widening_deals_from_the_widening_words(self, monkeypatch, lanes, widenings):
        # no word before widening word `widenings` holds a candidate: the deal word keeps only Bob's hand
        real = quoin._draws

        def no_candidates_before(key, counter, k):
            mask = real(key, counter, k)
            if type(counter) is not int or counter < quoin.WIDEN:
                return mask & (1 << lanes) - 1
            return mask if counter >= widenings * quoin.WIDEN else 0

        monkeypatch.setattr(quoin, "_draws", no_candidates_before)
        expected = [
            (as_mask(oracles.recipe_bits(13, 0, g, lanes)),
             as_mask(next(h for h in oracles.alice_candidates(13, g, lanes, widenings) if any(h))))
            for g in range(40)
        ]
        bob, alice = quoin._deal(13, range(40), lanes)
        assert list(zip(bob.tolist(), alice.tolist())) == expected
        assert [quoin._deal(13, g, lanes) for g in range(40)] == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lanes=st.integers(1, quoin.MAX_LANES), first=st.sampled_from([0, 1]))
    def test_first_group_of_a_word_array_matches_the_int_path(self, data, lanes, first):
        # each word has a chosen run of zero lane groups from group `first` on, then a non-zero group unless
        # the run reaches the last whole group, as the last word's does; the groups before `first` and the
        # spare top bits are random
        groups, full = 64 // lanes, (1 << lanes) - 1
        words = []
        for zeros in [*data.draw(st.lists(st.integers(0, groups - first), max_size=12)), groups - first]:
            word = data.draw(st.integers(0, 2**64 - 1)) & ~(((1 << lanes * zeros) - 1) << lanes * first)
            if first + zeros < groups:
                word |= data.draw(st.integers(1, full)) << lanes * (first + zeros)
            words.append(word)
        hands = [quoin._first_group(word, lanes, first) for word in words]
        assert hands[-1] == 0
        assert quoin._first_group(np.array(words, dtype=np.uint64), lanes, first).tolist() == hands

    def test_widening_words_are_the_oracles_last_resort(self):
        # the oracle reads its widening words only when the deal word holds no candidate
        candidates = oracles.alice_candidates(13, 7, 5)
        first_word = [next(candidates) for _ in range(64 // 5 - 1)]
        assert first_word == [oracles.recipe_bits(13, 0, 7)[i : i + 5] for i in range(5, 60, 5)]
        assert next(candidates) == oracles.recipe_bits(13, 0, 7 + oracles.WIDENING)[:5]


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
            singles = outcome(lambda: [play_game(strategy, seed, seed, game_index=g, **kw) for g in range(100)])
            assert singles == expected, name
            summary = expected if expected is DomainError else oracles.summary(expected)
            assert outcome(lambda: monte_carlo(strategy, 100, seed, **kw)) == summary, name

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        mech_seed=st.integers(0, 2**70),
        games=st.lists(st.integers(0, MAX_GAME), min_size=1, max_size=6),
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

        # blocks at the same indices: a range of up to 3 games from each, played and read back as rows
        blocks = [range(g, min(g + 3, MAX_GAME + 1)) for g in games]

        def block():
            plays = (quoin._play(strategy, seed, seed, b, MECHANICS[mech], lanes) for b in blocks)
            return [GameRecord(*quoin._fields(strategy, lanes, *row)) for play in plays for row in quoin._rows(play)]

        assert outcome(block) == outcome(lambda: [
            oracles.play_game(strategy, seed, seed, game_index=g, **kw) for b in blocks for g in b
        ])
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
            expected, lines = list(oracles.play_games(strategy, games, 9, **kw)), []
            monte_carlo(strategy, games, 9, **kw, write=lines.extend)
            assert lines == [oracles.record_json(record) for record in expected]
            assert monte_carlo(strategy, games, 9, **kw) == oracles.summary(expected)

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
                play_game(strategy, 10, 1)

    def test_memory_stays_in_blocks(self):
        tracemalloc.start()
        try:
            monte_carlo(QuoinStrategy(), 10**5, 7, lanes=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
