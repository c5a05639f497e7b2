"""One random-stream wiring: every draw in the package is a word of `rng`'s one re-keyed C Philox.

A game's draws, a `flip_pair` trial, the parity exhaust's lane outcomes and a
sampled trial all come from `rng.draws` or `rng.word_blocks`, which key the
same generator through `rng._key`. These tests hold `flip_pair` and the
exhaust to the game's mechanics stream, the samplers' word comparison to the
doubles numpy would draw, and a sampler sharing the generator with threads
that play games; a source scan keeps a second wiring out of the package.
"""

import ast
import itertools
import math
import pathlib
import re
import sys
import threading

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitlab import quoin, rng
from qubitlab.measure import tally
from qubitlab.quoin import MAX_LANES, STREAM_MECH, QuoinMechanics, QuoinStrategy, flip_pair, play_game
from qubitlab.rng import BLOCK, MAX_GAME, draws

SRC = pathlib.Path(quoin.__file__).parent
STARTS = list(itertools.product("HT", repeat=2))
FAILURE = re.compile(r"^seed (\d+) deal alice=(\(.*?\)) bob=(\(.*?\)): (\d+) H vs (\d+) double-1 lanes$")


def as_mask(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


class TestFlipPair:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        trial=st.integers(0, MAX_GAME),
        start=st.sampled_from(STARTS),
        mech=st.sampled_from([QuoinMechanics.standard(), QuoinMechanics.quantum_coin()]),
    )
    def test_is_lane_zero_of_the_game_at_that_index(self, seed, trial, start, mech):
        alice, bob = ("T", "H").index(start[0]), ("T", "H").index(start[1])
        record = play_game(QuoinStrategy(), 0, seed, game_index=trial, mech=mech, deal=((bob,), (alice,)))
        outcomes = tuple(line.split(": ")[1] for line in record.transcript[:2])
        assert flip_pair(mech, start, seed, trial) == outcomes

    @pytest.mark.parametrize("trial", [0, 1, 2**40, MAX_GAME])
    def test_reads_the_first_mechanics_draw_of_the_recipe(self, trial):
        f = oracles.recipe_bits(5, STREAM_MECH, trial, 1)[0]
        assert flip_pair(None, ("H", "H"), 5, trial) == ("TH"[f], "TH"[f ^ 1])


class TestParityExhaust:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), lanes=st.integers(1, 4))
    def test_lane_outcomes_are_the_recipe_mechanics_draws(self, seed, lanes):
        # under the quantum coin every lane ends equal, so a failing deal d's combined H count
        # is twice its fair draws: the first `lanes` bits of game d's word on the mechanics stream
        report = quoin.verify_parity_theorem([seed], lanes, QuoinMechanics.quantum_coin())
        assert report.failures
        for failure in report.failures:
            seed_text, alice, bob, combined_h, _ = FAILURE.match(failure).groups()
            alice, bob = (as_mask(re.findall(r"\d", hand)) for hand in (alice, bob))
            fair = oracles.recipe_bits(seed, STREAM_MECH, alice << lanes | bob, lanes)
            assert int(seed_text) == seed and int(combined_h) == 2 * sum(fair)

    def test_one_run_of_consecutive_deals_per_seed(self, monkeypatch):
        calls = []
        real_draws = quoin.draws

        def counted_draws(*args):
            calls.append(args)
            return real_draws(*args)

        monkeypatch.setattr(quoin, "draws", counted_draws)
        assert quoin.verify_parity_theorem(range(3), MAX_LANES).holds
        assert calls == [(s, STREAM_MECH, range(4**MAX_LANES), MAX_LANES) for s in range(3)]


class TestTallyWords:
    @pytest.mark.parametrize("edge", [0.0, 2**-60, 2**-53, 3 * 2**-53, 0.1, 0.5, 1 / 3, 1 - 2**-53, 1.0])
    def test_word_limits_count_the_doubles_below_each_edge(self, monkeypatch, edge):
        # words on both sides of each cell edge's limit, counted as numpy's doubles (w >> 11) * 2**-53
        c = math.ceil(edge * 2**53)
        near = {max(0, min(2**64 - 1, (c + dc << 11) + dw)) for dc in (-1, 0, 1) for dw in (-1, 0, 1)}
        words = np.array(sorted(near | {0, 2**64 - 1}), dtype=np.uint64)
        monkeypatch.setattr(rng, "word_blocks", lambda seed, n: iter([words]))
        below = int(np.count_nonzero((words >> np.uint64(11)) * 2.0**-53 < edge))
        assert tally((edge, 1.0 - edge), len(words), seed=0) == (below, len(words) - below)

    def test_a_sampler_beside_game_threads_keeps_its_counts(self):
        # the sampler re-keys the same C Philox as the games, block by block
        probs, n = (0.2, 0.3, 0.5), 3 * BLOCK + 5
        expected_tally = tally(probs, n, seed=9)
        games = range(100, 164)
        expected_games = {seed: draws(seed, STREAM_MECH, games, 64).tolist() for seed in range(3)}
        barrier, mismatches = threading.Barrier(4, timeout=60), []

        def sampler():
            barrier.wait()
            for _ in range(6):
                if tally(probs, n, seed=9) != expected_tally:
                    mismatches.append("tally")

        def player(seed):
            barrier.wait()
            for _ in range(300):
                if draws(seed, STREAM_MECH, games, 64).tolist() != expected_games[seed]:
                    mismatches.append(seed)

        threads = [threading.Thread(target=sampler), *(threading.Thread(target=player, args=(s,)) for s in range(3))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between a re-key and its read too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def names_by_scope():
    """(module file, enclosing function or None, name, whether it is called) for each name in src/qubitlab.

    The names are those of variables, attributes and imports (the last part of a dotted import).
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope, called=False):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if type(node) in NAME_FIELDS:
                found.append((path.name, scope, getattr(node, NAME_FIELDS[type(node)]).rpartition(".")[2], called))
            for child in ast.iter_child_nodes(node):
                visit(child, scope, isinstance(node, ast.Call) and child is node.func)

        visit(ast.parse(path.read_text(), str(path)), None)
    return found


class TestOneWiring:
    def test_seed_sequence_only_in_the_key_function(self):
        assert {(f, scope) for f, scope, name, _ in names_by_scope() if name == "SeedSequence"} == {("rng.py", "_key")}

    def test_no_generator_and_one_philox_and_one_lock(self):
        names = names_by_scope()
        # numpy.random (and the random module) are reached from rng.py alone, which builds no Generator
        assert {f for f, _, name, _ in names if name == "random"} == {"rng.py"}
        builders = ("Generator", "default_rng", "RandomState")
        assert not [(f, scope, name) for f, scope, name, _ in names if name in builders]
        assert [(f, scope) for f, scope, name, called in names if name == "Philox" and called] == [("rng.py", None)]
        assert [(f, scope) for f, scope, name, called in names if name == "Lock" and called] == [("rng.py", None)]

    def test_one_reader_of_raw_words(self):
        # `_run` is the one read of raw words, for `draws` and `word_blocks` alike, and the one holder of the lock
        names = names_by_scope()
        assert {(f, scope) for f, scope, name, _ in names if name == "random_raw"} == {("rng.py", "_run")}
        # _LOCK is made at module level and named once more, where `_run` enters it
        assert [(f, scope) for f, scope, name, _ in names if name == "_LOCK"] == [("rng.py", None), ("rng.py", "_run")]
