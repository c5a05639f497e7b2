import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitlab import quoin
from qubitlab.errors import DomainError
from qubitlab.quoin import (
    MAX_FAILURE_LINES,
    MAX_GAMES,
    MAX_LANES,
    MAX_PARITY_SEEDS,
    RIGGINGS,
    ClassicalBitsStrategy,
    GameRecord,
    QuoinMechanics,
    QuoinStrategy,
    RandomStrategy,
    enumerate_riggings,
    flip_pair,
    monte_carlo,
    play_game,
    verify_parity_theorem,
)
from qubitlab.rng import MAX_GAME

TABLE_DEAL = ((1, 0, 1, 1, 0), (1, 0, 0, 1, 1))  # (bob, alice)

START_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))  # (alice, bob) start bits
# every mechanics: each of the 16 subsets of start pairs listed as unequal
ALL_MECHANICS = [
    QuoinMechanics(frozenset(pairs)) for r in range(5) for pairs in itertools.combinations(START_PAIRS, r)
]


def mechanics_id(mech: QuoinMechanics) -> str:
    """The unequal start pairs as sorted H/T text, "HHTT" for {(1, 1), (0, 0)}: unique per mechanics."""
    return "".join(sorted("TH"[a] + "TH"[b] for a, b in mech.unequal_starts))


class TestMechanics:
    def test_hh_start_never_equal(self):
        mech = QuoinMechanics.standard()
        unequal_bits = []
        for trial in range(10_000):
            a, b = flip_pair(mech, (1, 1), seed=2, trial=trial)
            assert a != b
            unequal_bits.append(a == 1)
        # the two unequal outcomes split 50/50 within 3 sigma
        rate = np.mean(unequal_bits)
        assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / 10_000)

    def test_tt_start_never_unequal(self):
        mech = QuoinMechanics.standard()
        for trial in range(10_000):
            a, b = flip_pair(mech, (0, 0), seed=3, trial=trial)
            assert a == b

    @pytest.mark.parametrize("start", [(1, 0), (0, 1)])
    def test_mixed_starts_equal(self, start):
        mech = QuoinMechanics.standard()
        for trial in range(2000):
            a, b = flip_pair(mech, start, seed=4, trial=trial)
            assert a == b

    def test_flip_pure_in_seed_and_trial(self):
        mech = QuoinMechanics.standard()
        assert flip_pair(mech, (1, 1), 11, 7) == flip_pair(mech, (1, 1), 11, 7)

    def test_quantum_coin_hh_equal(self):
        mech = QuoinMechanics.quantum_coin()
        for trial in range(2000):
            a, b = flip_pair(mech, (1, 1), seed=5, trial=trial)
            assert a == b

    # an H/T pair used to be the only start accepted; coins are bits now
    @pytest.mark.parametrize("start", [(1, 2), ("H", "H"), ["T", "H"]])
    def test_bad_start_rejected(self, start):
        with pytest.raises(DomainError):
            flip_pair(QuoinMechanics.standard(), start, 0, 0)

    def test_lane_table(self):
        # u[a][b] over start bits (1 = H): only heads-heads ends unequal
        assert QuoinMechanics.standard().u == ((0, 0), (0, 1))
        assert QuoinMechanics.quantum_coin().u == ((0, 0), (0, 0))

    @pytest.mark.parametrize("mech", ALL_MECHANICS, ids=mechanics_id)
    def test_unequal_lanes_are_the_table_lane_by_lane_in_the_hands_type(self, mech):
        # the quantum coin lists no unequal start, and used to give the int 0 for mask arrays
        for lanes in (1, 2, 4):
            hands = np.arange(4**lanes, dtype=np.uint64)
            alice, bob = hands >> lanes, hands & (1 << lanes) - 1
            unequal = mech.unequal_lanes(alice, bob, lanes)
            assert type(unequal) is np.ndarray and unequal.dtype == np.uint64 and unequal.shape == hands.shape
            for a, b, u in zip(alice.tolist(), bob.tolist(), unequal.tolist()):
                one = mech.unequal_lanes(a, b, lanes)
                assert type(one) is int and one == u
                assert [u >> i & 1 for i in range(lanes)] == [mech.u[a >> i & 1][b >> i & 1] for i in range(lanes)]

    # the last two hold H/T pairs, once the only start pairs accepted
    @pytest.mark.parametrize(
        "starts", [{"11"}, {(1, 2)}, {(1,)}, {(1, 1, 0)}, {(1, 1), "00"}, {("H", "H")}, {(1, 1), ("H", "T")}]
    )
    def test_malformed_mechanics_rejected(self, starts):
        with pytest.raises(DomainError):
            QuoinMechanics(frozenset(starts))

    @pytest.mark.parametrize("starts", [5, None, [1], [(1, 1), None]])
    def test_starts_that_are_no_collection_of_pairs_rejected(self, starts):
        # each used to escape as TypeError
        with pytest.raises(DomainError):
            QuoinMechanics(starts)

    @pytest.mark.parametrize("starts", [[(1, 1)], ([1, 1],), {(1, 1)}])
    def test_any_collection_of_pairs_stores_a_frozenset(self, starts):
        # a list used to be stored as given, which made the frozen mechanics unhashable
        mech = QuoinMechanics(starts)
        assert mech.unequal_starts == frozenset({(1, 1)})
        assert mech == QuoinMechanics.standard()
        assert hash(mech) == hash(QuoinMechanics.standard())

    @pytest.mark.parametrize(
        "pair", [(1, 1), [1, 1], (np.int64(1), np.uint8(1)), [np.int8(1), 1]], ids=["tuple", "list", "numpy", "mixed"]
    )
    def test_bit_pairs_accepted_as_tuples_lists_and_numpy_ints(self, pair):
        mech = QuoinMechanics([pair])
        assert mech == QuoinMechanics.standard()
        assert all(type(bit) is int for start in mech.unequal_starts for bit in start)
        assert flip_pair(mech, pair, 3, 4) == flip_pair(mech, (1, 1), 3, 4)

    @pytest.mark.parametrize("start", START_PAIRS)
    def test_flip_returns_two_python_ints(self, start):
        for mech in (QuoinMechanics.standard(), QuoinMechanics.quantum_coin()):
            for trial in (0, 1, MAX_GAME):
                outcome = flip_pair(mech, start, 9, trial)
                assert type(outcome) is tuple and len(outcome) == 2
                assert all(type(bit) is int and bit in (0, 1) for bit in outcome)


class TestRiggings:
    def test_no_rigging_reproduces_the_mechanics(self):
        scan = enumerate_riggings()
        assert scan.valid == ()
        assert len(scan.failures) == 16

    def test_each_failure_names_a_violated_cell(self):
        for failure in enumerate_riggings().failures:
            # re-apply the rigging pair to the reported start and confirm the violation
            (a, b), ra, rb = failure.start, failure.alice_rigging, failure.bob_rigging
            outcome = (RIGGINGS[ra][a], RIGGINGS[rb][b])
            assert outcome == failure.outcome
            unequal = outcome[0] != outcome[1]
            if failure.required == "unequal":
                assert not unequal
            else:
                assert unequal

    def test_same_other_pair_passes_hh_row(self):
        # (S, O) turns an HH start into (H, T): unequal, as the HH row wants
        assert (RIGGINGS["S"][1], RIGGINGS["O"][1]) == (1, 0)

    def test_same_other_pair_fails_tt_row(self):
        # but the same pair turns TT into (T, H): unequal where equal is required
        assert (RIGGINGS["S"][0], RIGGINGS["O"][0]) == (0, 1)
        failure = next(
            f
            for f in enumerate_riggings().failures
            if (f.alice_rigging, f.bob_rigging) == ("S", "O")
        )
        assert failure.start == (0, 0)
        assert failure.required == "equal"

    def test_riggings_are_the_four_single_coin_rules(self):
        # each rule's outcome bit by start bit: ends heads, ends tails, same, other
        assert RIGGINGS == {"H": (1, 1), "T": (0, 0), "S": (0, 1), "O": (1, 0)}

    def test_failure_fields_are_bit_pairs(self):
        # start and outcome used to be H/T symbol pairs
        for mech in (QuoinMechanics.standard(), QuoinMechanics.quantum_coin()):
            for failure in enumerate_riggings(mech).failures:
                for pair in (failure.start, failure.outcome):
                    assert type(pair) is tuple and len(pair) == 2
                    assert all(type(bit) is int and bit in (0, 1) for bit in pair)


class TestGameAccounting:
    def test_table_deal_quoin_strategy(self):
        record = play_game(QuoinStrategy(), 1, 1, deal=TABLE_DEAL)
        assert record.target_parity == "even"  # lanes 1 and 4 hold double 1s
        assert record.bits_bought == 1
        assert record.guess == "even"
        assert record.correct
        assert record.chips_net == 4

    def test_table_deal_classical_three_bits(self):
        record = play_game(ClassicalBitsStrategy(3), 1, 1, deal=TABLE_DEAL)
        # Alice asks lanes 1, 4, 5; Bob reveals 1, 1, 0; answer even; break even
        assert record.bits_bought == 3
        assert record.guess == "even"
        assert record.correct
        assert record.chips_net == 0

    def test_all_zero_alice_needs_no_bits(self):
        deal = ((1, 1, 0, 1, 0), (0, 0, 0, 0, 0))
        for strategy in (ClassicalBitsStrategy(3), ClassicalBitsStrategy(5)):
            record = play_game(strategy, 1, 1, deal=deal)
            assert record.bits_bought == 0
            assert record.guess == "even"
            assert record.correct
            assert record.chips_net == 6
        random_record = play_game(RandomStrategy(), 1, 1, deal=deal)
        assert random_record.bits_bought == 0

    def test_quoin_strategy_wins_any_deal(self):
        rng = np.random.default_rng(61)
        for trial in range(200):
            bob = tuple(int(v) for v in rng.integers(0, 2, 5))
            alice = tuple(int(v) for v in rng.integers(0, 2, 5))
            record = play_game(QuoinStrategy(), 7, trial, deal=(bob, alice))
            assert record.correct
            assert record.chips_net == 4

    def test_chips_net_is_pure_function_of_outcome(self):
        win = GameRecord((1,), (1,), "odd", 2, "odd")
        loss = GameRecord((1,), (1,), "odd", 2, "even")
        assert win.chips_net == 6 - 2 * 2
        assert loss.chips_net == -6

    def test_record_json_line(self):
        record = play_game(QuoinStrategy(), 1, 1, deal=TABLE_DEAL)
        obj = json.loads(record.to_json())
        assert obj["bob_bits"] == [1, 0, 1, 1, 0]
        assert obj["chips_net"] == 4
        assert obj["target_parity"] == "even"

    def test_too_many_bits_rejected(self):
        with pytest.raises(DomainError):
            play_game(ClassicalBitsStrategy(6), 1, 1, deal=TABLE_DEAL)
        with pytest.raises(DomainError):
            ClassicalBitsStrategy(-1)

    @pytest.mark.parametrize(
        "deal",
        [
            ((2, 0), (1, 1)), (("1", 0), (1, 1)), ((1, 0), (1, -1)), ((), ()),
            # these used to escape as TypeError, TypeError, IndexError and ValueError
            5, (None, None), ((1,),), (np.array([[1, 0]]), np.array([[1, 0]])), ((1,), (1,), (1,)),
        ],
    )
    def test_bad_deal_rejected(self, deal):
        with pytest.raises(DomainError):
            play_game(QuoinStrategy(), 1, 1, deal=deal)

    @pytest.mark.parametrize("lanes", [0, -1, -2, MAX_LANES + 1, 2.5])
    def test_lanes_out_of_range_rejected(self, lanes):
        with pytest.raises(DomainError):
            play_game(QuoinStrategy(), 1, 1, lanes=lanes)
        with pytest.raises(DomainError):
            monte_carlo(QuoinStrategy(), 10, seed=1, lanes=lanes)
        with pytest.raises(DomainError):
            verify_parity_theorem(seeds=[0], lanes=lanes)

    def test_object_without_play_rejected(self):
        class Impostor:
            """Plays like a strategy, but is none of the three."""

            def play(self, mech, lanes, alice, bob, draw):
                return 0, 0, ()

        for strategy in (object(), Impostor(), QuoinStrategy, "quoin", None):
            with pytest.raises(DomainError):
                play_game(strategy, 1, 1)
            with pytest.raises(DomainError):
                play_game(strategy, 1, 1, deal=TABLE_DEAL)

    def test_deal_bits_recorded_as_ints(self):
        # equal-valued float, numpy and bool bits play and serialise as the int deal does
        deal = ((1.0, np.int64(0), True, 1, 0), (1, 0, 0, 1, 1))
        record = play_game(QuoinStrategy(), 1, 1, deal=deal)
        assert record == play_game(QuoinStrategy(), 1, 1, deal=TABLE_DEAL)
        assert json.loads(record.to_json())["bob_bits"] == [1, 0, 1, 1, 0]

    def test_games_reproducible(self):
        a = play_game(QuoinStrategy(), 9, 9, game_index=4)
        b = play_game(QuoinStrategy(), 9, 9, game_index=4)
        assert a == b


MECHANICS = [QuoinMechanics.standard(), QuoinMechanics.quantum_coin()]


def strategies_for(lanes):
    """Every strategy that can play `lanes` lanes: the quoin one, the random one, and k = 0..lanes classical bits."""
    return st.sampled_from([QuoinStrategy(), RandomStrategy(), *map(ClassicalBitsStrategy, range(lanes + 1))])


class TestInteractiveIO:
    @pytest.mark.parametrize("bad", [None, "n", 3])
    @pytest.mark.parametrize("io", ["input_fn", "say"])
    def test_io_that_is_not_callable_refused_before_any_output(self, io, bad):
        # a None say used to print nothing and fail with TypeError; a None input_fn did so after two lines
        said = []
        fns = {"input_fn": lambda prompt: "n", "say": said.append, io: bad}
        with pytest.raises(DomainError):
            quoin.run_interactive_game(1, None, 3, fns["input_fn"], fns["say"])
        assert said == []

    @pytest.mark.parametrize("bad", [1, None, b"y", ["y"]])
    @pytest.mark.parametrize("position", [0, 1])
    def test_an_answer_that_is_not_a_string_refused(self, position, bad):
        # an int answer used to escape as AttributeError
        answers = iter(["y", "even"][:position] + [bad])
        with pytest.raises(DomainError):
            quoin.run_interactive_game(1, None, 3, lambda prompt: next(answers), lambda line: None)


class TestRecordFormatter:
    """`GameRecord.to_json` is the one record formatter: its bytes are json.dumps of the record's fields."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lanes=st.integers(1, MAX_LANES), mech=st.sampled_from(MECHANICS))
    def test_play_game_lines_are_json_dumps(self, data, lanes, mech):
        strategy = data.draw(strategies_for(lanes))
        seed, game = data.draw(st.integers(0, 2**70)), data.draw(st.integers(0, MAX_GAME))
        record = play_game(strategy, seed, seed + 1, game_index=game, mech=mech, lanes=lanes)
        assert record.to_json() == oracles.record_json(record)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lanes=st.integers(1, MAX_LANES), mech=st.sampled_from(MECHANICS))
    def test_consecutive_game_lines_are_json_dumps(self, data, lanes, mech):
        strategy, seed = data.draw(strategies_for(lanes)), data.draw(st.integers(0, 2**40))
        for game in range(data.draw(st.integers(1, 40))):
            record = play_game(strategy, seed, seed, game_index=game, mech=mech, lanes=lanes)
            assert record.to_json() == oracles.record_json(record)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        lanes=st.integers(1, MAX_LANES),
        mech=st.sampled_from(MECHANICS),
        block=st.sampled_from([1, 3, 16, 37]),
    )
    def test_block_lines_are_the_oracle_records(self, data, lanes, mech, block):
        # `game simulate --transcript`'s path: the lines come from the block loop's rows, not from GameRecords;
        # small blocks, so a few games cross block boundaries and end on a partial block
        strategy = data.draw(strategies_for(lanes))
        seed, games = data.draw(st.integers(0, 2**70)), data.draw(st.integers(1, 3 * block + 2))
        lines, kw = [], {"mech": mech, "lanes": lanes}
        with mock.patch.object(quoin, "GAME_BLOCK", block):
            summary = monte_carlo(strategy, games, seed, **kw, write=lines.extend)
            records = list(oracles.play_games(strategy, games, seed, **kw))
            assert lines == [oracles.record_json(record) for record in records]
            assert summary == monte_carlo(strategy, games, seed, **kw) == oracles.summary(records)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**40),
        lanes=st.integers(1, MAX_LANES),
        mech=st.sampled_from(MECHANICS),
        answers=st.tuples(st.sampled_from(["y", "n"]), st.sampled_from(["even", "odd", "?"])),
    )
    def test_interactive_game_lines_are_json_dumps(self, seed, lanes, mech, answers):
        replies = iter(answers)
        record = quoin.run_interactive_game(seed, mech, lanes, lambda prompt: next(replies), lambda line: None)
        assert record.to_json() == oracles.record_json(record)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, MAX_LANES).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=2,
                                                                  max_size=2)),
        parities=st.lists(st.sampled_from(["even", "odd"]), min_size=2, max_size=2),
        bought=st.integers(0, 2**70),
        chips=st.integers(0, 2**70),
        # every code point, lone surrogates and control characters included
        transcript=st.lists(st.text(st.characters(exclude_categories=())), max_size=5),
    )
    def test_any_valid_fields_render_as_json_dumps(self, rows, parities, bought, chips, transcript):
        record = GameRecord(rows[0], rows[1], parities[0], bought, parities[1], chips, transcript)
        assert record.to_json() == oracles.record_json(record)
        assert json.loads(record.to_json())["transcript"] == transcript

    def test_lists_and_numpy_values_are_stored_as_tuples_of_ints(self):
        record = GameRecord([1, np.int64(0)], [True, 1.0], "odd", np.int64(1), "odd", 6, ["line"])
        assert record == GameRecord((1, 0), (1, 1), "odd", 1, "odd", 6, ("line",))
        assert all(type(b) is int for b in record.bob_bits + record.alice_bits)
        assert type(record.bits_bought) is int
        assert record.to_json() == oracles.record_json(record)


def assert_same_record(a, b):
    """a and b are GameRecords of the same fields in the same order, each of one type, every bit and line included."""
    assert type(a) is type(b) is GameRecord
    assert list(vars(a)) == list(vars(b))  # the field order `to_json` reads
    for name, y in vars(b).items():
        x = getattr(a, name)
        assert type(x) is type(y) and x == y, name
        if type(y) is tuple:
            assert [type(v) for v in x] == [type(v) for v in y], name


GATE_GAMES = [0, 1, 15, 16, 17, 10**6, MAX_GAME]


class TestEngineRecords:
    """The engine builds its records unchecked (`quoin._record`): they must equal the records GameRecord(...) checks."""

    @pytest.mark.parametrize("mech", MECHANICS, ids=["standard", "quantum_coin"])
    @pytest.mark.parametrize("lanes", range(1, MAX_LANES + 1))
    def test_engine_records_equal_user_built_ones(self, lanes, mech):
        for strategy in [QuoinStrategy(), RandomStrategy(), *map(ClassicalBitsStrategy, range(lanes + 1))]:
            for game in GATE_GAMES:
                values = quoin._fields(strategy, lanes, *quoin._play(strategy, 5, 6, game, mech, lanes))
                record = quoin._record(values)
                assert_same_record(record, GameRecord(*values))
                assert record.to_json() == oracles.record_json(record)
                played = play_game(strategy, 5, 6, game_index=game, mech=mech, lanes=lanes)
                assert_same_record(played, record)
                assert_same_record(played, oracles.play_game(strategy, 5, 6, game_index=game, mech=mech, lanes=lanes))

    @pytest.mark.parametrize("lanes", [1, 6, 8])
    def test_a_widening_deal_records_as_a_user_built_one(self, monkeypatch, lanes):
        # no word but widening word 1 holds a candidate for Alice: the deal word keeps only Bob's hand
        real = quoin._draws

        def widening_only(key, counter, k):
            mask = real(key, counter, k)
            return mask if counter >= quoin.WIDEN else mask & (1 << lanes) - 1

        monkeypatch.setattr(quoin, "_draws", widening_only)
        for strategy in [QuoinStrategy(), RandomStrategy(), ClassicalBitsStrategy(1)]:
            for game in GATE_GAMES:
                values = quoin._fields(strategy, lanes, *quoin._play(strategy, 5, 6, game, None, lanes))
                alice = next(hand for hand in oracles.alice_candidates(5, game, lanes, 1) if any(hand))
                assert values[1] == alice
                record = play_game(strategy, 5, 6, game_index=game, lanes=lanes)
                assert_same_record(record, GameRecord(*values))
                assert record.to_json() == oracles.record_json(record)

    @pytest.mark.parametrize(
        "field,bad",
        [
            (0, list),
            (1, lambda row: tuple(map(np.int64, row))),
            (1, lambda row: tuple(map(bool, row))),
            (3, np.int64),
            (5, np.int64),
            (6, list),
        ],
        ids=["list row", "numpy int bits", "bool bits", "numpy int bought", "numpy int chips", "list transcript"],
    )
    def test_the_gate_sees_a_numpy_int_or_a_list_row(self, field, bad):
        # fed any value GameRecord(...) would normalise, the unchecked record differs from the checked one
        strategy = QuoinStrategy()
        values = list(quoin._fields(strategy, 3, *quoin._play(strategy, 5, 6, 0, None, 3)))
        values[field] = bad(values[field])
        with pytest.raises(AssertionError):
            assert_same_record(quoin._record(values), GameRecord(*values))


class TestDealers:
    def test_standard_dealer_never_deals_zero_hand_to_alice(self):
        # at one lane half of Alice's first hands are zero and get redrawn, one game at a time or in a block
        for lanes in (1, 5):
            singles = [play_game(RandomStrategy(), 71, 71, game_index=g, lanes=lanes).to_json() for g in range(500)]
            lines = []
            monte_carlo(RandomStrategy(), 500, 71, lanes=lanes, write=lines.extend)
            assert lines == singles
            records = [json.loads(line) for line in lines]
            assert all(any(r["alice_bits"]) for r in records)
            # only Alice's hand is redrawn: Bob's may be all zero
            assert any(not any(r["bob_bits"]) for r in records)


class TestMonteCarlo:
    def test_quoin_strategy_always_wins_netting_four(self):
        summary = monte_carlo(QuoinStrategy(), 2000, seed=81)
        assert summary.win_rate == 1.0
        assert summary.mean_chips_net == 4.0
        assert summary.ci_halfwidth == 0.0

    def test_random_strategy_breaks_even(self):
        n = 10_000
        summary = monte_carlo(RandomStrategy(), n, seed=82)
        assert abs(summary.win_rate - 0.5) <= 3 * math.sqrt(0.25 / n)
        # net is +/- 6 at 50/50, so the mean has sigma = 6/sqrt(n)
        assert abs(summary.mean_chips_net) <= 3 * 6 / math.sqrt(n)

    def test_quantum_coin_drops_to_chance(self):
        n = 10_000
        summary = monte_carlo(
            QuoinStrategy(), n, seed=83, mech=QuoinMechanics.quantum_coin()
        )
        assert abs(summary.win_rate - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_classical_three_bit_long_run_mean(self):
        # exact mean under the standard dealer: sum over Alice 1-counts k of
        # C(5,k)/31 * net(k) with net = 6-2k for k <= 3 and -3 for k in {4, 5}
        exact = (5 * 4 + 10 * 2 + 10 * 0 + 5 * -3 + 1 * -3) / 31
        n = 20_000
        summary = monte_carlo(ClassicalBitsStrategy(3), n, seed=84)
        assert abs(summary.mean_chips_net - exact) <= 3 * 6 / math.sqrt(n)

    def test_zero_games_rejected(self):
        with pytest.raises(DomainError):
            monte_carlo(QuoinStrategy(), 0, seed=1)

    @pytest.mark.parametrize("games", [True, np.bool_(True), 2.0, "3", None, 0, -1, MAX_GAMES + 1, 10**12])
    def test_bad_game_counts_rejected(self, games):
        with pytest.raises(DomainError):
            monte_carlo(QuoinStrategy(), games, seed=1)

    def test_game_count_bound_and_numpy_counts(self):
        # the bound itself passes the check: its first block starts at game 0, and is not played
        with mock.patch.object(quoin, "_play", side_effect=StopIteration) as play, pytest.raises(StopIteration):
            monte_carlo(RandomStrategy(), MAX_GAMES, seed=1)
        assert play.call_args.args[3] == range(quoin.GAME_BLOCK)
        games = monte_carlo(RandomStrategy(), np.int64(12), seed=1).games
        assert type(games) is int and games == 12


class TestParityTheorem:
    def test_exhaustive_small(self):
        report = verify_parity_theorem(seeds=range(4))
        assert report.holds
        assert report.checked == 4 * 2**10

    @pytest.mark.parametrize(
        "seeds", [[], (), 5, None, range(MAX_PARITY_SEEDS + 1), itertools.count(), [None], ["x"], [-1]]
    )
    def test_seed_sets_outside_the_bound_rejected(self, seeds):
        # no seeds used to report a vacuous `holds`, and 5 escaped as TypeError
        with pytest.raises(DomainError):
            verify_parity_theorem(seeds=seeds, lanes=1)

    def test_seed_bound_accepted(self):
        report = verify_parity_theorem(seeds=iter(range(MAX_PARITY_SEEDS)), lanes=1)
        assert report.holds and report.checked == 4 * MAX_PARITY_SEEDS

    def test_holds_for_quantum_coin_trivially(self):
        # with every lane ending equal the combined count is always even,
        # so the theorem only survives on deals with even double-1 parity
        report = verify_parity_theorem(seeds=[0], mech=QuoinMechanics.quantum_coin())
        assert not report.holds

    def test_failure_count_without_formatting_stays_small(self):
        # 32 seeds x 8 lanes under the quantum coin fail on 1,044,480 deals;
        # formatting one string each used to take 179 MiB
        tracemalloc.start()
        try:
            report = verify_parity_theorem(seeds=range(32), lanes=8, mech=QuoinMechanics.quantum_coin())
            assert not report.holds
            # a deal fails when its double-1 count is odd: (4**8 - 2**8) / 2 hand pairs per seed
            assert report.failure_count == 32 * (4**8 - 2**8) // 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


FAILURE = re.compile(r"^seed \d+ deal alice=(\(.*?\)) bob=(\(.*?\)): (\d+) H vs (\d+) double-1 lanes$")


class TestParityTheoremProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), lanes=st.integers(1, MAX_LANES))
    def test_holds_for_every_seed_and_lane_count(self, seed, lanes):
        report = verify_parity_theorem(seeds=[seed], lanes=lanes)
        assert report.holds
        assert report.checked == 4**lanes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), lanes=st.integers(1, MAX_LANES))
    def test_quantum_coin_fails_exactly_on_odd_double_deals(self, seed, lanes):
        report = verify_parity_theorem(seeds=[seed], lanes=lanes, mech=QuoinMechanics.quantum_coin())
        shown = []
        for failure in report.failures:
            alice, bob, combined_h, doubles = FAILURE.match(failure).groups()
            assert int(combined_h) % 2 == 0  # every lane ends equal
            assert int(doubles) % 2 == 1
            shown.append(tuple(tuple(map(int, re.findall(r"\d", hand))) for hand in (alice, bob)))
        # in mask order (lane i at bit i), so the pairs below run in deal order
        hands = sorted(itertools.product((0, 1), repeat=lanes), key=lambda hand: hand[::-1])
        odd = [(a, b) for a in hands for b in hands if sum(x & y for x, y in zip(a, b)) % 2]
        assert report.failure_count == len(odd)
        assert shown == odd[:MAX_FAILURE_LINES]

    def test_reports_of_different_seeds_differ(self):
        # the same deals fail for every seed, but their H counts differ, and equality sees the failures
        first, second = (verify_parity_theorem([seed], 3, QuoinMechanics.quantum_coin()) for seed in (0, 1))
        assert first.failure_count == second.failure_count
        assert first.failures != second.failures and first != second

    @settings(max_examples=25, deadline=None)
    @given(
        mech=st.sampled_from(ALL_MECHANICS),
        lanes=st.integers(1, MAX_LANES),
        seeds=st.lists(
            st.one_of(st.integers(0, 2**80), st.integers(0, 2**63 - 1).map(np.int64)), min_size=1, max_size=2
        ),
    )
    @example(mech=QuoinMechanics.quantum_coin(), lanes=6, seeds=[2**70, np.int64(3)])
    @example(mech=QuoinMechanics.standard(), lanes=MAX_LANES, seeds=[2**64, 0])
    # 496 failing deals a seed: the cap falls inside the third seed's lines
    @example(mech=QuoinMechanics.quantum_coin(), lanes=5, seeds=[0, 2**70, 5])
    def test_report_equals_the_seeded_exhaust(self, mech, lanes, seeds):
        report = verify_parity_theorem(seeds, lanes, mech)
        expected = oracles.seeded_parity_exhaust(seeds, lanes, mech, MAX_FAILURE_LINES)
        assert (report.checked, report.failure_count, report.holds, report.failures) == expected


class TestGameLevelNoSignalling:
    def test_alice_outcomes_independent_of_bob_bits(self):
        # chi-square goodness of fit of Alice's 32 outcome patterns against
        # uniform, at two different Bob hands; critical value frozen from
        # an independent table: chi2.ppf(0.9999, df=31) = 69.10569228986758
        critical = 69.10569228986758
        alice_bits = (1, 0, 1, 1, 0)
        n = 20_000
        for tag, bob_bits in ((0, (1, 1, 0, 0, 1)), (1, (0, 0, 0, 0, 0))):
            counts = np.zeros(32)
            for g in range(n):
                record = play_game(QuoinStrategy(), 1, 90 + tag, game_index=g, deal=(bob_bits, alice_bits))
                alice_out = record.transcript[0].removeprefix("alice outcomes: ")
                idx = sum((1 << i) for i, o in enumerate(alice_out) if o == "H")
                counts[idx] += 1
            expected = n / 32
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert stat < critical


class TestTargetParity:
    @pytest.mark.parametrize(
        "alice,bob,parity",
        [
            ((1, 0, 0, 1, 1), (1, 0, 1, 1, 0), "even"),
            ((1, 1, 0, 0, 0), (1, 0, 0, 0, 0), "odd"),
            ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), "even"),
        ],
    )
    def test_examples(self, alice, bob, parity):
        assert play_game(RandomStrategy(), 1, 1, deal=(bob, alice)).target_parity == parity

    def test_exhaustive_agreement_with_definition(self):
        for alice in itertools.product((0, 1), repeat=3):
            for bob in itertools.product((0, 1), repeat=3):
                doubles = sum(a & b for a, b in zip(alice, bob))
                expected = "even" if doubles % 2 == 0 else "odd"
                assert play_game(RandomStrategy(), 1, 1, deal=(bob, alice)).target_parity == expected
