"""One table of every integer and angle argument: each refuses what lies outside its domain.

Every entry point below routes its argument through `errors.check_int` or
`errors.check_finite`, so a bool, a non-integer, a string, None, a value
past either bound, NaN or inf raises DomainError (CLI exit 2) instead of
playing a wrong game, computing NaN or raising a bare TypeError.
"""

import math

import numpy as np
import pytest

from qubitlab import cli
from qubitlab.bell import BellKind, invariance_check, plane_direction, sample_joint
from qubitlab.boxes import MAX_SCAN_N, tsirelson_scan
from qubitlab.errors import DomainError, check_finite, check_int
from qubitlab.measure import MAX_TRIALS, SGSetup, binomial_band, sample_outcome_values, sample_outcomes
from qubitlab.qubit import (
    MAX_GBIT_S,
    ClassicalBitState,
    QubitState,
    bloch_rotation_for,
    classical_pure_path,
    gbit_dimension,
    so3_rotation,
    su2_rotate,
    su2_rotation,
)
from qubitlab.quoin import (
    MAX_GAMES,
    MAX_LANES,
    ClassicalBitsStrategy,
    QuoinStrategy,
    RandomStrategy,
    monte_carlo,
    play_game,
    play_games,
    standard_dealer,
    verify_parity_theorem,
)
from qubitlab.rng import game_bits, philox

SETUP = SGSetup([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
X, Z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
ZERO, ONE = ClassicalBitState(0.0), ClassicalBitState(1.0)

# name -> (call with the value, lo, hi or None, a valid value, the int the result echoes back or None)
INTEGER_ARGS = {
    "philox seed": (lambda v: philox(v), 0, None, 3, None),
    "philox stream": (lambda v: philox(1, v), 0, None, 3, None),
    "game_bits seed": (lambda v: game_bits(v, 0, [0], 4), 0, None, 3, None),
    "game_bits stream": (lambda v: game_bits(1, v, [0], 4), 0, None, 3, None),
    "game_bits draw count": (lambda v: game_bits(1, 0, [0], v), 0, None, 3, lambda r: r.shape[1]),
    "sample_outcomes trials": (lambda v: sample_outcomes(SETUP, v, 1), 1, MAX_TRIALS, 3, lambda r: r.n),
    "sample_outcome_values trials": (lambda v: sample_outcome_values(SETUP, v, 1), 1, MAX_TRIALS, 3, len),
    "sample_joint trials": (lambda v: sample_joint(BellKind.SINGLET, Z, X, v, 1), 1, MAX_TRIALS, 3, lambda r: r.n),
    "binomial_band trials": (lambda v: binomial_band(0.5, v), 1, None, 4, None),
    "monte_carlo games": (lambda v: monte_carlo(RandomStrategy(), v, 1), 1, MAX_GAMES, 3, lambda r: r.games),
    "monte_carlo lanes": (lambda v: monte_carlo(QuoinStrategy(), 3, 1, lanes=v), 1, MAX_LANES, 3, None),
    "play_games games": (lambda v: list(play_games(RandomStrategy(), v, 1)), 1, MAX_GAMES, 3, len),
    "play_games lanes": (lambda v: list(play_games(QuoinStrategy(), 2, 1, lanes=v)), 1, MAX_LANES, 3, None),
    "play_game lanes": (lambda v: play_game(QuoinStrategy(), 1, 1, lanes=v), 1, MAX_LANES, 3, lambda r: len(r.bob_bits)),
    "standard_dealer lanes": (lambda v: standard_dealer(philox(1), v), 1, MAX_LANES, 3, lambda r: len(r[0])),
    "verify_parity_theorem lanes": (lambda v: verify_parity_theorem([0], v), 1, MAX_LANES, 3, None),
    "ClassicalBitsStrategy k": (ClassicalBitsStrategy, 0, None, 3, lambda r: r.k),
    "tsirelson_scan n": (lambda v: tsirelson_scan(n=v), 2, MAX_SCAN_N, 4, lambda r: r.n),
    "gbit_dimension s": (gbit_dimension, 1, MAX_GBIT_S, 3, None),
    "classical_pure_path steps": (lambda v: classical_pure_path(ZERO, ONE, v), 1, None, 3, lambda r: len(r) - 2),
}


def bad_integers(lo, hi):
    bad = [True, np.bool_(True), 1.5, "3", None, -1, lo - 1]
    return bad + ([hi + 1] if hi is not None else [])


INTEGER_CASES = [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, (call, lo, hi, _, _) in INTEGER_ARGS.items()
    for bad in bad_integers(lo, hi)
]


@pytest.mark.parametrize("call,bad", INTEGER_CASES)
def test_integer_argument_outside_its_domain_raises(call, bad):
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("name", INTEGER_ARGS)
def test_numpy_integer_accepted_as_int(name):
    call, _, _, ok, echo = INTEGER_ARGS[name]
    result = call(np.int64(ok))
    if echo is not None:
        assert type(echo(result)) is int and echo(result) == ok


STATE = QubitState.up()
# name -> call with the angle
ANGLE_ARGS = {
    "su2_rotation": lambda v: su2_rotation("z", v),
    "su2_rotate": lambda v: su2_rotate(STATE, "z", v),
    "invariance_check": lambda v: invariance_check(BellKind.SINGLET, "z", v),
    "so3_rotation": lambda v: so3_rotation("z", v),
    "bloch_rotation_for": lambda v: bloch_rotation_for("z", v),
    "plane_direction": lambda v: plane_direction("xz", v),
    "plane_direction array": lambda v: plane_direction("xz", [0.0, v]),
    "tsirelson_scan first Alice angle": lambda v: tsirelson_scan(n=4, alice_angles=(v, 0.0)),
    "tsirelson_scan second Alice angle": lambda v: tsirelson_scan(n=4, alice_angles=(0.0, v)),
}
BAD_ANGLES = [math.nan, math.inf, -math.inf, np.float64(math.nan), "3", None, True, np.bool_(True), 1j]
# inside a sequence of floats numpy promotes a bool to 0.0 or 1.0 before the check sees it
EMBEDDED = {"plane_direction array", "tsirelson_scan first Alice angle", "tsirelson_scan second Alice angle"}
ANGLE_CASES = [
    pytest.param(name, bad, id=f"{name}-{bad!r}")
    for name in ANGLE_ARGS
    for bad in BAD_ANGLES
    if not (name in EMBEDDED and isinstance(bad, (bool, np.bool_)))
]


@pytest.mark.parametrize("name,bad", ANGLE_CASES)
def test_angle_outside_its_domain_raises(name, bad):
    with pytest.raises(DomainError):
        ANGLE_ARGS[name](bad)


@pytest.mark.parametrize("name", ANGLE_ARGS)
def test_finite_angles_accepted(name):
    ANGLE_ARGS[name](1.5)
    ANGLE_ARGS[name](np.float32(-2))


@pytest.mark.parametrize("angles", [(0.0,), (0.0, 1.0, 2.0), 0.5, ((0.0, 1.0),), ()])
def test_tsirelson_scan_wants_exactly_two_alice_angles(angles):
    with pytest.raises(DomainError):
        tsirelson_scan(n=4, alice_angles=angles)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "9" * 400 + "pi"])
def test_cli_angle_outside_its_domain_raises(text):
    with pytest.raises(DomainError):
        cli.parse_angle(text)


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan, math.inf])
def test_binomial_band_wants_a_probability(p):
    with pytest.raises(DomainError):
        binomial_band(p, 10)


class TestCheckInt:
    def test_numpy_int_becomes_int(self):
        for value in (np.int64(7), np.uint8(7), np.int32(7)):
            n = check_int(value, "count", 1, 8)
            assert type(n) is int and n == 7

    def test_bounds_are_inclusive(self):
        assert check_int(1, "count", 1, 8) == 1
        assert check_int(8, "count", 1, 8) == 8
        assert check_int(10**30, "seed") == 10**30

    @pytest.mark.parametrize("value", [True, np.bool_(False), 2.0, "3", None, 0, 9, 10**30])
    def test_refusals(self, value):
        with pytest.raises(DomainError):
            check_int(value, "count", 1, 8)

    def test_messages_name_the_argument_and_the_domain(self):
        with pytest.raises(DomainError, match="^lanes must be an integer in 1..8, got 0$"):
            check_int(0, "lanes", 1, 8)
        with pytest.raises(DomainError, match="^seed must be a nonnegative integer, got -1$"):
            check_int(-1, "seed")
        with pytest.raises(DomainError, match="values above 8 exceed the bound"):
            check_int(9, "lanes", 1, 8)
        with pytest.raises(DomainError, match="^steps must be an integer >= 1, got True$"):
            check_int(True, "steps", 1)


class TestCheckFinite:
    def test_scalars_become_floats_and_arrays_float_arrays(self):
        assert check_finite(2, "angle") == 2.0 and type(check_finite(2, "angle")) is float
        assert type(check_finite(np.float64(0.5), "angle")) is float
        a = check_finite((0, 1.5), "angles")
        assert a.dtype == float and a.tolist() == [0.0, 1.5]

    @pytest.mark.parametrize("value", [[0.0, math.nan], [[0.0], [1.0, 2.0]], "1", 10**400])
    def test_refusals(self, value):
        with pytest.raises(DomainError):
            check_finite(value, "angles")
