"""One table of every integer and angle argument: each refuses what lies outside its domain.

Every entry point below routes its argument through `errors.check_int` or
`errors.real_number`, so a bool, a non-integer, a string, None, an array, a
value past either bound, NaN or inf raises DomainError (CLI exit 2) instead
of playing a wrong game, computing NaN or raising a bare TypeError. Matrices
pass `hilbert.as_matrix` and 3-vectors `errors.real_3vector` the same way:
what is not a matrix or three real numbers raises DimensionError, and a
non-finite entry raises DomainError.
"""

import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import oracles
import pytest

from qubitlab import cli, rng
from qubitlab.bell import (
    BellKind,
    JointProbabilities,
    JointSample,
    bell_density,
    bell_vector,
    closed_form_joint,
    conditional_average,
    correlator,
    invariance_check,
    joint_probabilities,
    plane_direction,
    resolve_plane,
    sample_joint,
)
from qubitlab.boxes import (
    MAX_SCAN_N,
    BehaviorBox,
    chsh_value,
    conservation_filter,
    deterministic_box,
    no_signalling_check,
    pr_box,
    quantum_box,
    tsirelson_scan,
)
from qubitlab.errors import (
    DimensionError,
    DomainError,
    HermiticityError,
    InvalidStateError,
    check_int,
    real_number,
    unit_vector,
)
from qubitlab.hilbert import ID2, commutator, is_hermitian, pauli_decompose, tensor
from qubitlab.measure import (
    MAX_TRIALS,
    OutcomeSample,
    SGSetup,
    binomial_band,
    expected_outcome,
    projection_probabilities,
    sample_outcomes,
    tally,
)
from qubitlab.qubit import (
    MAX_GBIT_S,
    MAX_PATH_STEPS,
    ClassicalBitState,
    QubitState,
    axis_vector,
    bloch_rotation_for,
    bloch_roundtrip,
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
    GameRecord,
    QuoinMechanics,
    QuoinStrategy,
    RandomStrategy,
    apply_rigging,
    enumerate_riggings,
    flip_pair,
    monte_carlo,
    play_game,
    run_interactive_game,
    verify_parity_theorem,
    write_transcript,
)
from qubitlab.rng import MAX_GAME, draws, word_blocks
from qubitlab.spinops import LZ, SpinOperatorTriple, verify_pauli_embedding

SETUP = SGSetup([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
X, Z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
ZERO, ONE = ClassicalBitState(0.0), ClassicalBitState(1.0)
PR_BOX = pr_box()

# name -> (call with the value, lo, hi or None, a valid value, the int the result echoes back or None)
INTEGER_ARGS = {
    # the samples used to store any seed, a numpy seed as numpy
    "sample_outcomes seed": (lambda v: sample_outcomes(SETUP, 3, v), 0, None, 3, lambda r: r.seed),
    "sample_joint seed": (lambda v: sample_joint(BellKind.SINGLET, Z, X, 3, v), 0, None, 3, lambda r: r.seed),
    "OutcomeSample seed": (lambda v: OutcomeSample(1, 0, 1, v), 0, None, 3, lambda r: r.seed),
    "JointSample seed": (lambda v: JointSample(((1, 0), (0, 0)), 1, v), 0, None, 3, lambda r: r.seed),
    "word_blocks seed": (lambda v: word_blocks(v, 3), 0, None, 3, None),
    "word_blocks word count": (lambda v: word_blocks(1, v), 0, None, 3, None),
    "flip_pair seed": (lambda v: flip_pair(None, ("H", "H"), v, 0), 0, None, 3, None),
    "flip_pair trial": (lambda v: flip_pair(None, ("H", "H"), 1, v), 0, MAX_GAME, 3, None),
    "draws seed": (lambda v: draws(v, 0, 5, 4), 0, None, 3, None),
    "draws stream": (lambda v: draws(1, v, 5, 4), 0, None, 3, None),
    "draws counter": (lambda v: draws(1, 0, v, 4), 0, 2**256 - 1, 3, None),
    "draws draw count": (lambda v: draws(1, 0, 5, v), 0, 64, 3, None),
    "draws seed for a range": (lambda v: draws(v, 0, range(3), 4), 0, None, 3, None),
    "draws stream for a range": (lambda v: draws(1, v, range(3), 4), 0, None, 3, None),
    "draws draw count for a range": (lambda v: draws(1, 0, range(3), v), 0, 64, 3, None),
    "draws seed for an empty range": (lambda v: draws(v, 0, range(0), 4), 0, None, 3, None),
    "draws stream for an empty range": (lambda v: draws(1, v, range(5, 5), 4), 0, None, 3, None),
    "draws draw count for an empty range": (lambda v: draws(1, 0, range(0), v), 0, 64, 3, None),
    "sample_outcomes trials": (lambda v: sample_outcomes(SETUP, v, 1), 1, MAX_TRIALS, 3, lambda r: r.n),
    "sample_outcome_values trials": (lambda v: oracles.sample_outcome_values(SETUP, v, 1), 1, MAX_TRIALS, 3, len),
    "sample_joint trials": (lambda v: sample_joint(BellKind.SINGLET, Z, X, v, 1), 1, MAX_TRIALS, 3, lambda r: r.n),
    "binomial_band trials": (lambda v: binomial_band(0.5, v), 1, None, 4, None),
    "monte_carlo games": (lambda v: monte_carlo(RandomStrategy(), v, 1), 1, MAX_GAMES, 3, lambda r: r.games),
    "monte_carlo seed": (lambda v: monte_carlo(RandomStrategy(), 3, v), 0, None, 3, None),
    "monte_carlo lanes": (lambda v: monte_carlo(QuoinStrategy(), 3, 1, lanes=v), 1, MAX_LANES, 3, None),
    "play_game lanes": (lambda v: play_game(QuoinStrategy(), 1, 1, lanes=v), 1, MAX_LANES, 3, lambda r: len(r.bob_bits)),
    "play_game game index": (lambda v: play_game(RandomStrategy(), 1, 1, game_index=v), 0, MAX_GAME, 3, None),
    "play_game dealer seed": (lambda v: play_game(RandomStrategy(), v, 1), 0, None, 3, None),
    "play_game mech seed": (lambda v: play_game(QuoinStrategy(), 1, v), 0, None, 3, None),
    "GameRecord bits_bought": (lambda v: GameRecord((1,), (1,), "odd", v, "odd"), 0, None, 1, lambda r: r.bits_bought),
    "GameRecord chips_start": (lambda v: GameRecord((1,), (1,), "odd", 1, "odd", v), 0, None, 6, lambda r: r.chips_start),
    "run_interactive_game lanes": (
        lambda v: run_interactive_game(1, QuoinMechanics.standard(), v, lambda _: "n", lambda _: None),
        1, MAX_LANES, 3, lambda r: len(r.bob_bits),
    ),
    "standard_dealer lanes": (lambda v: oracles.standard_dealer(1, 0, v), 1, MAX_LANES, 3, lambda r: len(r[0])),
    "verify_parity_theorem lanes": (lambda v: verify_parity_theorem([0], v), 1, MAX_LANES, 3, None),
    "ClassicalBitsStrategy k": (ClassicalBitsStrategy, 0, None, 3, lambda r: r.k),
    "BehaviorBox.alice_marginal x": (lambda v: PR_BOX.alice_marginal(v, 0), 0, 1, 1, None),
    "BehaviorBox.alice_marginal y": (lambda v: PR_BOX.alice_marginal(0, v), 0, 1, 1, None),
    "BehaviorBox.bob_marginal x": (lambda v: PR_BOX.bob_marginal(v, 0), 0, 1, 1, None),
    "BehaviorBox.bob_marginal y": (lambda v: PR_BOX.bob_marginal(0, v), 0, 1, 1, None),
    "BehaviorBox.correlator x": (lambda v: PR_BOX.correlator(v, 0), 0, 1, 1, None),
    "BehaviorBox.correlator y": (lambda v: PR_BOX.correlator(0, v), 0, 1, 1, None),
    "tsirelson_scan n": (lambda v: tsirelson_scan(n=v), 2, MAX_SCAN_N, 4, lambda r: r.n),
    "gbit_dimension s": (gbit_dimension, 1, MAX_GBIT_S, 3, None),
    "classical_pure_path steps": (lambda v: classical_pure_path(ZERO, ONE, v), 1, MAX_PATH_STEPS, 3, lambda r: len(r) - 2),
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


# draws takes a range of game indices by step 1 within 0..MAX_GAME, and refuses any other before the key cache
BAD_RANGES = [range(0, 8, 2), range(-1, 3), range(MAX_GAME - 1, MAX_GAME + 2), range(3, 0, -1), range(0, 4, -1)]


@pytest.mark.parametrize("games", BAD_RANGES, ids=repr)
def test_range_outside_the_game_indices_raises_before_the_cache(games):
    before = rng._key.cache_info()
    with pytest.raises(DomainError):
        draws(10**9 + 7, 0, games, 4)
    assert rng._key.cache_info() == before


# a counter is an int or a range; an index array, of any dtype or shape, and a list or tuple of indices are neither
INDEX_SEQUENCES = [
    np.arange(3), np.array([5], dtype=np.uint64), np.array(5), [0, 1, 2], (0, 1, 2), np.array([9, 8, 7]),
    np.array([], dtype=np.int64), np.array([-1]), np.array([MAX_GAME + 1], dtype=np.uint64), np.array([0.5]),
    np.array([[0, 1]]),
]


@pytest.mark.parametrize("games", INDEX_SEQUENCES, ids=repr)
def test_index_array_or_list_counter_raises(games):
    with pytest.raises(DomainError):
        draws(1, 0, games, 4)


# name -> call with Alice's outcome, which is +1 or -1
OUTCOME_ARGS = {
    "JointProbabilities.conditional_average": JointProbabilities(0.3, 0.2, 0.1, 0.4).conditional_average,
    "JointSample.conditional_mean": JointSample(np.array([[3, 1], [2, 4]]), 10, 0).conditional_mean,
    "conditional_average": lambda v: conditional_average(BellKind.SINGLET, Z, X, v),
}
# an array of two or more outcomes escaped as numpy's ValueError, and True was read as +1
BAD_OUTCOMES = [0, 7, -2, 2, None, "1", math.nan, np.array([1, -1]), np.array([1, 1]), True]


@pytest.mark.parametrize("name,bad", [pytest.param(n, b, id=f"{n}-{b!r}") for n in OUTCOME_ARGS for b in BAD_OUTCOMES])
def test_outcome_other_than_plus_minus_one_raises(name, bad):
    with pytest.raises(DomainError):
        OUTCOME_ARGS[name](bad)


@pytest.mark.parametrize("name", OUTCOME_ARGS)
def test_plus_and_minus_one_accepted(name):
    OUTCOME_ARGS[name](1)
    OUTCOME_ARGS[name](np.int64(-1))


# name -> call with the Bell kind, which must be a BellKind: its value string is not coerced
KIND_ARGS = {
    "correlator": lambda v: correlator(v, Z, X),
    "joint_probabilities": lambda v: joint_probabilities(v, Z, X),
    "closed_form_joint": lambda v: closed_form_joint(v, 0.5),
    "invariance_check": lambda v: invariance_check(v, "z", 0.1),
    "bell_density": bell_density,
    "bell_vector": bell_vector,
    "sample_joint": lambda v: sample_joint(v, Z, X, 3, 1),
    "resolve_plane": resolve_plane,
    "quantum_box": lambda v: quantum_box(v, [Z, X], [Z, X]),
    "tsirelson_scan": lambda v: tsirelson_scan(v, None, n=4),
}
# name -> call with the game mechanics, which must be a QuoinMechanics or None
MECH_ARGS = {
    "monte_carlo": lambda v: monte_carlo(QuoinStrategy(), 3, 1, mech=v),
    "play_game": lambda v: play_game(QuoinStrategy(), 1, 1, mech=v),
    "flip_pair": lambda v: flip_pair(v, ("H", "H"), 1, 0),
    "enumerate_riggings": enumerate_riggings,
    "verify_parity_theorem": lambda v: verify_parity_theorem([0], 2, v),
}
OBJECT_CASES = [
    *(pytest.param(KIND_ARGS[n], b, id=f"{n}-{b!r}") for n in KIND_ARGS for b in ["singlet", "SINGLET", None, 0]),
    *(pytest.param(MECH_ARGS[n], b, id=f"{n}-{b!r}") for n in MECH_ARGS for b in ["quantum", "quoin", 1, ((0, 1), (1, 0))]),
]


@pytest.mark.parametrize("call,bad", OBJECT_CASES)
def test_kind_or_mechanics_of_another_type_raises(call, bad):
    # each used to escape as AttributeError
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize(
    "call,ok",
    [
        *(pytest.param(KIND_ARGS[n], k, id=f"{n}-{k.value}") for n in KIND_ARGS for k in BellKind),
        *(pytest.param(MECH_ARGS[n], m, id=f"{n}-{label}") for n in MECH_ARGS for label, m in (
            ("None", None), ("standard", QuoinMechanics.standard()), ("quantum_coin", QuoinMechanics.quantum_coin())
        )),
    ],
)
def test_kinds_and_mechanics_accepted(call, ok):
    call(ok)


STATE = QubitState.up()
# name -> call with the angle
ANGLE_ARGS = {
    "su2_rotation": lambda v: su2_rotation("z", v),
    "su2_rotate": lambda v: su2_rotate(STATE, "z", v),
    "invariance_check": lambda v: invariance_check(BellKind.SINGLET, "z", v),
    "so3_rotation": lambda v: so3_rotation("z", v),
    "bloch_rotation_for": lambda v: bloch_rotation_for("z", v),
    "closed_form_joint": lambda v: closed_form_joint(BellKind.SINGLET, v),
    "plane_direction": lambda v: plane_direction("xz", v),
    "tsirelson_scan first Alice angle": lambda v: tsirelson_scan(n=4, alice_angles=(v, 0.0)),
    "tsirelson_scan second Alice angle": lambda v: tsirelson_scan(n=4, alice_angles=(0.0, v)),
}
BAD_ANGLES = [math.nan, math.inf, -math.inf, np.float64(math.nan), "3", None, True, np.bool_(True), 1j]
ANGLE_CASES = [pytest.param(name, bad, id=f"{name}-{bad!r}") for name in ANGLE_ARGS for bad in BAD_ANGLES]


@pytest.mark.parametrize("name,bad", ANGLE_CASES)
def test_angle_outside_its_domain_raises(name, bad):
    with pytest.raises(DomainError):
        ANGLE_ARGS[name](bad)


@pytest.mark.parametrize("name", ANGLE_ARGS)
def test_finite_angles_accepted(name):
    ANGLE_ARGS[name](1.5)
    ANGLE_ARGS[name](np.float32(-2))


# the rotations, closed_form_joint and plane_direction take one angle; an array would reach math.cos and raise a
# bare TypeError, and plane_direction gave one numpy array per component
@pytest.mark.parametrize(
    "name", ["su2_rotation", "su2_rotate", "so3_rotation", "bloch_rotation_for", "closed_form_joint", "plane_direction"]
)
@pytest.mark.parametrize("angles", [[0.1, 0.2], np.array([0.1, 0.2]), np.array([0.1]), [[0.5]]])
def test_rotation_wants_one_angle(name, angles):
    with pytest.raises(DomainError):
        ANGLE_ARGS[name](angles)


@pytest.mark.parametrize("angles", [(0.0,), (0.0, 1.0, 2.0), 0.5, ((0.0, 1.0),), ()])
def test_tsirelson_scan_wants_exactly_two_alice_angles(angles):
    with pytest.raises(DomainError):
        tsirelson_scan(n=4, alice_angles=angles)


@pytest.mark.parametrize("angles", [np.array([0.0, 1.5]), (0, 1), [np.float32(0.5), 1]])
def test_tsirelson_scan_echoes_alice_angles_as_floats(angles):
    # an ndarray used to leave numpy.float64 values in the result, and ints stayed ints
    echoed = tsirelson_scan(n=4, alice_angles=angles).alice_angles
    assert echoed == tuple(float(a) for a in angles)
    assert [type(a) for a in echoed] == [float, float]


# name -> call with the coordinate plane, which must be one of the strings 'xy', 'yz' and 'xz'
PLANE_ARGS = {
    "resolve_plane singlet": lambda v: resolve_plane(BellKind.SINGLET, v),
    "resolve_plane phi+": lambda v: resolve_plane(BellKind.PHI_PLUS, v),
    "plane_direction": lambda v: plane_direction(v, 0.5),
    "tsirelson_scan": lambda v: tsirelson_scan(BellKind.SINGLET, v, n=4),
}


@pytest.mark.parametrize(
    "name,bad", [pytest.param(n, b, id=f"{n}-{b!r}") for n in PLANE_ARGS for b in ["qq", "XZ", "", 3, ["xz"], b"xz"]]
)
def test_plane_other_than_the_three_raises(name, bad):
    # the singlet used to return any plane unchecked, and a list then escaped as TypeError: unhashable type
    with pytest.raises(DomainError):
        PLANE_ARGS[name](bad)


@pytest.mark.parametrize("name", PLANE_ARGS)
def test_plane_strings_accepted(name):
    for plane in ("xy", "yz", "xz") if "phi+" not in name else ("xz",):
        PLANE_ARGS[name](plane)
        PLANE_ARGS[name](np.str_(plane))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "9" * 400 + "pi"])
def test_cli_angle_outside_its_domain_raises(text):
    with pytest.raises(DomainError):
        cli.parse_angle(text)


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan, math.inf, "0.5", None, [0.5], True])
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


# what `real_number` takes as one real number, and the float it gives; ids are the (cut) reprs
REAL_NUMBERS = [
    (2, 2.0), (-3, -3.0), (2**70, 2.0**70), (1.5, 1.5), (np.int8(-4), -4.0), (np.uint64(2**64 - 1), 2.0**64),
    (np.float16(0.5), 0.5), (np.float32(0.25), 0.25), (np.float64(-1.5), -1.5), (np.longdouble(0.75), 0.75),
    (np.array(3), 3.0), (np.array(0.5), 0.5), (np.array(0.5, dtype=np.float32), 0.5),
]
NOT_REAL_NUMBERS = [
    True, np.bool_(False), np.array(True), Fraction(1, 2), Decimal("0.5"), 1j, np.complex128(1), "1", None,
    [1.0], (0.5,), [0.0, 1.0], np.array([1.0]), np.array([[0.5]]), math.nan, -math.inf, np.float64(math.nan),
    np.array(math.inf), 10**400, -(10**400), np.longdouble("1e4000"),
]


class TestRealNumber:
    @pytest.mark.parametrize("value,x", REAL_NUMBERS, ids=lambda v: repr(v)[:32])
    def test_real_numbers_become_floats(self, value, x):
        assert real_number(value, "angle") == x and type(real_number(value, "angle")) is float

    @pytest.mark.parametrize("value", NOT_REAL_NUMBERS, ids=lambda v: repr(v)[:32])
    def test_refusals(self, value):
        with pytest.raises(DomainError):
            real_number(value, "angle")

    @pytest.mark.parametrize(
        "probs", [[0.5, math.nan], [[0.5], [0.5]], "1", [10**400, 0.0], [0.0, True], [[1.0], [np.bool_(False)]]]
    )
    def test_tally_refuses_cells_that_are_not_real_numbers(self, probs):
        with pytest.raises(DomainError):
            tally(probs, 10, seed=1)

    @pytest.mark.parametrize("probs", [(0, 1), [np.float32(0.5), 0.5], np.array([0.25, 0.75]), np.array([1, 0])])
    def test_tally_takes_numbers_and_numeric_arrays(self, probs):
        assert sum(tally(probs, 10, seed=1)) == 10


# name -> (call with the matrix, its dimension)
MATRIX_ARGS = {
    "pauli_decompose": (pauli_decompose, 2),
    "tensor first factor": (lambda m: tensor(m, ID2), 2),
    "tensor second factor": (lambda m: tensor(ID2, m), 2),
    "commutator first": (lambda m: commutator(m, np.eye(2)), 2),
    "commutator second": (lambda m: commutator(np.eye(3), m), 3),
    "is_hermitian": (is_hermitian, 4),
    "QubitState": (QubitState, 2),
    "SpinOperatorTriple": (lambda m: SpinOperatorTriple(m, LZ, LZ), 3),
}


def bad_matrices(dim):
    """(matrix, the error it must raise): what is not a square matrix of numbers, then entries that are not finite."""
    ragged = [[0.0] * dim] * (dim - 1) + [[0.0]]
    cases = [("ab", DimensionError), (None, DimensionError), (ragged, DimensionError), (np.zeros((dim, 5)), DimensionError)]
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 0)):
        m = np.eye(dim, dtype=complex) / dim
        m[0, 0] = bad
        cases.append((m, DomainError))
    # numpy parsed strings as numbers and read bools as 0 and 1; an int past the float range escaped as OverflowError
    strings = [[str(int(i == j)) for j in range(dim)] for i in range(dim)]
    huge = [[10**400 * (i == j == 0) for j in range(dim)] for i in range(dim)]
    cases += [(strings, DimensionError), (np.eye(dim, dtype=bool), DimensionError), (huge, DomainError)]
    # a signaling-NaN Decimal is a number, but not a finite one
    cases.append(([[Decimal("sNaN")] * dim] * dim, DomainError))
    return cases


MATRIX_CASES = [
    pytest.param(call, bad, error, id=f"{name}-{k}")
    for name, (call, dim) in MATRIX_ARGS.items()
    for k, (bad, error) in enumerate(bad_matrices(dim))
]


@pytest.mark.parametrize("call,bad,error", MATRIX_CASES)
def test_matrix_argument_outside_its_domain_raises(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("name", MATRIX_ARGS)
def test_finite_matrix_accepted(name):
    call, dim = MATRIX_ARGS[name]
    call(np.eye(dim) / dim)
    call((np.eye(dim) / dim).tolist())


# finite entries whose asymmetry |m_01 - conj(m_10)| is past the float range: Python's abs of the complex
# difference raised OverflowError
HUGE_ASYMMETRY = [[0, 1.5e308 + 1.5e308j], [0, 0]]


@pytest.mark.parametrize(
    "call,error", [(pauli_decompose, HermiticityError), (QubitState, InvalidStateError)], ids=lambda v: v.__name__
)
def test_overflowing_asymmetry_is_not_hermitian(call, error):
    assert is_hermitian(HUGE_ASYMMETRY) is False
    assert is_hermitian([[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]]) is True
    with pytest.raises(error):
        call(HUGE_ASYMMETRY)


# name -> call with a 3-vector; each takes a nonzero vector other than (0, 0, 1), read as it stands or as an axis
VECTOR_ARGS = {
    "axis_vector": axis_vector,
    "su2_rotation axis": lambda v: su2_rotation(v, 0.5),
    "su2_rotate axis": lambda v: su2_rotate(STATE, v, 0.5),
    "so3_rotation axis": lambda v: so3_rotation(v, 0.5),
    "bloch_rotation_for axis": lambda v: bloch_rotation_for(v, 0.5),
    "invariance_check axis": lambda v: invariance_check(BellKind.SINGLET, v, 0.5),
    "QubitState.from_bloch": QubitState.from_bloch,
}
BAD_VECTORS = [
    (["a", "b", "c"], DimensionError),
    (None, DimensionError),
    ([1.0, 0.0], DimensionError),
    (np.zeros((3, 1)), DimensionError),
    ([1.0, 0.0, "0"], DimensionError),
    ([math.nan, 0.0, 0.0], DomainError),
    ([0.0, math.inf, 0.0], DomainError),
    ([0.0, 0.0, -math.inf], DomainError),
    ([10**400, 0, 0], DomainError),
    ([True, False, False], DimensionError),
]


@pytest.mark.parametrize(
    "name,bad,error", [pytest.param(n, b, e, id=f"{n}-{b!r}") for n in VECTOR_ARGS for b, e in BAD_VECTORS]
)
def test_vector_argument_outside_its_domain_raises(name, bad, error):
    with pytest.raises(error):
        VECTOR_ARGS[name](bad)


@pytest.mark.parametrize("name", VECTOR_ARGS)
def test_real_vectors_accepted(name):
    VECTOR_ARGS[name]([0.6, 0, 0.8])
    VECTOR_ARGS[name](np.array([0.0, 0.5, -0.5], dtype=np.float32))


@pytest.mark.parametrize("bad", [(True, False, False), np.array([False, False, True])])
@pytest.mark.parametrize(
    "call",
    [lambda v: unit_vector(v, "direction"), lambda v: correlator(BellKind.SINGLET, v, Z)],
    ids=["unit_vector", "correlator"],
)
def test_a_bool_component_is_no_real_number(call, bad):
    # each used to read as a unit vector along an axis, although `real_number` refuses a bool
    with pytest.raises(DimensionError):
        call(bad)


@pytest.mark.parametrize("tiny_or_huge", [1e-200, 1e200])
def test_axis_of_any_finite_length_is_normalized(tiny_or_huge):
    # the norm comes from math.hypot, which neither under- nor overflows on these
    np.testing.assert_allclose(axis_vector([tiny_or_huge, tiny_or_huge, 0.0]), [math.sqrt(0.5), math.sqrt(0.5), 0.0])


@pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(False), [0.5], math.nan, math.inf])
def test_classical_bit_wants_one_real_number(bad):
    with pytest.raises(DomainError):
        ClassicalBitState(bad)


@pytest.mark.parametrize("p1", [-0.1, 1.2])
def test_classical_bit_wants_a_probability(p1):
    with pytest.raises(InvalidStateError):
        ClassicalBitState(p1)


# name -> call with the outcomes or directions of one side
BOX_ARGS = {
    "deterministic_box alice": lambda v: deterministic_box(v, (1, 1)),
    "deterministic_box bob": lambda v: deterministic_box((1, -1), v),
    "quantum_box alice": lambda v: quantum_box(BellKind.SINGLET, v, [Z, X]),
    "quantum_box bob": lambda v: quantum_box(BellKind.SINGLET, [Z, X], v),
}


# id -> a value that is not two outcomes or directions; the iterator gets a fixed id, as its repr holds an address
BAD_SIDES = {"None": None, "3": 3, "()": (), repr([X, Z, X]): [X, Z, X], "iterator": iter([])}


@pytest.mark.parametrize("name,bad", [pytest.param(n, b, id=f"{n}-{i}") for n in BOX_ARGS for i, b in BAD_SIDES.items()])
def test_box_builder_wants_two_per_side(name, bad):
    with pytest.raises(DomainError):
        BOX_ARGS[name](bad)


RECORD = play_game(QuoinStrategy(), 1, 1)
# name -> call with the object, which must be a BehaviorBox, a SpinOperatorTriple, a QubitState, an SGSetup, a
# ClassicalBitState, a GameRecord, an iterable of them, a file with a write method, or a rigging and start string
TYPED_ARGS = {
    "chsh_value": chsh_value,
    "bloch_roundtrip": bloch_roundtrip,
    "su2_rotate": lambda v: su2_rotate(v, "z", 0.3),
    "projection_probabilities": projection_probabilities,
    "expected_outcome": expected_outcome,
    "sample_outcomes": lambda v: sample_outcomes(v, 10, 1),
    "classical_pure_path first": lambda v: classical_pure_path(v, ONE, 3),
    "classical_pure_path second": lambda v: classical_pure_path(ZERO, v, 3),
    "verify_pauli_embedding": verify_pauli_embedding,
    "no_signalling_check": no_signalling_check,
    "conservation_filter": conservation_filter,
    "write_transcript": lambda v: write_transcript([v], io.StringIO()),
    "write_transcript records": lambda v: write_transcript(v, io.StringIO()),
    "write_transcript file": lambda v: write_transcript([RECORD], v),
    "apply_rigging rigging": lambda v: apply_rigging(v, "H"),
    "apply_rigging start": lambda v: apply_rigging("H", v),
}
TYPED_OK = {
    "chsh_value": PR_BOX,
    "bloch_roundtrip": STATE,
    "su2_rotate": STATE,
    "projection_probabilities": SETUP,
    "expected_outcome": SETUP,
    "sample_outcomes": SETUP,
    "classical_pure_path first": ZERO,
    "classical_pure_path second": ONE,
    "verify_pauli_embedding": SpinOperatorTriple.canonical(),
    "no_signalling_check": PR_BOX,
    "conservation_filter": PR_BOX,
    "write_transcript": RECORD,
    "write_transcript records": [RECORD],
    "write_transcript file": io.StringIO(),
    "apply_rigging rigging": "S",
    "apply_rigging start": "T",
}


@pytest.mark.parametrize(
    "name,bad",
    [
        pytest.param(n, b, id=f"{n}-{b!r}")
        for n in TYPED_ARGS
        for b in [None, 1, "x", ["H"], ("H",), {}]
        if not (n == "write_transcript records" and b == {})  # an empty iterable is an empty transcript
    ],
)
def test_argument_of_another_type_raises(name, bad):
    # each used to escape as AttributeError or TypeError
    with pytest.raises(DomainError):
        TYPED_ARGS[name](bad)


@pytest.mark.parametrize("name", TYPED_ARGS)
def test_arguments_of_the_right_type_accepted(name):
    TYPED_ARGS[name](TYPED_OK[name])


# id -> a joint-probability entry that is no real number; each used to escape as TypeError, the array as
# numpy's ambiguous-truth ValueError
BAD_JOINT_ENTRIES = {"None": None, "'x'": "x", "1j": 1j, "Decimal": Decimal("0.25"), "array": np.array([1.0, 2.0])}


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", BAD_JOINT_ENTRIES.values(), ids=BAD_JOINT_ENTRIES.keys())
def test_joint_probabilities_refuse_an_entry_that_is_no_number(bad, position):
    cells = [0.25] * 4
    cells[position] = bad
    with pytest.raises(InvalidStateError):
        JointProbabilities(*cells)


# id -> (the four entries, one of which is no real number although they sum to 1); each used to be kept as given
UNREAL_JOINTS = {
    "one-element array": (np.array([0.25]), 0.25, 0.25, 0.25),
    "0-d array": (0.25, np.array(0.25), 0.25, 0.25),
    "bool": (True, 0.0, 0.0, 0.0),
    "numpy bool": (0.0, 0.0, 0.0, np.bool_(True)),
}


@pytest.mark.parametrize("cells", UNREAL_JOINTS.values(), ids=UNREAL_JOINTS.keys())
def test_joint_probabilities_refuse_entries_that_sum_to_one_but_are_no_real_numbers(cells):
    with pytest.raises(InvalidStateError):
        JointProbabilities(*cells)


@pytest.mark.parametrize("cell", [1, np.int64(1), np.float32(1.0), np.float64(1.0), Fraction(1)])
def test_joint_probabilities_store_floats(cell):
    # an int used to stay an int, and a one-element array made the correlator an array
    jp = JointProbabilities(0.0, cell, 0, 0.0)
    assert (jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm) == (0.0, 1.0, 0.0, 0.0)
    assert {type(p) for p in (jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm, jp.correlator)} == {float}


def test_joint_probabilities_refuse_a_negative_fraction():
    # the message formatted the Fraction with `.3e`, which raised TypeError
    with pytest.raises(InvalidStateError, match="negative joint probability -5.000e-01"):
        JointProbabilities(Fraction(-1, 2), Fraction(1, 2), 0.5, 0.5)


# id -> (index into the 16 entries, row-major (x, y, a, b), and the value put there); each used to be read by float()
# as a probability, except the int past the float range, which escaped as OverflowError
UNREAL_BOX_ENTRIES = {
    "string": (0, "0.25"),
    "bool": (12, True),
    "Decimal": (1, Decimal("0.25")),
    "huge int": (13, 10**400),
}


def box_of(flat) -> BehaviorBox:
    """The box of 16 entries, row-major (x, y, a, b), each passed as given."""
    return BehaviorBox([[[flat[i : i + 2], flat[i + 2 : i + 4]] for i in (8 * x, 8 * x + 4)] for x in (0, 1)])


@pytest.mark.parametrize("k,bad", UNREAL_BOX_ENTRIES.values(), ids=UNREAL_BOX_ENTRIES.keys())
def test_behavior_box_refuses_entries_that_are_no_real_numbers(k, bad):
    flat = [0.25] * 12 + [1.0, 0.0, 0.0, 0.0]
    box_of(flat)  # a box before the one bad entry
    flat[k] = bad
    with pytest.raises(InvalidStateError):
        box_of(flat)
    with pytest.raises(InvalidStateError):
        BehaviorBox.from_json(json.dumps({"settings": [2, 2], "outcomes": [1, -1], "p": flat}, default=str))


def test_behavior_box_stores_real_numbers_as_floats():
    flat = [0.25] * 12 + [1, np.int64(0), np.float32(0.0), Fraction(0)]
    box = box_of(flat)
    assert box == BehaviorBox(np.array(flat, dtype=float).reshape(2, 2, 2, 2))
    assert {type(v) for px in box.p for q in px for row in q for v in row} == {float}


@pytest.mark.parametrize("records", [None, 1, RECORD])
def test_transcript_records_must_be_iterable(records):
    # None used to escape as TypeError; an empty iterable writes nothing
    with pytest.raises(DomainError):
        write_transcript(records, io.StringIO())


# a GameRecord field `to_json` cannot render exactly -> the bad values; each used to be accepted, and then
# raised TypeError in to_json or printed JSON that no game produces
RECORD_FIELDS = ("bob_bits", "alice_bits", "target_parity", "bits_bought", "guess", "chips_start", "transcript")
BAD_RECORD_FIELDS = {
    "bob_bits": [(2, 0, 1, 1, 0), (1, 0, 1, 1, 0.5), (1, 0, 1, 1), (), (1,) * 9, "10110", None, 5, {1: 0},
                 np.array([1, 0, 1, 1, 0]), ((1,), (0,), (1,), (1,), (0,)), (1, 0, 1, 1, "0"), (1, 0, 1, 1, None)],
    "alice_bits": [(1, 0, 0, 1), (1, 0, 0, 1, 1, 0), (1, 0, 0, 1, -1), range(2)],
    "target_parity": ["Even", "", 0, None, b"even", ("even",)],
    "guess": ["ODD", 1, True, None],
    "bits_bought": [True, 1.0, "1", -1, None],
    "chips_start": [np.bool_(True), 6.5, "6", None],
    "transcript": ["line", None, 3, ("line", 2), ["line", b"bytes"], ("line", None)],
}


@pytest.mark.parametrize(
    "name,bad", [pytest.param(n, b, id=f"{n}-{b!r}") for n, values in BAD_RECORD_FIELDS.items() for b in values]
)
def test_game_record_refuses_what_to_json_cannot_render(name, bad):
    fields = dict(zip(RECORD_FIELDS, ((1, 0, 1, 1, 0), (1, 0, 0, 1, 1), "even", 1, "even", 6, ("a line",))))
    with pytest.raises(DomainError):
        GameRecord(**{**fields, name: bad})


ATOL_ARGS = {
    "no_signalling_check": lambda v: no_signalling_check(PR_BOX, atol=v),
    "conservation_filter": lambda v: conservation_filter(PR_BOX, atol=v),
    "is_hermitian": lambda v: is_hermitian(np.eye(2), atol=v),
}


@pytest.mark.parametrize(
    "name,bad",
    [
        pytest.param(n, b, id=f"{n}-{b!r}")
        for n in ATOL_ARGS
        for b in [math.nan, math.inf, -1.0, -1e-300, np.float64(math.nan), True, None, "0", [0.1], np.array([0.1])]
    ],
)
def test_tolerance_must_be_finite_and_nonnegative(name, bad):
    # NaN used to pass every box, and a negative tolerance called the PR box not extremal
    with pytest.raises(DomainError):
        ATOL_ARGS[name](bad)


def test_tolerances_accepted():
    for atol in (0, 0.0, 1e-12, np.float64(0.5), 3):
        assert no_signalling_check(PR_BOX, atol=atol).passed
        assert conservation_filter(PR_BOX, atol=atol).status == "inconsistent"
        assert is_hermitian(np.eye(2), atol=atol)
        assert is_hermitian([[0, 1], [0, 0]], atol=atol) == (atol >= 1)
