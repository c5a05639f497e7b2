import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import ID2

from qubitlab.errors import ATOL_EXACT, DimensionError, DomainError, InvalidStateError
from qubitlab.hilbert import SIGMA_X, SIGMA_Z
from qubitlab.qubit import (
    MAX_PATH_STEPS,
    ClassicalBitState,
    QubitState,
    axis_vector,
    bloch_roundtrip,
    bloch_rotation_for,
    classical_pure_path,
    gbit_dimension,
    so3_rotation,
    su2_rotate,
    su2_rotation,
)


def random_state(rng):
    # random point in the closed unit ball
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return QubitState.from_bloch(v * rng.uniform(0.0, 1.0))


class TestQubitState:
    def test_up_state_roundtrip(self):
        state = QubitState.up()
        np.testing.assert_allclose(state.bloch, [0, 0, 1], atol=ATOL_EXACT)
        assert state.is_pure
        np.testing.assert_allclose(bloch_roundtrip(state).rho, state.rho, atol=ATOL_EXACT)

    def test_down_state_is_the_pure_south_pole(self):
        state = QubitState.down()
        np.testing.assert_allclose(state.bloch, [0, 0, -1], atol=ATOL_EXACT)
        assert state.is_pure

    def test_maximally_mixed(self):
        state = QubitState.maximally_mixed()
        np.testing.assert_allclose(state.bloch, [0, 0, 0], atol=ATOL_EXACT)
        assert not state.is_pure
        np.testing.assert_allclose(state.rho, ID2 / 2, atol=ATOL_EXACT)

    def test_diagonal_bloch_vector_is_pure(self):
        # eigenvalue check: (I + (sx+sz)/sqrt2)/2 must be a rank-1 projector
        s = 1 / math.sqrt(2)
        state = QubitState.from_bloch([s, 0.0, s])
        expected = (ID2 + (SIGMA_X + SIGMA_Z) * s) / 2
        np.testing.assert_allclose(state.rho, expected, atol=ATOL_EXACT)
        np.testing.assert_allclose(np.linalg.eigvalsh(state.rho), [0.0, 1.0], atol=ATOL_EXACT)
        assert state.is_pure

    def test_roundtrip_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            state = random_state(rng)
            np.testing.assert_allclose(bloch_roundtrip(state).rho, state.rho, atol=ATOL_EXACT)

    def test_bad_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            QubitState(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            QubitState(np.diag([1.5, -0.5]).astype(complex))

    def test_bloch_vector_outside_ball_rejected(self):
        with pytest.raises(InvalidStateError):
            QubitState.from_bloch([1.0, 0.0, 0.1])

    def test_non_hermitian_density_is_an_invalid_state(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            QubitState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_huge_finite_entries_rejected_without_overflow(self):
        # pytest turns numpy's overflow warning into an error, so this also checks that none is raised
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            QubitState(np.array([[0.5, 1e308], [1e308, 0.5]]))

    def test_bloch_string_and_nan_rejected_as_such(self):
        with pytest.raises(DimensionError):
            QubitState.from_bloch("abc")
        with pytest.raises(DomainError, match="finite"):
            QubitState.from_bloch([math.nan, 0.0, 0.0])

    def test_readings_from_the_pauli_expansion(self):
        state = QubitState.from_bloch([0.6, 0.0, 0.0])
        assert state.bloch.dtype == float
        np.testing.assert_allclose(state.bloch, [0.6, 0.0, 0.0], rtol=0, atol=ATOL_EXACT)
        assert abs(state.purity - (1 + 0.36) / 2) <= ATOL_EXACT


class TestSu2Rotation:
    def test_quarter_turn_moves_pole_to_equator(self):
        rotated = su2_rotate(QubitState.up(), "x", math.pi / 4)
        assert abs(rotated.bloch[2]) <= ATOL_EXACT
        # our convention: exp(i*theta*sigma_x) turns z toward +y for theta = pi/4
        np.testing.assert_allclose(rotated.bloch, [0, 1, 0], atol=ATOL_EXACT)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(22)
        state = random_state(rng)
        np.testing.assert_allclose(su2_rotate(state, "y", 0.0).rho, state.rho, atol=ATOL_EXACT)

    def test_pole_fixed_under_z_rotation(self):
        for theta in (0.3, 1.0, -2.5):
            rotated = su2_rotate(QubitState.up(), "z", theta)
            np.testing.assert_allclose(rotated.bloch, [0, 0, 1], atol=ATOL_EXACT)

    def test_purity_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            state = random_state(rng)
            axis = rng.normal(size=3)
            theta = rng.uniform(-math.pi, math.pi)
            rotated = su2_rotate(state, axis, theta)
            assert abs(np.linalg.norm(rotated.bloch) - np.linalg.norm(state.bloch)) <= 1e-12

    def test_conjugation_matches_so3_action(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            state = random_state(rng)
            axis = rng.normal(size=3)
            theta = rng.uniform(-math.pi, math.pi)
            rotated = su2_rotate(state, axis, theta)
            np.testing.assert_allclose(
                rotated.bloch, bloch_rotation_for(axis, theta) @ state.bloch, atol=1e-12
            )

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            state = random_state(rng)
            ax1, ax2 = rng.normal(size=3), rng.normal(size=3)
            t1, t2 = rng.uniform(-2, 2, size=2)
            two_step = su2_rotate(su2_rotate(state, ax1, t1), ax2, t2)
            composed = bloch_rotation_for(ax2, t2) @ bloch_rotation_for(ax1, t1) @ state.bloch
            np.testing.assert_allclose(two_step.bloch, composed, atol=1e-9)

    def test_unitary_unitarity(self):
        u = su2_rotation([1.0, 1.0, 0.0], 0.7)
        np.testing.assert_allclose(u @ u.conj().T, ID2, atol=ATOL_EXACT)

    def test_so3_is_rotation_matrix(self):
        r = so3_rotation([0.0, 1.0, 1.0], 1.1)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=ATOL_EXACT)
        assert abs(np.linalg.det(r) - 1.0) <= ATOL_EXACT

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(DomainError):
            su2_rotation("x", math.inf)

    def test_unknown_axis_name_rejected(self):
        with pytest.raises(DomainError, match="unknown axis name"):
            axis_vector("w")
        with pytest.raises(DomainError, match="unknown axis name"):
            su2_rotation("xy", 0.1)


unit = st.floats(-1.0, 1.0)


class TestSu2ToSo3Property:
    @settings(max_examples=200, deadline=None)
    @given(
        axis=st.tuples(unit, unit, unit),
        theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
        direction=st.tuples(unit, unit, unit),
        radius=st.floats(0.0, 1.0),
    )
    def test_conjugation_is_the_induced_rotation(self, axis, theta, direction, radius):
        assume(np.linalg.norm(axis) >= 0.1 and np.linalg.norm(direction) >= 0.1)
        bloch = radius * np.asarray(direction) / np.linalg.norm(direction)
        state = QubitState.from_bloch(bloch)
        r = bloch_rotation_for(axis, theta)
        np.testing.assert_allclose(su2_rotate(state, axis, theta).bloch, r @ state.bloch, rtol=0, atol=ATOL_EXACT)
        np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0, atol=ATOL_EXACT)
        assert abs(np.linalg.det(r) - 1.0) <= ATOL_EXACT


class TestGbitDimension:
    @pytest.mark.parametrize("s,expected", [(1, 1), (2, 3), (4, 15)])
    def test_values(self, s, expected):
        assert gbit_dimension(s) == expected

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(DomainError):
            gbit_dimension(bad)


class TestClassicalBit:
    def test_path_zero_to_one_interior_mixed(self):
        path = classical_pure_path(ClassicalBitState(0.0), ClassicalBitState(1.0), steps=3)
        assert [s.p1 for s in path] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(not s.is_pure for s in path[1:-1])

    def test_path_one_to_zero_single_step(self):
        path = classical_pure_path(ClassicalBitState(1.0), ClassicalBitState(0.0), steps=1)
        assert [s.p1 for s in path] == [1.0, 0.5, 0.0]
        assert not path[1].is_pure

    def test_qubit_contrast_pole_to_pole_stays_pure(self):
        # ten equal rotation steps from (0,0,1) to (0,0,-1) about x: every
        # state along the way sits on the sphere surface
        states = [QubitState.up()]
        for k in range(1, 11):
            states.append(su2_rotate(QubitState.up(), "x", k * (math.pi / 2) / 10))
        np.testing.assert_allclose(states[-1].bloch, [0, 0, -1], atol=ATOL_EXACT)
        assert all(s.is_pure for s in states)
        assert len(states) == 11

    def test_any_two_pure_states_connected_through_pure_states(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            axis = np.cross(a, b)
            angle = math.acos(float(np.clip(a @ b, -1, 1)))
            start = QubitState.from_bloch(a)
            path = [su2_rotate(start, axis, -0.5 * angle * t) for t in np.linspace(0, 1, 12)]
            assert all(s.is_pure for s in path)
            np.testing.assert_allclose(path[-1].bloch, b, atol=1e-9)

    def test_non_pure_endpoint_rejected(self):
        with pytest.raises(DomainError):
            classical_pure_path(ClassicalBitState(0.4), ClassicalBitState(1.0), steps=2)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(DomainError):
            classical_pure_path(ClassicalBitState(1.0), ClassicalBitState(1.0), steps=2)

    def test_path_steps_are_bounded(self):
        # one object per point: 10**6 steps took 5.4 s and 115 MiB before the bound
        zero, one = ClassicalBitState(0.0), ClassicalBitState(1.0)
        assert len(classical_pure_path(zero, one, MAX_PATH_STEPS)) == MAX_PATH_STEPS + 2
        for steps in (MAX_PATH_STEPS + 1, 10**6, 10**9):
            with pytest.raises(DomainError, match="exceed the bound"):
                classical_pure_path(zero, one, steps)

    def test_invalid_probability_rejected(self):
        with pytest.raises(InvalidStateError):
            ClassicalBitState(1.2)

    def test_box_two_holds_the_rest(self):
        assert ClassicalBitState(0.25).p2 == 0.75
