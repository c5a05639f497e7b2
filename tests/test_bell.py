import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import measurement_operator, pauli_expansion, projectors

from qubitlab import measure, rng
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
from qubitlab.errors import ATOL_EXACT, ConditioningError, DomainError, InvalidStateError
from qubitlab.hilbert import SIGMA_X, SIGMA_Z

ALL_KINDS = list(BellKind)
TRIPLETS = [BellKind.PSI_PLUS, BellKind.PHI_MINUS, BellKind.PHI_PLUS]

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


ANGLES = st.floats(-10.0, 10.0)


def plane_pair(kind, a_angle, b_angle):
    plane = kind.symmetry_plane if not kind.is_singlet else "xz"
    return plane_direction(plane, a_angle), plane_direction(plane, b_angle)


class TestDensities:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_outer_product_matches_pauli_expansion(self, kind):
        np.testing.assert_allclose(bell_density(kind), pauli_expansion(kind), atol=ATOL_EXACT)

    def test_singlet_signs(self):
        assert BellKind.SINGLET.pauli_signs == (-1, -1, -1)

    def test_phi_plus_signs(self):
        assert BellKind.PHI_PLUS.pauli_signs == (1, -1, 1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_state_checks(self, kind):
        rho = bell_density(kind)
        assert abs(np.trace(rho) - 1.0) <= ATOL_EXACT
        assert abs(np.trace(rho @ rho) - 1.0) <= ATOL_EXACT
        evals = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(evals, [0, 0, 0, 1], atol=ATOL_EXACT)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vectors_normalized(self, kind):
        v = bell_vector(kind)
        assert abs(np.vdot(v, v) - 1.0) <= ATOL_EXACT

    def test_plane_assignments(self):
        assert BellKind.SINGLET.symmetry_plane == "all"
        assert BellKind.PSI_PLUS.symmetry_plane == "xy"
        assert BellKind.PHI_MINUS.symmetry_plane == "yz"
        assert BellKind.PHI_PLUS.symmetry_plane == "xz"

    # every property of a kind, written out: plane, axis and amplitudes are derived from the signs
    @pytest.mark.parametrize(
        "kind,signs,plane,axis,amplitudes",
        [
            (BellKind.SINGLET, (-1, -1, -1), "all", None, (0, 1, -1, 0)),
            (BellKind.PSI_PLUS, (1, 1, -1), "xy", "z", (0, 1, 1, 0)),
            (BellKind.PHI_MINUS, (-1, 1, 1), "yz", "x", (1, 0, 0, -1)),
            (BellKind.PHI_PLUS, (1, -1, 1), "xz", "y", (1, 0, 0, 1)),
        ],
    )
    def test_each_kind_pinned(self, kind, signs, plane, axis, amplitudes):
        assert kind.pauli_signs == signs
        assert kind.symmetry_plane == plane
        assert kind.invariance_axis == axis
        v = bell_vector(kind)
        assert v.dtype == complex
        np.testing.assert_array_equal(v, np.array(amplitudes) / math.sqrt(2))


class TestMeasurementOperator:
    def test_z_direction(self):
        np.testing.assert_array_equal(measurement_operator(Z), SIGMA_Z)

    def test_x_direction(self):
        np.testing.assert_array_equal(measurement_operator(X), SIGMA_X)

    def test_diagonal_direction_eigenvalues(self):
        # direct eigensolve of (sx + sz)/sqrt(2)
        op = measurement_operator(np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
        np.testing.assert_allclose(op, (SIGMA_X + SIGMA_Z) / math.sqrt(2), atol=ATOL_EXACT)
        np.testing.assert_allclose(np.linalg.eigvalsh(op), [-1.0, 1.0], atol=ATOL_EXACT)

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            measurement_operator([1.0, 1.0, 0.0])

    def test_random_directions_have_unit_eigenvalues(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(measurement_operator(d)), [-1.0, 1.0], atol=ATOL_EXACT
            )

    def test_projectors_spectral(self):
        d = np.array([0.0, 1.0, 0.0])
        plus, minus = projectors(d)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=ATOL_EXACT)
        np.testing.assert_allclose(plus @ plus, plus, atol=ATOL_EXACT)
        np.testing.assert_allclose(
            plus - minus, measurement_operator(d), atol=ATOL_EXACT
        )


class TestJointProbabilities:
    def test_phi_plus_same_angle_perfect_correlation(self):
        jp = joint_probabilities(BellKind.PHI_PLUS, *plane_pair(BellKind.PHI_PLUS, 0.0, 0.0))
        np.testing.assert_allclose(
            [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm], [0.5, 0.0, 0.0, 0.5], atol=ATOL_EXACT
        )

    def test_singlet_same_angle_perfect_anticorrelation(self):
        jp = joint_probabilities(BellKind.SINGLET, Z, Z)
        np.testing.assert_allclose(
            [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm], [0.0, 0.5, 0.5, 0.0], atol=ATOL_EXACT
        )

    def test_phi_plus_pi_third(self):
        # (1/2)cos^2(pi/6) = 3/8 for like outcomes, 1/8 for unlike
        jp = joint_probabilities(
            BellKind.PHI_PLUS, *plane_pair(BellKind.PHI_PLUS, 0.0, math.pi / 3)
        )
        np.testing.assert_allclose(
            [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm], [0.375, 0.125, 0.125, 0.375], atol=ATOL_EXACT
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_closed_form_agrees_with_trace_formula(self, kind):
        for theta in np.linspace(0.0, math.pi, 61):
            a_dir, b_dir = plane_pair(kind, 0.2, 0.2 + theta)
            jp = joint_probabilities(kind, a_dir, b_dir)
            cf = closed_form_joint(kind, theta)
            np.testing.assert_allclose(
                [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm], [cf.p_pp, cf.p_pm, cf.p_mp, cf.p_mm], atol=ATOL_EXACT
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_marginals_uniform_everywhere(self, kind):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a_dir = rng.normal(size=3)
            a_dir /= np.linalg.norm(a_dir)
            b_dir = rng.normal(size=3)
            b_dir /= np.linalg.norm(b_dir)
            jp = joint_probabilities(kind, a_dir, b_dir)
            assert abs(jp.alice_marginal_plus - 0.5) <= ATOL_EXACT
            assert abs(jp.bob_marginal_plus - 0.5) <= ATOL_EXACT

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unlike_outcomes_symmetric(self, kind):
        for theta in np.linspace(0.0, math.pi, 31):
            jp = joint_probabilities(kind, *plane_pair(kind, 0.0, theta))
            assert abs(jp.p_pm - jp.p_mp) <= ATOL_EXACT

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidStateError):
            JointProbabilities(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(InvalidStateError):
            JointProbabilities(1.2, -0.2, 0.0, 0.0)


class TestConditionalAverages:
    def test_phi_plus_aligned(self):
        a, b = plane_pair(BellKind.PHI_PLUS, 0.0, 0.0)
        assert abs(conditional_average(BellKind.PHI_PLUS, a, b, 1) - 1.0) <= ATOL_EXACT

    def test_phi_plus_pi_third(self):
        a, b = plane_pair(BellKind.PHI_PLUS, 0.0, math.pi / 3)
        assert abs(conditional_average(BellKind.PHI_PLUS, a, b, 1) - 0.5) <= ATOL_EXACT

    def test_singlet_aligned_anticorrelated(self):
        assert abs(conditional_average(BellKind.SINGLET, Z, Z, 1) + 1.0) <= ATOL_EXACT

    @pytest.mark.parametrize("kind", TRIPLETS)
    def test_triplet_grid_average_only_conservation(self, kind):
        for theta in np.linspace(0.0, math.pi, 50):
            a, b = plane_pair(kind, 0.0, theta)
            assert abs(conditional_average(kind, a, b, 1) - math.cos(theta)) <= 1e-12
            assert abs(conditional_average(kind, a, b, -1) + math.cos(theta)) <= 1e-12

    def test_singlet_grid(self):
        for theta in np.linspace(0.0, math.pi, 50):
            a, b = plane_pair(BellKind.SINGLET, 0.1, 0.1 + theta)
            assert abs(conditional_average(BellKind.SINGLET, a, b, 1) + math.cos(theta)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), plane=st.sampled_from(("xy", "yz", "xz")), a=ANGLES, b=ANGLES)
    def test_plus_or_minus_cos_at_any_angle_pair(self, kind, plane, a, b):
        # the singlet anti-correlates in every plane, a triplet correlates in its own
        plane = plane if kind.is_singlet else kind.symmetry_plane
        a_dir, b_dir = plane_direction(plane, a), plane_direction(plane, b)
        want = -math.cos(b - a) if kind.is_singlet else math.cos(b - a)
        assert abs(conditional_average(kind, a_dir, b_dir, 1) - want) <= 1e-12
        assert abs(conditional_average(kind, a_dir, b_dir, -1) + want) <= 1e-12

    def test_zero_probability_conditioning_rejected(self):
        degenerate = JointProbabilities(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConditioningError):
            degenerate.conditional_average(-1)

    def test_bad_outcome_rejected(self):
        with pytest.raises(DomainError):
            JointProbabilities(0.25, 0.25, 0.25, 0.25).conditional_average(0)


class TestInvariance:
    def test_singlet_invariant_under_any_common_rotation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            report = invariance_check(
                BellKind.SINGLET, rng.normal(size=3), rng.uniform(0, 2 * math.pi)
            )
            assert report.invariant
            assert report.max_deviation <= ATOL_EXACT

    @pytest.mark.parametrize("kind", TRIPLETS)
    def test_triplet_invariant_about_its_axis(self, kind):
        for theta in (0.3, 1.1, 2.0):
            assert invariance_check(kind, kind.invariance_axis, theta).invariant

    @settings(max_examples=100, deadline=None)
    @given(axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), theta=ANGLES)
    def test_singlet_invariant_under_every_common_rotation(self, axis, theta):
        assume(math.hypot(*axis) >= 0.1)
        report = invariance_check(BellKind.SINGLET, axis, theta)
        assert report.invariant and report.max_deviation <= ATOL_EXACT

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(TRIPLETS), theta=ANGLES)
    def test_triplet_invariant_about_its_axis_at_every_angle(self, kind, theta):
        report = invariance_check(kind, kind.invariance_axis, theta)
        assert report.invariant and report.max_deviation <= ATOL_EXACT

    def test_phi_plus_not_invariant_about_x(self):
        report = invariance_check(BellKind.PHI_PLUS, "x", math.pi / 4)
        assert not report.invariant
        assert report.max_deviation > 1e-3


class TestSampling:
    def test_counts_reproducible_and_complete(self):
        a, b = plane_pair(BellKind.PHI_PLUS, 0.0, math.pi / 3)
        s1 = sample_joint(BellKind.PHI_PLUS, a, b, 5000, seed=3)
        s2 = sample_joint(BellKind.PHI_PLUS, a, b, 5000, seed=3)
        np.testing.assert_array_equal(s1.counts, s2.counts)
        assert s1.counts.sum() == 5000

    def test_conditional_mean_within_band(self):
        n = 10**5
        a, b = plane_pair(BellKind.PHI_PLUS, 0.0, math.pi / 3)
        sample = sample_joint(BellKind.PHI_PLUS, a, b, n, seed=13)
        # conditioned on Alice +1 (about n/2 trials), Var = 1 - 0.5^2
        n_cond = int(sample.counts[0].sum())
        sigma = math.sqrt((1 - 0.25) / n_cond)
        assert abs(sample.conditional_mean(1) - 0.5) <= 3 * sigma

    def test_correlator_helper_matches_joint(self):
        rng = np.random.default_rng(44)
        for kind in ALL_KINDS:
            a_dir = rng.normal(size=3)
            a_dir /= np.linalg.norm(a_dir)
            b_dir = rng.normal(size=3)
            b_dir /= np.linalg.norm(b_dir)
            jp = joint_probabilities(kind, a_dir, b_dir)
            assert abs(correlator(kind, a_dir, b_dir) - jp.correlator) <= ATOL_EXACT

    def test_top_draw_lands_in_the_last_cell(self, monkeypatch):
        # here the four probabilities sum to 1 - 2**-53 in floats, so the top word 2**64 - 1,
        # the draw 1 - 2**-53, lies above every running sum; it still counts, as mm
        a, b = plane_direction("xz", 1.56), plane_direction("xz", 0.0)
        jp = joint_probabilities(BellKind.SINGLET, a, b)
        assert np.cumsum([jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm])[-1] == 1 - 2**-53
        words = np.array([0, 2**64 - 1], dtype=np.uint64)
        monkeypatch.setattr(rng, "word_blocks", lambda seed, n: iter([words]))
        counts = sample_joint(BellKind.SINGLET, a, b, 2, seed=0).counts
        assert counts.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("outcome", [0, 7, -2, 2, None, "1"])
    def test_conditional_mean_refuses_outcomes_other_than_plus_minus_one(self, outcome):
        # any outcome but +1 used to read the -1 row
        sample = JointSample(np.array([[3, 1], [2, 4]]), 10, seed=0)
        with pytest.raises(DomainError):
            sample.conditional_mean(outcome)
        with pytest.raises(DomainError):
            JointProbabilities(0.3, 0.2, 0.1, 0.4).conditional_average(outcome)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None, measure.MAX_TRIALS + 1])
    def test_bad_trial_count_rejected(self, n):
        a, b = plane_pair(BellKind.SINGLET, 0.0, 1.0)
        with pytest.raises(DomainError):
            sample_joint(BellKind.SINGLET, a, b, n, seed=1)

    def test_numpy_trial_count_becomes_int(self):
        a, b = plane_pair(BellKind.SINGLET, 0.0, 1.0)
        sample = sample_joint(BellKind.SINGLET, a, b, np.int64(3), seed=1)
        assert type(sample.n) is int
        assert sample.counts.sum() == 3

    @pytest.mark.parametrize(
        "counts,n",
        [
            ([[1, 1], [1, 1]], 5), ([[2, -1], [1, 1]], 3), ([1, 1, 1, 1], 4), ([[1, 1, 1], [1, 1, 1]], 6),
            # float counts, a bool count, zero trials and a ragged table were accepted, or escaped as other errors
            ([[1.0, 1.0], [1.0, 1.0]], 4), ([[0.5, 0.5], [1, 2]], 4), ([[True, 1], [1, 1]], 4), ([[0, 0], [0, 0]], 0),
            ([[1, 1], [1]], 3), (None, 0), ([[1, 1], [1, 1]], 4.0),
        ],
    )
    def test_joint_sample_invariants(self, counts, n):
        with pytest.raises(DomainError):
            JointSample(counts, n, seed=0)

    def test_nested_list_counts_become_an_int_table(self):
        # conditional_mean used to raise AttributeError on a list table
        sample = JointSample([[1, 1], [3, 1]], 6, seed=0)
        assert sample.counts.tolist() == [[1, 1], [3, 1]] and sample.counts.dtype.kind == "i"
        assert (sample.conditional_mean(1), sample.conditional_mean(-1)) == (0.0, 0.5)

    def test_conditional_mean_on_an_empty_row_rejected(self):
        with pytest.raises(ConditioningError):
            JointSample(np.array([[0, 0], [2, 1]]), 3, seed=0).conditional_mean(1)


class TestPlaneDirections:
    def test_xz_plane_basis(self):
        np.testing.assert_allclose(plane_direction("xz", 0.0), [1, 0, 0], atol=ATOL_EXACT)
        np.testing.assert_allclose(plane_direction("xz", math.pi / 2), [0, 0, 1], atol=ATOL_EXACT)

    def test_unknown_plane_rejected(self):
        with pytest.raises(DomainError):
            plane_direction("xw", 0.0)

    def test_directions_unit(self):
        for plane in ("xy", "yz", "xz"):
            for angle in np.linspace(0, 2 * math.pi, 17):
                assert abs(np.linalg.norm(plane_direction(plane, angle)) - 1.0) <= ATOL_EXACT


class TestInputDomain:
    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0]])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(DomainError):
            joint_probabilities(BellKind.SINGLET, bad, Z)
        with pytest.raises(DomainError):
            joint_probabilities(BellKind.SINGLET, Z, bad)

    def test_density_is_a_copy(self):
        rho = bell_density(BellKind.SINGLET)
        rho[:] = 0.0
        np.testing.assert_allclose(
            bell_density(BellKind.SINGLET), pauli_expansion(BellKind.SINGLET), atol=ATOL_EXACT
        )

    def test_default_planes(self):
        assert resolve_plane(BellKind.SINGLET) == "xz"
        for kind in TRIPLETS:
            assert resolve_plane(kind) == kind.symmetry_plane

    def test_singlet_accepts_every_plane(self):
        for plane in ("xy", "yz", "xz"):
            assert resolve_plane(BellKind.SINGLET, plane) == plane

    @pytest.mark.parametrize("kind,plane", [(BellKind.PSI_PLUS, "xz"), (BellKind.PHI_PLUS, "yz")])
    def test_wrong_plane_rejected(self, kind, plane):
        with pytest.raises(DomainError):
            resolve_plane(kind, plane)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(InvalidStateError):
            JointProbabilities(0.5, 0.25, 0.25, bad)
