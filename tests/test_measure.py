import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import recipe_uniforms, sample_outcome_values

from qubitlab.errors import DomainError
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
from qubitlab.qubit import so3_rotation
from qubitlab.rng import BLOCK

Z = np.array([0.0, 0.0, 1.0])


def setup_at(theta):
    return SGSetup(Z, np.array([math.sin(theta), 0.0, math.cos(theta)]))


class TestProbabilities:
    def test_aligned(self):
        assert projection_probabilities(setup_at(0.0)) == (1.0, 0.0)

    def test_orthogonal(self):
        p_plus, p_minus = projection_probabilities(setup_at(math.pi / 2))
        assert abs(p_plus - 0.5) <= 1e-12
        assert abs(p_minus - 0.5) <= 1e-12

    def test_two_thirds_pi(self):
        p_plus, p_minus = projection_probabilities(setup_at(2 * math.pi / 3))
        assert abs(p_plus - 0.25) <= 1e-12
        assert abs(p_minus - 0.75) <= 1e-12

    def test_normalization_exact(self):
        for theta in np.linspace(0.0, math.pi, 1000):
            p_plus, p_minus = projection_probabilities(setup_at(theta))
            assert p_plus + p_minus == 1.0

    def test_non_unit_vector_rejected(self):
        with pytest.raises(DomainError):
            SGSetup(Z, np.array([0.0, 0.0, 2.0]))


class TestExpectedOutcome:
    @pytest.mark.parametrize(
        "theta,value", [(0.0, 1.0), (math.pi, -1.0), (math.pi / 3, 0.5)]
    )
    def test_values(self, theta, value):
        assert abs(expected_outcome(setup_at(theta)) - value) <= 1e-12

    def test_pi_third_cross_check(self):
        # (+1) * 0.75 + (-1) * 0.25 from the probability pair
        p_plus, p_minus = projection_probabilities(setup_at(math.pi / 3))
        assert abs((p_plus - p_minus) - 0.5) <= 1e-12

    def test_average_only_identity_on_grid(self):
        # mean outcome equals the classical projection cos(theta) everywhere
        for theta in np.linspace(0.0, math.pi, 10**4):
            assert abs(expected_outcome(setup_at(theta)) - math.cos(theta)) <= 1e-12


class TestSampling:
    def test_outcome_support(self):
        values = sample_outcome_values(setup_at(1.0), 2000, seed=5)
        assert set(np.unique(values)) <= {-1, 1}

    def test_aligned_always_plus(self):
        sample = sample_outcomes(setup_at(0.0), 500, seed=1)
        assert sample.n_plus == 500
        assert sample.n_minus == 0

    def test_seed_reproducibility(self):
        a = sample_outcomes(setup_at(0.9), 10_000, seed=42)
        b = sample_outcomes(setup_at(0.9), 10_000, seed=42)
        assert (a.n_plus, a.n_minus) == (b.n_plus, b.n_minus)
        c = sample_outcomes(setup_at(0.9), 10_000, seed=43)
        assert (a.n_plus, a.n_minus) != (c.n_plus, c.n_minus)

    @pytest.mark.parametrize("theta,p", [(math.pi / 2, 0.5), (2 * math.pi / 3, 0.25)])
    def test_frequencies_within_binomial_band(self, theta, p):
        n = 10**5
        sample = sample_outcomes(setup_at(theta), n, seed=7)
        assert abs(sample.n_plus / n - p) <= binomial_band(p, n)

    def test_mean_converges(self):
        n = 10**5
        sample = sample_outcomes(setup_at(math.pi / 3), n, seed=11)
        # var of a +/-1 outcome is 1 - cos^2(theta)
        sigma = math.sqrt((1 - 0.25) / n)
        assert abs(sample.mean - 0.5) <= 3 * sigma

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            sample_outcomes(setup_at(0.5), 0, seed=1)

    # all but the first were accepted; (0, 0, 0) then failed in `mean` with ZeroDivisionError
    @pytest.mark.parametrize("counts", [(3, 3, 5), (-1, 6, 5), (2.5, 2.5, 5), (0, 0, 0), (True, 4, 5), (3, 2, 5.0)])
    def test_count_invariant(self, counts):
        with pytest.raises(DomainError):
            OutcomeSample(*counts, seed=0)

    def test_numpy_counts_become_ints(self):
        sample = OutcomeSample(np.int64(3), np.int32(2), np.uint8(5), seed=0)
        assert (sample.n_plus, sample.n_minus, sample.n) == (3, 2, 5) and type(sample.n_plus) is int

    @pytest.mark.parametrize("n", [-1, 2.0, 3.5, True, np.bool_(True), "3", None, MAX_TRIALS + 1, 10**11])
    @pytest.mark.parametrize("sampler", [sample_outcomes, sample_outcome_values])
    def test_bad_trial_count_rejected(self, sampler, n):
        with pytest.raises(DomainError):
            sampler(setup_at(0.5), n, seed=1)

    def test_numpy_trial_count_becomes_int(self):
        sample = sample_outcomes(setup_at(0.5), np.int64(3), seed=1)
        assert (type(sample.n), type(sample.n_plus), type(sample.n_minus)) == (int, int, int)
        assert len(sample_outcome_values(setup_at(0.5), np.int32(3), seed=1)) == 3


class TestTally:
    @settings(max_examples=60, deadline=None)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4)
        .filter(lambda w: sum(w) > 0.0)
        .map(lambda w: [v / math.fsum(w) for v in w]),
        n=st.integers(1, 3 * BLOCK + 2),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(probs=[0.3, 0.0, 0.7], n=BLOCK, seed=1)
    @example(probs=[0.25, 0.25, 0.25, 0.25], n=BLOCK + 1, seed=2)
    @example(probs=[1.0, 0.0], n=2 * BLOCK - 1, seed=3)
    # edges at and just past the ends of [0, 1), where tally's integer word limit is clamped
    @example(probs=[0.0, 1.0], n=5, seed=4)
    @example(probs=[-1e-13, 1 + 1e-13], n=5, seed=5)
    @example(probs=[2**-53, 1 - 2**-53], n=BLOCK + 3, seed=6)
    @example(probs=[1 - 2**-53, 2**-53], n=BLOCK + 3, seed=7)
    @example(probs=[1.0, 0.0], n=5, seed=8)
    @example(probs=[1 + 1e-13, -1e-13], n=5, seed=9)
    def test_equals_the_one_shot_searchsorted_count(self, probs, n, seed):
        cell = np.searchsorted(np.cumsum(probs[:-1]), recipe_uniforms(seed, n), side="right")
        assert tally(probs, n, seed) == tuple(np.bincount(cell, minlength=len(probs)).tolist())

    def test_last_cell_takes_the_draws_above_every_edge(self):
        # the cells sum to 1 - 2**-53 in floats; no draw is lost
        counts = tally((0.5, 0.5 - 2**-53), 10**4, seed=4)
        assert sum(counts) == 10**4

    @pytest.mark.parametrize(
        "probs",
        [
            (), (0.5,), (0.6, 0.6), (1.5, -0.5), (math.nan, 1.0), (math.inf, 0.0), ((0.5, 0.5),), ("0.5", "0.5"), 1.0,
            # entries above 1: the sum of the first used to overflow in math.fsum
            (1e308, 1e308, 1e308), (1e308, -1e308), (1 + 1e-11, -1e-11),
        ],
    )
    def test_refuses_what_is_not_a_distribution(self, probs):
        with pytest.raises(DomainError):
            tally(probs, 10, seed=1)


class TestBinomialBand:
    @pytest.mark.parametrize("p,n,band", [(0.5, 100, 3 * 0.05), (0.5, 1, 3 * 0.5), (0.0, 10, 0.0), (1.0, 10, 0.0)])
    def test_band_is_three_sigmas(self, p, n, band):
        assert binomial_band(p, n) == band

    def test_takes_no_width(self):
        # the 3-sigma width is fixed: `band_3sigma` is the one band the CLI reports
        with pytest.raises(TypeError):
            binomial_band(0.5, 10, 2)


class TestRotationalInvariance:
    def test_common_rotation_leaves_probabilities_alone(self):
        rng = np.random.default_rng(31)
        base = setup_at(0.77)
        p_ref = projection_probabilities(base)
        for _ in range(25):
            r = so3_rotation(rng.normal(size=3), rng.uniform(0, 2 * math.pi))
            rotated = SGSetup(r @ base.prep_direction, r @ base.meas_direction)
            p_rot = projection_probabilities(rotated)
            assert abs(p_rot[0] - p_ref[0]) <= 1e-9
            assert abs(p_rot[1] - p_ref[1]) <= 1e-9


def test_nan_direction_rejected():
    with pytest.raises(DomainError):
        SGSetup(Z, [math.nan, 0.0, 1.0])
