"""Single-qubit Stern-Gerlach statistics.

Outcomes are always +1 or -1 (units hbar/2 = 1); the classical projection
cos(theta) of the prepared spin onto the measured axis survives only as the
mean of those two values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_int
from .hilbert import unit_vector
from .rng import philox, uniform_blocks

# about 10 s of Philox draws at ~10 ns per double
MAX_TRIALS = 2**30


@dataclass(frozen=True)
class SGSetup:
    """Preparation and measurement directions; the relative angle is derived."""

    prep_direction: np.ndarray
    meas_direction: np.ndarray

    def __post_init__(self):
        for name in ("prep_direction", "meas_direction"):
            object.__setattr__(self, name, unit_vector(getattr(self, name), name))

    @property
    def theta(self) -> float:
        """Angle between preparation and measurement directions, in [0, pi]."""
        d = float(np.dot(self.prep_direction, self.meas_direction))
        return math.acos(max(-1.0, min(1.0, d)))


def projection_probabilities(setup: SGSetup) -> tuple[float, float]:
    """(P(+1), P(-1)) = (cos^2(theta/2), sin^2(theta/2)).

    P(-1) is computed as 1 - P(+1) so normalization holds exactly.
    """
    p_plus = math.cos(setup.theta / 2.0) ** 2
    return p_plus, 1.0 - p_plus


def expected_outcome(setup: SGSetup) -> float:
    """Mean outcome (+1)P(+1) + (-1)P(-1) = cos(theta), the classical projection."""
    p_plus, p_minus = projection_probabilities(setup)
    return p_plus - p_minus


@dataclass(frozen=True)
class OutcomeSample:
    """Tally of +1/-1 outcomes from one seeded run."""

    n_plus: int
    n_minus: int
    n: int
    seed: int

    def __post_init__(self):
        if self.n_plus + self.n_minus != self.n:
            raise DomainError("outcome counts must sum to the number of trials")

    @property
    def mean(self) -> float:
        return (self.n_plus - self.n_minus) / self.n


def sample_outcome_values(setup: SGSetup, n: int, seed: int) -> np.ndarray:
    """Array of n outcomes in {+1, -1}; trial i is a pure function of (seed, i)."""
    n = check_int(n, "trial count", 1, MAX_TRIALS)
    p_plus, _ = projection_probabilities(setup)
    u = philox(seed).random(n)
    return np.where(u < p_plus, 1, -1)


def sample_outcomes(setup: SGSetup, n: int, seed: int) -> OutcomeSample:
    """Seeded Monte Carlo tally; the empirical mean converges to cos(theta).

    Counts the draws of `sample_outcome_values` block by block, holding no
    per-trial array.
    """
    n = check_int(n, "trial count", 1, MAX_TRIALS)
    p_plus, _ = projection_probabilities(setup)
    n_plus = sum(int(np.count_nonzero(u < p_plus)) for u in uniform_blocks(seed, n))
    return OutcomeSample(n_plus, n - n_plus, n, seed)


def binomial_band(p: float, n: int, sigmas: float = 3.0) -> float:
    """Half-width of the `sigmas`-sigma band for an empirical frequency."""
    n = check_int(n, "trial count", 1)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"band probability must lie in [0, 1], got {p!r}")
    return sigmas * math.sqrt(p * (1.0 - p) / n)
