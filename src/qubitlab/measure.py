"""Single-qubit Stern-Gerlach statistics.

Outcomes are always +1 or -1 (units hbar/2 = 1); the classical projection
cos(theta) of the prepared spin onto the measured axis survives only as the
mean of those two values. A sampled trial is a raw word of the seed's Philox
stream (`rng.word_blocks`), tallied exactly as the double numpy draws from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ATOL_EXACT, DomainError, check_int, real_number, unit_vector

# about 8 s of Philox words at ~7 ns each in a 4-cell tally
MAX_TRIALS = 2**30


@dataclass(frozen=True)
class SGSetup:
    """Preparation and measurement directions; the relative angle is derived."""

    prep_direction: tuple[float, float, float]
    meas_direction: tuple[float, float, float]

    def __post_init__(self):
        for name in ("prep_direction", "meas_direction"):
            object.__setattr__(self, name, unit_vector(getattr(self, name), name))

    @property
    def theta(self) -> float:
        """Angle between preparation and measurement directions, in [0, pi]."""
        (p0, p1, p2), (m0, m1, m2) = self.prep_direction, self.meas_direction
        d = p0 * m0 + p1 * m1 + p2 * m2
        return math.acos(max(-1.0, min(1.0, d)))


def projection_probabilities(setup: SGSetup) -> tuple[float, float]:
    """(P(+1), P(-1)) = (cos^2(theta/2), sin^2(theta/2)).

    P(-1) is computed as 1 - P(+1) so normalization holds exactly.
    """
    if not isinstance(setup, SGSetup):
        raise DomainError(f"not an SGSetup: {setup!r}")
    p_plus = math.cos(setup.theta / 2.0) ** 2
    return p_plus, 1.0 - p_plus


def expected_outcome(setup: SGSetup) -> float:
    """Mean outcome (+1)P(+1) + (-1)P(-1) = cos(theta), the classical projection."""
    p_plus, p_minus = projection_probabilities(setup)
    return p_plus - p_minus


def _check_tally(counts, n) -> tuple[tuple[int, ...], int]:
    """Nonnegative integer counts that sum to n >= 1 trials, as ints, else DomainError."""
    n = check_int(n, "trial count", 1)
    counts = tuple(check_int(c, "outcome count") for c in counts)
    if sum(counts) != n:
        raise DomainError("outcome counts must sum to the number of trials")
    return counts, n


@dataclass(frozen=True)
class OutcomeSample:
    """Tally of +1/-1 outcomes from one seeded run."""

    n_plus: int
    n_minus: int
    n: int
    seed: int

    def __post_init__(self):
        counts, n = _check_tally((self.n_plus, self.n_minus), self.n)
        for name, value in zip(("n_plus", "n_minus", "n", "seed"), (*counts, n, check_int(self.seed, "seed"))):
            object.__setattr__(self, name, value)

    @property
    def mean(self) -> float:
        return (self.n_plus - self.n_minus) / self.n


def tally(probs, n: int, seed: int) -> tuple[int, ...]:
    """Counts of the n draws of Generator(Philox(seed)).random(n) in cells of probabilities `probs`.

    Draw u falls in cell k when edges[k-1] <= u < edges[k] for the running
    sums `edges` of all probabilities but the last. The last cell takes every
    draw at or above the last edge, so the counts sum to n even where the
    float sum of the probabilities is below 1. The draws are counted as raw
    words, block by block through `rng.word_blocks`, holding no per-trial array.
    """
    import numpy as np
    from .rng import word_blocks
    n = check_int(n, "trial count", 1, MAX_TRIALS)
    cells = probs.tolist() if isinstance(probs, np.ndarray) else probs
    p = [real_number(x, "cell probabilities") for x in cells] if isinstance(cells, (tuple, list)) else []
    # an entry above 1 fails before the sum, which overflows at entries near the float range
    if not p or min(p) < -ATOL_EXACT or max(p) > 1.0 + ATOL_EXACT or not abs(math.fsum(p) - 1.0) <= ATOL_EXACT:
        raise DomainError(f"cell probabilities must be a distribution, got {probs!r}")
    # numpy's double from word w is (w >> 11) * 2**-53, so u < e holds exactly when
    # w < ceil(e * 2**53) << 11; the limit is clamped to 0 (no word) .. 2**64 (every word)
    limits = [min(max(math.ceil(e * 2**53), 0), 2**53) << 11 for e in itertools.accumulate(p[:-1])]
    below = [0] * len(limits)  # draws below each edge
    for words in word_blocks(seed, n):
        for k, limit in enumerate(limits):
            below[k] += words.size if limit == 2**64 else int(np.count_nonzero(words < np.uint64(limit)))
    return tuple(hi - lo for lo, hi in zip([0, *below], [*below, n]))


def sample_outcomes(setup: SGSetup, n: int, seed: int) -> OutcomeSample:
    """Seeded Monte Carlo tally of (P(+1), P(-1)); the empirical mean converges to cos(theta).

    Trial i is +1 when draw i of Generator(Philox(seed)).random(n) lies below P(+1).
    """
    n_plus, n_minus = tally(projection_probabilities(setup), n, seed)
    return OutcomeSample(n_plus, n_minus, n, seed)


def binomial_band(p: float, n: int) -> float:
    """Half-width of the 3-sigma band for an empirical frequency (the CLI's `band_3sigma`)."""
    n = check_int(n, "trial count", 1)
    p = real_number(p, "band probability")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"band probability must lie in [0, 1], got {p!r}")
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def within_band(counts, probs, n: int) -> bool:
    """Whether each count's frequency lies in the 3-sigma binomial band of its probability (the CLI's verdict)."""
    # a rounded correlator can leave a zero cell at -5.6e-17; its band is that of 0
    probs = [min(max(p, 0.0), 1.0) for p in probs]
    return all(abs(c / n - p) <= binomial_band(p, n) for c, p in zip(counts, probs))
