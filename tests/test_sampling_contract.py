"""Sampled counts a fixed setting, trial count and seed must reproduce.

Trials are the draws of numpy's Generator(Philox(seed)).random(n), read as raw
words in blocks of rng.BLOCK. The table below was recorded from the one-shot
samplers that drew all n uniforms at once (`searchsorted` + `bincount` for the
joint counts), so it pins the block streaming and the word comparison to the
same counts, across block boundaries. `recipe_uniforms` and
`sample_outcome_values` of `tests/oracles.py` and the one-shot draw inside this
file are the oracles.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import recipe_uniforms, sample_outcome_values

from qubitlab import bell, measure
from qubitlab.rng import BLOCK, word_blocks

NS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 10**6)
SEEDS = (0, 7, 424242)
THETA = 1.0
# in-plane angles (a, b) per kind; phi- at a == b has two empty cells
ANGLES = {"singlet": (0.3, 1.9), "psi+": (0.0, 2 * math.pi / 3), "phi-": (1.0, 1.0), "phi+": (-0.7, 2.6)}

# ("outcomes", n, seed) -> n_plus; (kind, n, seed) -> counts (pp, pm, mp, mm)
PINNED = {
    ('outcomes', 1, 0): 1,
    ('singlet', 1, 0): (1, 0, 0, 0),
    ('psi+', 1, 0): (1, 0, 0, 0),
    ('phi-', 1, 0): (1, 0, 0, 0),
    ('phi+', 1, 0): (0, 1, 0, 0),
    ('outcomes', 1, 7): 1,
    ('singlet', 1, 7): (0, 1, 0, 0),
    ('psi+', 1, 7): (0, 1, 0, 0),
    ('phi-', 1, 7): (1, 0, 0, 0),
    ('phi+', 1, 7): (0, 1, 0, 0),
    ('outcomes', 1, 424242): 1,
    ('singlet', 1, 424242): (0, 1, 0, 0),
    ('psi+', 1, 424242): (0, 1, 0, 0),
    ('phi-', 1, 424242): (1, 0, 0, 0),
    ('phi+', 1, 424242): (0, 1, 0, 0),
    ('outcomes', 2, 0): 2,
    ('singlet', 2, 0): (1, 1, 0, 0),
    ('psi+', 2, 0): (1, 1, 0, 0),
    ('phi-', 2, 0): (2, 0, 0, 0),
    ('phi+', 2, 0): (0, 2, 0, 0),
    ('outcomes', 2, 7): 2,
    ('singlet', 2, 7): (0, 2, 0, 0),
    ('psi+', 2, 7): (0, 2, 0, 0),
    ('phi-', 2, 7): (2, 0, 0, 0),
    ('phi+', 2, 7): (0, 2, 0, 0),
    ('outcomes', 2, 424242): 1,
    ('singlet', 2, 424242): (0, 1, 0, 1),
    ('psi+', 2, 424242): (0, 1, 0, 1),
    ('phi-', 2, 424242): (1, 0, 0, 1),
    ('phi+', 2, 424242): (0, 1, 1, 0),
    ('outcomes', 65535, 0): 50663,
    ('singlet', 65535, 0): (16976, 15887, 15974, 16698),
    ('psi+', 65535, 0): (8275, 24588, 24562, 8110),
    ('phi-', 65535, 0): (32863, 0, 0, 32672),
    ('phi+', 65535, 0): (204, 32659, 32483, 189),
    ('outcomes', 65535, 7): 50392,
    ('singlet', 65535, 7): (16933, 15800, 15908, 16894),
    ('psi+', 65535, 7): (8122, 24611, 24632, 8170),
    ('phi-', 65535, 7): (32733, 0, 0, 32802),
    ('phi+', 65535, 7): (209, 32524, 32600, 202),
    ('outcomes', 65535, 424242): 50322,
    ('singlet', 65535, 424242): (16832, 15864, 15900, 16939),
    ('psi+', 65535, 424242): (8212, 24484, 24620, 8219),
    ('phi-', 65535, 424242): (32696, 0, 0, 32839),
    ('phi+', 65535, 424242): (206, 32490, 32633, 206),
    ('outcomes', 65536, 0): 50664,
    ('singlet', 65536, 0): (16976, 15887, 15975, 16698),
    ('psi+', 65536, 0): (8275, 24588, 24563, 8110),
    ('phi-', 65536, 0): (32863, 0, 0, 32673),
    ('phi+', 65536, 0): (204, 32659, 32484, 189),
    ('outcomes', 65536, 7): 50393,
    ('singlet', 65536, 7): (16934, 15800, 15908, 16894),
    ('psi+', 65536, 7): (8122, 24612, 24632, 8170),
    ('phi-', 65536, 7): (32734, 0, 0, 32802),
    ('phi+', 65536, 7): (209, 32525, 32600, 202),
    ('outcomes', 65536, 424242): 50323,
    ('singlet', 65536, 424242): (16832, 15865, 15900, 16939),
    ('psi+', 65536, 424242): (8212, 24485, 24620, 8219),
    ('phi-', 65536, 424242): (32697, 0, 0, 32839),
    ('phi+', 65536, 424242): (206, 32491, 32633, 206),
    ('outcomes', 65537, 0): 50665,
    ('singlet', 65537, 0): (16976, 15887, 15976, 16698),
    ('psi+', 65537, 0): (8275, 24588, 24564, 8110),
    ('phi-', 65537, 0): (32863, 0, 0, 32674),
    ('phi+', 65537, 0): (204, 32659, 32485, 189),
    ('outcomes', 65537, 7): 50394,
    ('singlet', 65537, 7): (16934, 15801, 15908, 16894),
    ('psi+', 65537, 7): (8122, 24613, 24632, 8170),
    ('phi-', 65537, 7): (32735, 0, 0, 32802),
    ('phi+', 65537, 7): (209, 32526, 32600, 202),
    ('outcomes', 65537, 424242): 50323,
    ('singlet', 65537, 424242): (16832, 15865, 15900, 16940),
    ('psi+', 65537, 424242): (8212, 24485, 24621, 8219),
    ('phi-', 65537, 424242): (32697, 0, 0, 32840),
    ('phi+', 65537, 424242): (206, 32491, 32634, 206),
    ('outcomes', 196615, 0): 151516,
    ('singlet', 196615, 0): (50709, 47708, 47715, 50483),
    ('psi+', 196615, 0): (24660, 73757, 73589, 24609),
    ('phi-', 196615, 0): (98417, 0, 0, 98198),
    ('phi+', 196615, 0): (609, 97808, 97584, 614),
    ('outcomes', 196615, 7): 151399,
    ('singlet', 196615, 7): (50494, 47793, 47817, 50511),
    ('psi+', 196615, 7): (24492, 73795, 73840, 24488),
    ('phi-', 196615, 7): (98287, 0, 0, 98328),
    ('phi+', 196615, 7): (616, 97671, 97712, 616),
    ('outcomes', 196615, 424242): 151395,
    ('singlet', 196615, 424242): (50641, 47699, 47655, 50620),
    ('psi+', 196615, 424242): (24612, 73728, 73812, 24463),
    ('phi-', 196615, 424242): (98340, 0, 0, 98275),
    ('phi+', 196615, 424242): (638, 97702, 97636, 639),
    ('outcomes', 1000000, 0): 770250,
    ('singlet', 1000000, 0): (257295, 242527, 242826, 257352),
    ('psi+', 1000000, 0): (125435, 374387, 375220, 124958),
    ('phi-', 1000000, 0): (499822, 0, 0, 500178),
    ('phi+', 1000000, 0): (2991, 496831, 497087, 3091),
    ('outcomes', 1000000, 7): 770569,
    ('singlet', 1000000, 7): (256920, 243316, 243088, 256676),
    ('psi+', 1000000, 7): (124694, 375542, 374849, 124915),
    ('phi-', 1000000, 7): (500236, 0, 0, 499764),
    ('phi+', 1000000, 7): (3033, 497203, 496635, 3129),
    ('outcomes', 1000000, 424242): 770169,
    ('singlet', 1000000, 424242): (257303, 242666, 242582, 257449),
    ('psi+', 1000000, 424242): (125111, 374858, 374952, 125079),
    ('phi-', 1000000, 424242): (499969, 0, 0, 500031),
    ('phi+', 1000000, 424242): (3128, 496841, 496913, 3118),
}


def sg_setup(theta=THETA):
    return measure.SGSetup([0.0, 0.0, 1.0], [math.sin(theta), 0.0, math.cos(theta)])


def joint_setting(name, a=None, b=None):
    kind = bell.BellKind(name)
    plane = bell.resolve_plane(kind)
    a0, b0 = ANGLES[name]
    return kind, bell.plane_direction(plane, a0 if a is None else a), bell.plane_direction(plane, b0 if b is None else b)


def one_shot_joint(kind, a_dir, b_dir, n, seed):
    """The whole draw at once: searchsorted over the first three edges, then bincount."""
    jp = bell.joint_probabilities(kind, a_dir, b_dir)
    edges = np.cumsum([jp.p_pp, jp.p_pm, jp.p_mp])
    idx = np.searchsorted(edges, recipe_uniforms(seed, n), side="right")
    return tuple(int(c) for c in np.bincount(idx, minlength=4))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("seed", SEEDS)
def test_outcome_counts_pinned(n, seed):
    sample = measure.sample_outcomes(sg_setup(), n, seed)
    assert sample.n_plus == PINNED["outcomes", n, seed]
    assert sample.n_minus == n - sample.n_plus


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(ANGLES))
def test_joint_counts_pinned(name, n, seed):
    sample = bell.sample_joint(*joint_setting(name), n, seed)
    assert tuple(int(c) for c in sample.counts.reshape(-1)) == PINNED[name, n, seed]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_blocks_concatenate_to_the_one_shot_draw(n):
    blocks = list(word_blocks(3, n))
    assert all(len(b) <= BLOCK for b in blocks)
    words = np.concatenate(blocks)
    np.testing.assert_array_equal(words, np.random.Philox(3).random_raw(n))
    # numpy's double from word w is (w >> 11) * 2**-53
    np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, recipe_uniforms(3, n))


class TestStreamingMatchesOneShot:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK),
        seed=st.integers(0, 2**63 - 1),
        theta=st.floats(0.0, math.pi),
    )
    def test_outcomes(self, n, seed, theta):
        setup = sg_setup(theta)
        sample = measure.sample_outcomes(setup, n, seed)
        assert sample.n_plus == int(np.count_nonzero(sample_outcome_values(setup, n, seed) == 1))

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(list(ANGLES)),
        n=st.integers(1, 3 * BLOCK),
        seed=st.integers(0, 2**63 - 1),
        a=st.floats(-2 * math.pi, 2 * math.pi),
        b=st.floats(-2 * math.pi, 2 * math.pi),
    )
    def test_joint(self, name, n, seed, a, b):
        setting = joint_setting(name, a, b)
        counts = bell.sample_joint(*setting, n, seed).counts
        assert tuple(int(c) for c in counts.reshape(-1)) == one_shot_joint(*setting, n, seed)
        assert counts.sum() == n


@pytest.mark.parametrize(
    "draw",
    [
        lambda: measure.sample_outcomes(sg_setup(), 4 * 10**6, 1),
        lambda: bell.sample_joint(*joint_setting("singlet"), 4 * 10**6, 1),
    ],
    ids=["sample_outcomes", "sample_joint"],
)
def test_sampler_memory_is_bounded(draw):
    # the one-shot samplers held tens of MB of per-trial arrays here
    tracemalloc.start()
    try:
        draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
