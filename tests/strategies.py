"""Hypothesis strategies shared by the engine-value tests of `bell` and `qubit`: directions and angles near the edges."""

import math

import numpy as np
from hypothesis import strategies as st

COMPONENT = st.floats(-1.0, 1.0)
# a unit direction scaled to |v| = 1 or 1 -+ 1e-12 (to rounding), as an array, a float tuple or numpy floats
DIRECTIONS = st.one_of(
    st.builds(
        lambda v, scale, form: form(np.asarray(v) / np.linalg.norm(v) * scale),
        st.tuples(COMPONENT, COMPONENT, COMPONENT).filter(lambda v: math.hypot(*v) >= 0.1),
        st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]),
        st.sampled_from([np.array, lambda v: tuple(v.tolist()), lambda v: tuple(map(np.float64, v))]),
    ),
    st.sampled_from([(0, 0, 1), (np.int64(1), np.int64(0), np.int64(0)), np.array([0, -1, 0])]),
)
# angles near 0, +-pi and +-2**-50, as a float, a numpy float or a 0-d array
THETAS = st.builds(
    lambda c, d, form: form(c + d),
    st.sampled_from([0.0, math.pi, -math.pi, 2.0**-50, -(2.0**-50)]),
    st.sampled_from([0.0, 1e-15, -1e-15]) | st.floats(-1e-6, 1e-6),
    st.sampled_from([float, np.float64, np.array]),
)
