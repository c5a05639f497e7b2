"""tsirelson_scan against the n x n evaluation, and its small memory.

The scan evaluates the correlators only at the grid points next to each part's
closed-form top (every point when a part is flat) and the exact grid expression
only on the optimal parts' pairs of them; the oracle evaluates it at every grid
pair with numpy. Both must return the same float and the same first row-major
maximizer.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matrix_scan

from qubitlab.bell import BellKind
from qubitlab.boxes import MAX_SCAN_N, tsirelson_scan

KIND_PLANES = [(BellKind.SINGLET, plane) for plane in ("xy", "yz", "xz")] + [
    (kind, kind.symmetry_plane) for kind in BellKind if not kind.is_singlet
]
# default, parallel and antiparallel Alice settings: the last two make one part of a
# sign placement constant, so every grid row (or column) is a candidate
ALICE_ANGLES = [(0.0, math.pi / 2.0), (0.3, 0.3), (0.3 + math.pi, 0.3)]


def assert_same_scan(kind, plane, n, alice_angles):
    scan = tsirelson_scan(kind, plane, n, alice_angles)
    oracle = matrix_scan(kind, plane, n, alice_angles)
    assert (scan.max_value, scan.best_b0, scan.best_b1) == (oracle.max_value, oracle.best_b0, oracle.best_b1)


@pytest.mark.parametrize("alice_angles", ALICE_ANGLES)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 181, 720, 1440, MAX_SCAN_N])
@pytest.mark.parametrize("kind,plane", KIND_PLANES)
def test_scan_equals_matrix_oracle(kind, plane, n, alice_angles):
    assert_same_scan(kind, plane, n, alice_angles)


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)
# Delta = a' - a within 1e-9..1e-2 of 0 and +/-pi, and within 2x of where a part of amplitude
# 2|sin(Delta/2)| or 2|cos(Delta/2)| turns flat (below 1e-4) and the scan evaluates every grid point
deltas = st.builds(
    lambda base, sign, offset: base + sign * offset,
    st.sampled_from([0.0, math.pi, -math.pi]),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(1e-9, 1e-2), st.floats(5e-5, 2e-4)),
)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(KIND_PLANES),
    st.one_of(st.sampled_from([2, 3, 4, 5, 12, 60, 180, 181, 720]), st.integers(2, 720)),
    st.one_of(
        st.tuples(angles, angles),
        angles.map(lambda a: (a, a)),
        st.floats(-math.pi, math.pi).map(lambda a: (a, a + math.pi)),
        st.builds(lambda a, delta: (a, a + delta), angles, deltas),
        # far past 2 pi: each angle reaches the scan's windows through its own sine and cosine
        st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    ),
)
def test_scan_equals_matrix_oracle_at_any_alice_angles(kind_plane, n, alice_angles):
    assert_same_scan(*kind_plane, n, alice_angles)


@pytest.mark.parametrize("alice_angles", ALICE_ANGLES)
def test_largest_scan_stays_small(alice_angles):
    # the n x n evaluation peaks at 384 MiB here
    tracemalloc.start()
    try:
        tsirelson_scan(n=MAX_SCAN_N, alice_angles=alice_angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
