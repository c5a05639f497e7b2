"""The closed-form Bell layer against the trace-formula oracle, over the whole domain.

The library computes E(a, b) = sum_i s_i a_i b_i and p = (1 + alpha*beta*E)/4.
The oracle here is the general formula it replaced: p = trace(rho (Pi_a x Pi_b)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import measurement_operator, projectors

from qubitlab.bell import (
    BellKind,
    bell_density,
    correlator,
    joint_probabilities,
    plane_direction,
)
from qubitlab.boxes import chsh_value, no_signalling_check, quantum_box, tsirelson_scan
from qubitlab.hilbert import ATOL_EXACT, tensor

TSIRELSON = 2.0 * math.sqrt(2.0)
KIND_PLANES = [(BellKind.SINGLET, plane) for plane in ("xy", "yz", "xz")] + [
    (kind, kind.symmetry_plane) for kind in BellKind if not kind.is_singlet
]

kinds = st.sampled_from(list(BellKind))
directions = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: np.array(v) / math.hypot(*v))
)


def trace_joint(kind, a_dir, b_dir) -> np.ndarray:
    """Oracle: trace(rho (Pi_a x Pi_b)) in the order (pp, pm, mp, mm)."""
    rho = bell_density(kind)
    return np.array(
        [np.trace(rho @ tensor(pa, pb)).real for pa in projectors(a_dir) for pb in projectors(b_dir)]
    )


def trace_correlator(kind, a_dir, b_dir) -> float:
    """Oracle: trace(rho (a.sigma x b.sigma))."""
    op = tensor(measurement_operator(a_dir), measurement_operator(b_dir))
    return float(np.trace(bell_density(kind) @ op).real)


def brute_force_scan(kind, plane, n, alice_angles):
    """Row-major loop over Bob's grid pairs; first strict maximum wins, as argmax does."""
    grid = [k * (math.pi / n) for k in range(n)]
    e = [
        [correlator(kind, plane_direction(plane, a), plane_direction(plane, b)) for b in grid]
        for a in alice_angles
    ]
    best, best_pair = -math.inf, None
    for k0 in range(n):
        for k1 in range(n):
            total = (e[0][k0] + e[1][k0]) + (e[0][k1] + e[1][k1])
            value = max(abs(total - 2.0 * c) for c in (e[0][k0], e[0][k1], e[1][k0], e[1][k1]))
            if value > best:
                best, best_pair = value, (grid[k0], grid[k1])
    return best, best_pair, e


@given(kinds, directions, directions)
def test_closed_form_matches_trace_oracle(kind, a_dir, b_dir):
    jp = joint_probabilities(kind, a_dir, b_dir)
    ps = [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm]
    np.testing.assert_allclose(ps, trace_joint(kind, a_dir, b_dir), rtol=0, atol=ATOL_EXACT)
    assert abs(correlator(kind, a_dir, b_dir) - trace_correlator(kind, a_dir, b_dir)) <= ATOL_EXACT


@given(kinds, directions, directions)
def test_joint_probabilities_are_a_distribution(kind, a_dir, b_dir):
    jp = joint_probabilities(kind, a_dir, b_dir)
    ps = [jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm]
    # tighter than the tolerance JointProbabilities itself enforces
    assert min(ps) >= -1e-15
    assert abs(sum(ps) - 1.0) <= 1e-15


@given(kinds, directions, directions, directions, directions)
def test_quantum_boxes_do_not_signal_and_respect_tsirelson(kind, a0, a1, b0, b1):
    box = quantum_box(kind, [a0, a1], [b0, b1])
    assert no_signalling_check(box).passed
    assert chsh_value(box).value <= TSIRELSON + 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(KIND_PLANES),
    st.sampled_from([12, 36, 60]),
    st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
)
def test_scan_equals_brute_force_loop(kind_plane, n, alice_angles):
    kind, plane = kind_plane
    scan = tsirelson_scan(kind, plane, n, alice_angles)
    best, (b0, b1), e = brute_force_scan(kind, plane, n, alice_angles)
    assert (scan.max_value, scan.best_b0, scan.best_b1) == (best, b0, b1)
    assert scan.max_value <= TSIRELSON + 1e-12
    grid = [k * (math.pi / n) for k in range(n)]
    oracle = [
        [trace_correlator(kind, plane_direction(plane, a), plane_direction(plane, b)) for b in grid]
        for a in alice_angles
    ]
    assert np.max(np.abs(np.array(e) - np.array(oracle))) <= ATOL_EXACT


@pytest.mark.parametrize("kind,plane", KIND_PLANES)
@pytest.mark.parametrize("n", [12, 36, 60])
def test_default_scan_equals_brute_force_loop(kind, plane, n):
    scan = tsirelson_scan(kind, plane, n)
    best, (b0, b1), _ = brute_force_scan(kind, plane, n, scan.alice_angles)
    assert (scan.max_value, scan.best_b0, scan.best_b1) == (best, b0, b1)
