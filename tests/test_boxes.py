import hashlib
import itertools
import json
import math

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitlab import boxes
from qubitlab.bell import BellKind, plane_direction
from qubitlab.boxes import (
    MAX_SCAN_N,
    BehaviorBox,
    ConservationVerdict,
    chsh_value,
    conservation_filter,
    deterministic_box,
    lhv_max_chsh,
    no_signalling_check,
    pr_box,
    quantum_box,
    sign_pattern_box,
    tsirelson_scan,
)
from qubitlab.errors import ATOL_EXACT, DomainError, InvalidStateError

TSIRELSON = 2.0 * math.sqrt(2.0)


def canonical_singlet_box():
    angles_a = (0.0, math.pi / 2)
    angles_b = (math.pi / 4, 3 * math.pi / 4)
    return quantum_box(
        BellKind.SINGLET,
        [plane_direction("xz", a) for a in angles_a],
        [plane_direction("xz", b) for b in angles_b],
    )


def uniform_box():
    return BehaviorBox(np.full((2, 2, 2, 2), 0.25))


def signalling_box():
    # Alice's outcome tracks Bob's setting at x = 0
    p = np.zeros((2, 2, 2, 2))
    p[0, 0, 0, 0] = 1.0
    p[0, 1, 1, 1] = 1.0
    p[1, 0, 0, 0] = 1.0
    p[1, 1, 0, 0] = 1.0
    return BehaviorBox(p)


class TestBehaviorBox:
    def test_validation_shape(self):
        with pytest.raises(InvalidStateError):
            BehaviorBox(np.zeros((2, 2, 2)))

    def test_validation_normalization(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = 0.5
        with pytest.raises(InvalidStateError):
            BehaviorBox(p)

    def test_validation_negative(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 1] = [[0.5, 0.75], [-0.25, 0.0]]
        with pytest.raises(InvalidStateError):
            BehaviorBox(p)

    def test_pr_box_entries(self):
        box = pr_box()
        assert box.p[0][0][0][0] == 0.5  # equal outcomes at (a, b)
        assert box.p[1][1][0][0] == 0.0  # only unequal outcomes at (a', b')
        assert box.p[1][1][0][1] == 0.5

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, -1), (2, 0), (0, 2), (True, 0), (0, 1.0)])
    def test_setting_outside_0_1_rejected(self, x, y):
        # -1 used to read setting 1, and 2 raised IndexError
        box = pr_box()
        for read in (box.alice_marginal, box.bob_marginal, box.correlator):
            with pytest.raises(DomainError):
                read(x, y)

    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            raw = rng.random((2, 2, 2, 2))
            raw /= raw.sum(axis=(2, 3), keepdims=True)
            box = BehaviorBox(raw)
            back = BehaviorBox.from_json(box.to_json())
            assert back.p == box.p

    def test_json_header_checked(self):
        with pytest.raises(InvalidStateError):
            BehaviorBox.from_json('{"settings": [3, 2], "outcomes": [1, -1], "p": []}')

    @pytest.mark.parametrize(
        "text",
        [
            "[]",  # not an object
            "{",  # not JSON
            '{"settings": [2, 2], "outcomes": [1, -1]}',  # no "p"
            "[" * 10**5,  # nested past the parser's recursion limit
        ],
    )
    def test_json_that_is_no_box_rejected(self, text):
        with pytest.raises(InvalidStateError):
            BehaviorBox.from_json(text)

    def test_nan_probability_rejected(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 1, 1, 1] = np.nan
        with pytest.raises(InvalidStateError):
            BehaviorBox(p)
        text = '{"settings": [2, 2], "outcomes": [1, -1], "p": [' + "0.25, " * 15 + "NaN]}"
        with pytest.raises(InvalidStateError):
            BehaviorBox.from_json(text)


class TestNoSignalling:
    def test_pr_box_no_signalling_with_uniform_marginals(self):
        box = pr_box()
        report = no_signalling_check(box)
        assert report.passed
        for x, y in itertools.product((0, 1), repeat=2):
            assert box.alice_marginal(x, y) == 0.5
            assert box.bob_marginal(x, y) == 0.5

    def test_quantum_boxes_no_signalling(self):
        rng = np.random.default_rng(52)
        for kind in BellKind:
            plane = kind.symmetry_plane if kind.symmetry_plane != "all" else "xy"
            angles = rng.uniform(0, math.pi, size=4)
            box = quantum_box(
                kind,
                [plane_direction(plane, a) for a in angles[:2]],
                [plane_direction(plane, b) for b in angles[2:]],
            )
            assert no_signalling_check(box).passed

    def test_signalling_box_detected(self):
        report = no_signalling_check(signalling_box())
        assert not report.passed
        assert any("Alice marginal" in v for v in report.violations)


class TestChsh:
    def test_pr_box_reaches_four(self):
        result = chsh_value(pr_box())
        assert result.value == 4.0
        np.testing.assert_array_equal(result.correlators, [[1.0, 1.0], [1.0, -1.0]])
        assert result.minus_on == (1, 1)

    def test_uncorrelated_box_is_zero(self):
        assert chsh_value(uniform_box()).value == 0.0

    def test_singlet_canonical_angles_reach_tsirelson(self):
        result = chsh_value(canonical_singlet_box())
        assert abs(result.value - TSIRELSON) <= 1e-9

    def test_lhv_bound_exact(self):
        scan = lhv_max_chsh()
        assert scan.max_value == 2.0
        assert scan.n_strategies == 16
        # every deterministic strategy pair reaches exactly 2
        assert scan.n_maximizers == 16

    def test_lhv_tables_equal_box_enumeration(self):
        # the correlator tables against the 16 deterministic boxes through chsh_value
        scan = lhv_max_chsh()
        assert scan == oracles.box_enumeration()
        assert type(scan.max_value) is float

    @settings(max_examples=150, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
    def test_mixtures_of_deterministic_boxes_are_local(self, weights):
        # the local polytope: every convex mixture of the 16 deterministic boxes
        assume(sum(weights) >= 1e-3)
        strategies = itertools.product(itertools.product((1, -1), repeat=2), repeat=2)
        p = sum(w / sum(weights) * np.asarray(deterministic_box(a, b).p) for w, (a, b) in zip(weights, strategies))
        box = BehaviorBox(p)
        assert chsh_value(box).value <= 2.0 + 1e-12
        assert no_signalling_check(box).passed

    def test_all_plus_strategy(self):
        box = deterministic_box((1, 1), (1, 1))
        assert chsh_value(box).value == 2.0

    @pytest.mark.parametrize("signs", [5, None, [1, 1], [[1, 1]], [[1, 1], [1, 0]], [[1, 1], [1, 1.5]], "ab"])
    def test_bad_sign_pattern_rejected(self, signs):
        with pytest.raises(DomainError):
            sign_pattern_box(signs)

    def test_bad_strategy_rejected(self):
        with pytest.raises(DomainError):
            deterministic_box((1, 0), (1, 1))


class TestConservationFilter:
    def test_pr_box_inconsistent_with_deduction_chain(self):
        verdict = conservation_filter(pr_box())
        assert verdict.status == "inconsistent"
        text = " / ".join(verdict.trace)
        assert "a = b" in text
        assert "a = b'" in text
        assert "a' = b" in text
        assert "a' = -b'" in text          # the fourth correlator's demand
        assert "implies a' = b'" in text   # the chain's implication
        assert "antipode" in text

    def test_perfectly_correlated_consistent(self):
        verdict = conservation_filter(sign_pattern_box([[1, 1], [1, 1]]))
        assert verdict.status == "consistent"

    def test_mixed_sign_pattern_consistent(self):
        # graph closure by hand: a = b = b', and a' antipodal to both
        verdict = conservation_filter(sign_pattern_box([[1, 1], [-1, -1]]))
        assert verdict.status == "consistent"

    def test_non_extremal_not_applicable(self):
        assert conservation_filter(uniform_box()).status == "not_applicable"
        assert conservation_filter(canonical_singlet_box()).status == "not_applicable"

    def test_traces_of_all_sixteen_sign_patterns_are_pinned(self):
        # sha256 of the (signs, status, trace) rows, recorded from the union-find
        # version of the filter before the cycle rule replaced it
        rows = [[list(signs), v.status, list(v.trace)] for signs, box in oracles.extremal_sign_family()
                for v in [conservation_filter(box)]]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "a5d3f6c1442db28298b08fcf4368c34f2effbba0abd1927dc343fb645530f753"

    def test_verdicts_match_direction_enumeration(self):
        # consistent exactly when some choice of a, a', b, b' as +/- one common
        # direction gives every correlator: E(x, y) = alice[x] * bob[y]
        for signs, box in oracles.extremal_sign_family():
            fits = any(
                all(signs[2 * x + y] == alice[x] * bob[y] for x in (0, 1) for y in (0, 1))
                for alice in itertools.product((1, -1), repeat=2)
                for bob in itertools.product((1, -1), repeat=2)
            )
            assert conservation_filter(box).status == ("consistent" if fits else "inconsistent")

    def test_trace_prints_the_sign_of_a_rounded_correlator(self):
        # E(a,b) here is -0.9999999999999998, which int() used to print as "+0"
        a = 6.998155441665141
        dirs = [plane_direction("xz", a), plane_direction("xz", a + math.pi)]
        box = quantum_box(BellKind.SINGLET, dirs, dirs)
        assert box.correlators()[0][0] > -1.0
        verdict = conservation_filter(box)
        assert verdict.status == "consistent"
        assert verdict.trace[0] == "correlator E(a,b) = -1 says a = -b"

    def test_deterministic_boxes_consistent_and_bounded(self):
        for a in itertools.product((1, -1), repeat=2):
            for b in itertools.product((1, -1), repeat=2):
                box = deterministic_box(a, b)
                assert conservation_filter(box).status == "consistent"
                assert chsh_value(box).value <= 2.0


# the values where numpy's printing changes course: the switch to scientific form at 1e-4 and at a ratio of 1e3
# (1.0 / 1e-3 is 1e3 exactly), their neighbours, 1 +/- 1 ulp, rounding ties and carries at 6 digits, cos(pi/2),
# the smallest normal and subnormal numbers
EDGE_VALUES = [
    0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1e-3, math.nextafter(1e-3, 0.0),
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9.9999995e-05, 9.999999999999999e-05,
    0.0078125, 2.0**-9, 0.9999995, 0.1234565,
    6.123233995736766e-17, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0), 1e-323, 5e-324,
]
EDGES = EDGE_VALUES + [-v for v in EDGE_VALUES]
SIGNS = st.sampled_from((1.0, -1.0))
TABLE_VALUES = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(lambda s, x: s * 10.0**x, SIGNS, st.floats(-323.3, 0.0)),  # log-uniform magnitudes down to 5e-324
    st.builds(round, st.floats(-1.0, 1.0), st.integers(0, 8)),
    st.sampled_from(EDGES),
)


def box_json(tables) -> str:
    """A box whose setting pair k carries the correlator 0.5 - (0.5 - d) + d (sign +) or its negative (sign -)."""
    flat = [p for sign, d in tables for p in ((0.5, 0.5 - d, 0.0, d) if sign > 0 else (0.5 - d, 0.5, d, 0.0))]
    return json.dumps({"settings": [2, 2], "outcomes": [1, -1], "p": flat})


class TestCorrelatorText:
    """boxes._table_text against numpy's array2string, which it replaced in the conservation trace."""

    def test_every_pair_of_edge_values(self):
        # all-zero tables and signed zeros among them
        for u, v in itertools.product(EDGES, repeat=2):
            for e in ([[u, v], [v, u]], [[u, 0.5], [-0.25, v]]):
                assert boxes._table_text(e) == oracles.correlator_text(e), e

    @settings(max_examples=500, deadline=None)
    @given(st.lists(TABLE_VALUES, min_size=4, max_size=4))
    def test_equals_numpy_printing(self, flat):
        e = [flat[:2], flat[2:]]
        assert boxes._table_text(e) == oracles.correlator_text(e)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SIGNS, TABLE_VALUES.map(lambda v: min(abs(v), 0.5))), min_size=4, max_size=4))
    def test_trace_of_a_box_read_from_json(self, tables):
        box = BehaviorBox.from_json(box_json(tables))
        e = box.correlators()
        verdict = conservation_filter(box)
        if max(abs(abs(v) - 1.0) for row in e for v in row) > ATOL_EXACT:
            text = f"box is not extremal: correlators {oracles.correlator_text(e)} are not all +/-1"
            assert verdict == ConservationVerdict("not_applicable", (text,))
        else:
            assert verdict.status in ("consistent", "inconsistent")


class TestExtremalFamily:
    def test_odd_parity_patterns_are_pr_like(self):
        # CHSH = 4 exactly when the product of the four correlator signs is -1;
        # all such patterns are PR-box relabelings and all fail conservation
        family = oracles.extremal_sign_family()
        assert len(family) == 16
        fours = []
        for signs, box in family:
            parity = signs[0] * signs[1] * signs[2] * signs[3]
            value = chsh_value(box).value
            verdict = conservation_filter(box).status
            assert no_signalling_check(box).passed
            if parity == -1:
                assert value == 4.0
                assert verdict == "inconsistent"
                fours.append(signs)
            else:
                assert value == 2.0
                assert verdict == "consistent"
        assert len(fours) == 8

    def test_chsh4_patterns_relabel_to_pr_box(self):
        # flipping Bob's outcomes at one setting multiplies that column by -1;
        # likewise for Alice and rows. Every CHSH-4 pattern reaches the PR box.
        pr_signs = np.array([[1, 1], [1, -1]])
        for signs, box in oracles.extremal_sign_family():
            if chsh_value(box).value != 4.0:
                continue
            s = np.array(signs).reshape(2, 2)
            reachable = False
            for fa0, fa1, fb0, fb1 in itertools.product((1, -1), repeat=4):
                flipped = s * np.array([[fa0 * fb0, fa0 * fb1], [fa1 * fb0, fa1 * fb1]])
                if np.array_equal(flipped, pr_signs):
                    reachable = True
                    break
            assert reachable


class TestTsirelsonScan:
    def test_small_scan_respects_bound(self):
        scan = tsirelson_scan(BellKind.SINGLET, "xz", n=36)
        assert scan.max_value <= TSIRELSON + 1e-9
        assert scan.max_value >= 2.0

    def test_scan_hits_tsirelson_on_degree_grid(self):
        scan = tsirelson_scan(BellKind.SINGLET, "xz", n=180)
        assert abs(scan.max_value - TSIRELSON) <= 1e-9

    def test_triplet_scan_in_its_plane(self):
        scan = tsirelson_scan(BellKind.PHI_PLUS, "xz", n=60)
        assert scan.max_value <= TSIRELSON + 1e-9

    def test_wrong_plane_rejected(self):
        with pytest.raises(DomainError):
            tsirelson_scan(BellKind.PSI_PLUS, "xz", n=12)

    def test_quantum_box_requires_two_directions(self):
        with pytest.raises(DomainError):
            quantum_box(BellKind.SINGLET, [plane_direction("xz", 0.0)], [plane_direction("xz", 0.0)])


class TestScanBounds:
    def test_grid_above_the_limit_rejected(self):
        with pytest.raises(DomainError):
            tsirelson_scan(BellKind.SINGLET, "xz", n=MAX_SCAN_N + 1)

    def test_huge_grid_rejected_before_allocating(self):
        with pytest.raises(DomainError):
            tsirelson_scan(BellKind.SINGLET, "xz", n=10**9)

    def test_unknown_plane_rejected(self):
        with pytest.raises(DomainError):
            tsirelson_scan(BellKind.SINGLET, "xw", n=12)
