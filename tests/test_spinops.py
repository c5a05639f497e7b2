import math

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import LX_TARGET, LY_TARGET

from qubitlab.errors import ATOL_EXACT, DomainError
from qubitlab.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, commutator
from qubitlab.spinops import (
    LZ,
    SpinOperatorTriple,
    construct_lx_from_lz,
    construct_ly_from_lz,
    verify_pauli_embedding,
)

S2 = 1.0 / math.sqrt(2.0)


class TestConstruction:
    def test_lx_matches_target(self):
        np.testing.assert_allclose(construct_lx_from_lz(), LX_TARGET, atol=ATOL_EXACT)

    def test_ly_matches_target(self):
        np.testing.assert_allclose(construct_ly_from_lz(), LY_TARGET, atol=ATOL_EXACT)

    def test_single_entries(self):
        assert abs(construct_lx_from_lz()[0, 1] - S2) <= ATOL_EXACT
        assert abs(construct_ly_from_lz()[1, 0] - 1j * S2) <= ATOL_EXACT

    def test_lx_spectrum(self):
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(construct_lx_from_lz())), [-1, 0, 1], atol=ATOL_EXACT
        )

    def test_hermitian_traceless(self):
        for op in (construct_lx_from_lz(), construct_ly_from_lz()):
            np.testing.assert_allclose(op, op.conj().T, atol=ATOL_EXACT)
            assert abs(np.trace(op)) <= ATOL_EXACT

    def test_ly_off_diagonals_purely_imaginary(self):
        ly = construct_ly_from_lz()
        for i, j in ((0, 1), (1, 2)):
            assert abs(ly[i, j].real) <= ATOL_EXACT
            assert abs(ly[i, j] + ly[j, i]) <= ATOL_EXACT

    def test_cyclic_commutators(self):
        lx, ly = construct_lx_from_lz(), construct_ly_from_lz()
        np.testing.assert_allclose(commutator(lx, ly), 1j * LZ, atol=ATOL_EXACT)
        np.testing.assert_allclose(commutator(ly, LZ), 1j * lx, atol=ATOL_EXACT)
        np.testing.assert_allclose(commutator(LZ, lx), 1j * ly, atol=ATOL_EXACT)

    def test_spectra_match_lz(self):
        # unitary equivalence: identical spectra for all three operators
        for op in (construct_lx_from_lz(), construct_ly_from_lz(), LZ):
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(op)), np.sort(np.linalg.eigvalsh(LZ)), atol=ATOL_EXACT
            )


class TestTriple:
    def test_module_matrices_are_read_only(self):
        for m in (LZ, SIGMA_X, SIGMA_Y, SIGMA_Z):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 9

    def test_the_triple_keeps_its_own_read_only_copies(self):
        # the canonical triple used to hold LZ itself: one write to its lz broke every later triple and L_x
        triple = SpinOperatorTriple.canonical()
        assert triple.lz is not LZ
        for op in (triple.lx, triple.ly, triple.lz):
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 9
        lx = construct_lx_from_lz()
        held = SpinOperatorTriple(lx, construct_ly_from_lz(), LZ)
        lx[0, 0] = 9
        assert held == triple and verify_pauli_embedding(held).passed

    def test_triples_compare_and_hash_by_value(self):
        a, b = SpinOperatorTriple.canonical(), SpinOperatorTriple.canonical()
        assert a == b and hash(a) == hash(b)
        swapped = SpinOperatorTriple(b.ly, b.lx, b.lz)
        assert swapped != a and len({a, b, swapped}) == 2
        # equal entries hash alike whatever their bytes: -0.0 and 0.0 differ in the sign bit
        signed = SpinOperatorTriple(a.lx, a.ly, np.diag([1.0, -0.0, -1.0]))
        assert signed.lz.tobytes() != a.lz.tobytes()
        assert signed == a and hash(signed) == hash(a)


class TestVerification:
    def test_canonical_triple_passes(self):
        report = verify_pauli_embedding(SpinOperatorTriple.canonical())
        assert report.passed
        assert report.failures == ()

    def test_swapped_triple_fails_commutators(self):
        triple = SpinOperatorTriple(construct_ly_from_lz(), construct_lx_from_lz(), LZ)
        report = verify_pauli_embedding(triple)
        assert not report.passed
        failed = {c.name for c in report.failures}
        # swapping lx and ly flips the sign: [ly, lx] = -i lz
        assert "[lx,ly] = i lz" in failed
        comm = next(c for c in report.checks if c.name == "[lx,ly] = i lz")
        assert comm.deviation == 2.0

    def test_scaled_triple_fails_spectrum(self):
        triple = SpinOperatorTriple(
            2 * construct_lx_from_lz(), 2 * construct_ly_from_lz(), 2 * LZ
        )
        report = verify_pauli_embedding(triple)
        assert not report.passed
        assert any("spectrum" in c.name for c in report.failures)

    def test_asymmetry_past_the_float_range_fails_the_hermitian_check(self):
        # |m01 - conj(m10)| overflows; Python's complex abs used to raise OverflowError here
        lx = np.zeros((3, 3), dtype=complex)
        lx[0, 1] = 1.5e308 * (1 + 1j)
        report = verify_pauli_embedding(SpinOperatorTriple(lx, np.zeros((3, 3)), np.zeros((3, 3))))
        check = report.checks[8]  # after the 5 blocks and 3 commutators
        assert check.name == "lx Hermitian" and not check.passed and check.deviation == math.inf


CANONICAL = (construct_lx_from_lz(), construct_ly_from_lz(), LZ)
entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
matrices = st.lists(entries, min_size=9, max_size=9).map(lambda v: np.array(v).reshape(3, 3))
hermitian = matrices.map(lambda m: (m + m.conj().T) / 2.0)
near_canonical = matrices.map(lambda m: tuple(op + 1e-13 * m for op in CANONICAL))
# every product in a commutator of these overflows
huge_entries = st.tuples(st.floats(1e200, 1e300), st.sampled_from([1, -1, 1j, -1j])).map(lambda t: t[0] * t[1])
huge = st.lists(huge_entries, min_size=9, max_size=9).map(lambda v: np.array(v).reshape(3, 3))


class TestAgainstPerCheckOracle:
    @given(
        st.one_of(
            st.permutations(CANONICAL),
            st.floats(-3.0, 3.0).map(lambda c: tuple(c * op for op in CANONICAL)),
            near_canonical,
            st.tuples(hermitian, hermitian, hermitian),
            st.tuples(*[matrices | hermitian] * 3),
        )
    )
    def test_report_equals_oracle(self, ops):
        triple = SpinOperatorTriple(*ops)
        assert verify_pauli_embedding(triple) == oracles.pauli_embedding_checks(triple)

    @given(st.tuples(huge, huge, huge))
    def test_huge_entries_raise_commutator_error(self, ops):
        triple = SpinOperatorTriple(*ops)
        for verify in (verify_pauli_embedding, oracles.pauli_embedding_checks):
            with pytest.raises(DomainError, match="commutator"):
                verify(triple)

