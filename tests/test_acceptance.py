"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import io
import math
import time
import tracemalloc

import numpy as np
from oracles import LX_TARGET, LY_TARGET, pauli_expansion

from qubitlab.bell import (
    BellKind,
    bell_density,
    conditional_average,
    invariance_check,
    joint_probabilities,
    plane_direction,
    sample_joint,
)
from qubitlab.boxes import (
    MAX_SCAN_N,
    chsh_value,
    conservation_filter,
    lhv_max_chsh,
    no_signalling_check,
    pr_box,
    quantum_box,
    tsirelson_scan,
)
from qubitlab import quoin
from qubitlab.hilbert import commutator
from qubitlab.measure import SGSetup, binomial_band, expected_outcome, projection_probabilities, sample_outcomes
from qubitlab.quoin import (
    QuoinMechanics,
    QuoinStrategy,
    enumerate_riggings,
    monte_carlo,
    play_game,
    verify_parity_theorem,
)
from qubitlab.qubit import QubitState, bloch_rotation_for, su2_rotate
from qubitlab.spinops import LZ, construct_lx_from_lz, construct_ly_from_lz

TSIRELSON = 2.0 * math.sqrt(2.0)


def _report(number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def setup_at(theta):
    return SGSetup([0.0, 0.0, 1.0], [math.sin(theta), 0.0, math.cos(theta)])


def test_criterion_01_projection_law():
    start = time.perf_counter()
    thetas = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi]
    ok = True
    for theta in thetas:
        p_plus, p_minus = projection_probabilities(setup_at(theta))
        ok &= abs(p_plus - math.cos(theta / 2) ** 2) <= 1e-12
        ok &= abs(p_minus - math.sin(theta / 2) ** 2) <= 1e-12
        n = 10**5
        sample = sample_outcomes(setup_at(theta), n, seed=101)
        ok &= abs(sample.n_plus / n - p_plus) <= binomial_band(p_plus, n)
    elapsed = time.perf_counter() - start
    _report(1, "projection law, analytic + Monte Carlo", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_average_only_identity():
    start = time.perf_counter()
    thetas = np.linspace(0.0, math.pi, 10**4)
    worst = max(abs(expected_outcome(setup_at(t)) - math.cos(t)) for t in thetas)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "mean outcome equals cos(theta) on a 10^4 grid",
        worst <= 1e-12 and elapsed < 1.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_bell_densities():
    worst = 0.0
    for kind in BellKind:
        dev = float(np.max(np.abs(bell_density(kind) - pauli_expansion(kind))))
        worst = max(worst, dev)
    _report(3, "Bell densities match their Pauli expansions", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_04_average_only_conservation():
    start = time.perf_counter()
    ok = True
    for theta in np.linspace(0.0, math.pi, 100):
        a = plane_direction("xz", 0.0)
        b = plane_direction("xz", theta)
        ok &= abs(conditional_average(BellKind.PHI_PLUS, a, b, 1) - math.cos(theta)) <= 1e-12
    n = 10**5
    sample = sample_joint(
        BellKind.PHI_PLUS, plane_direction("xz", 0.0), plane_direction("xz", math.pi / 3), n, seed=104
    )
    n_cond = sum(sample.counts[0])
    sigma = math.sqrt((1.0 - 0.25) / n_cond)
    ok &= abs(sample.conditional_mean(1) - 0.5) <= 3 * sigma
    elapsed = time.perf_counter() - start
    _report(4, "conditional average reproduces cos(theta)", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_05_lhv_bound():
    scan = lhv_max_chsh()
    start = time.perf_counter()
    repeats = [lhv_max_chsh() for _ in range(2000)]
    elapsed = time.perf_counter() - start
    _report(
        5,
        "local deterministic strategies max out at CHSH = 2",
        scan.max_value == 2.0 and scan.n_strategies == 16 and set(repeats) == {scan} and elapsed < 0.5,
        f"max {scan.max_value}, {scan.n_maximizers}/16 maximizers; 2000 enumerations {elapsed:.2f}s",
    )


def test_criterion_06_tsirelson_bound():
    start = time.perf_counter()
    box = quantum_box(
        BellKind.SINGLET,
        [plane_direction("xz", 0.0), plane_direction("xz", math.pi / 2)],
        [plane_direction("xz", math.pi / 4), plane_direction("xz", 3 * math.pi / 4)],
    )
    canonical = chsh_value(box).value
    scan = tsirelson_scan(BellKind.SINGLET, "xz", n=180)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    repeats = [tsirelson_scan(BellKind.SINGLET, "xz", n=180) for _ in range(1000)]
    scans = time.perf_counter() - start
    start = time.perf_counter()
    largest = {tsirelson_scan(n=MAX_SCAN_N) for _ in range(1000)}
    large_scans = time.perf_counter() - start
    # equal and antipodal Alice angles make a part flat, so the scan evaluates every grid point; with one
    # setting in effect, Alice reaches only the local bound 2, within the grid's 1.5e-7
    flat_scans, flat_values = [], []
    for angles in ((0.3, 0.3), (0.3 + math.pi, 0.3)):
        start = time.perf_counter()
        flat_values.append(tsirelson_scan(n=4096, alice_angles=angles).max_value)
        flat_scans.append(time.perf_counter() - start)
    # the canonical box is not extremal: its conservation trace prints the correlator table
    verdict = conservation_filter(box)
    start = time.perf_counter()
    traces = {conservation_filter(box) for _ in range(5000)}
    filters = time.perf_counter() - start
    ok = abs(canonical - TSIRELSON) <= 1e-9 and scan.max_value <= TSIRELSON + 1e-9 and set(repeats) == {scan}
    ok &= len(largest) == 1 and abs(largest.pop().max_value - TSIRELSON) <= 1e-9
    ok &= all(abs(v - 2.0) <= 1e-6 for v in flat_values)
    ok &= verdict.status == "not_applicable" and traces == {verdict}
    _report(
        6,
        "canonical angles reach 2*sqrt(2); 180x180 scan respects the bound",
        ok and elapsed < 10.0 and scans < 1.0 and large_scans < 1.0 and max(flat_scans) < 0.25 and filters < 0.25,
        f"canonical {canonical:.9f}, scan max {scan.max_value:.9f}, {elapsed:.2f}s; 1000 scans {scans:.2f}s; "
        f"1000 scans at n={MAX_SCAN_N} {large_scans:.2f}s; flat scans at n=4096 "
        f"{' / '.join(f'{s:.3f}' for s in flat_scans)}s; 5000 non-extremal conservation traces {filters:.2f}s",
    )


def test_criterion_07_pr_box():
    box = pr_box()
    ns = no_signalling_check(box, atol=0.0)
    chsh = chsh_value(box)
    verdict = conservation_filter(box)
    text = " / ".join(verdict.trace)
    ok = (
        ns.passed
        and chsh.value == 4.0
        and verdict.status == "inconsistent"
        and "a = b" in text
        and "a = b'" in text
        and "a' = b" in text
        and "implies a' = b'" in text
        and "a' = -b'" in text
    )
    _report(7, "PR-box: no-signalling, CHSH 4, conservation inconsistent", ok)


def test_criterion_08_rigging_impossibility():
    scan = enumerate_riggings()
    ok = scan.valid == () and len(scan.failures) == 16
    for failure in scan.failures:
        ok &= failure.start in {(1, 1), (1, 0), (0, 1), (0, 0)}
        ok &= failure.required in ("equal", "unequal")
    _report(8, "no rigging pair reproduces the mechanics", ok, f"{len(scan.failures)} failures")


def test_criterion_09_quoin_game():
    start = time.perf_counter()
    n = 10**4
    quoin_summary = monte_carlo(QuoinStrategy(), n, seed=109)
    quantum_summary = monte_carlo(
        QuoinStrategy(), n, seed=109, mech=QuoinMechanics.quantum_coin()
    )
    elapsed = time.perf_counter() - start
    # the per-index path: games replayed one at a time at consecutive indices, each rendered as its record line
    start = time.perf_counter()
    lines = [play_game(QuoinStrategy(), 109, 109, game_index=g).to_json() for g in range(n)]
    replay = time.perf_counter() - start
    # the `game simulate --transcript` path: one block loop tallies the games and renders their lines
    buf = io.StringIO()

    def write(block):
        buf.write("\n".join(block) + "\n")

    start = time.perf_counter()
    written = monte_carlo(QuoinStrategy(), n, 109, write=write)
    transcript = time.perf_counter() - start
    # many small runs, each on a seed whose keys are not yet cached
    start = time.perf_counter()
    small = {monte_carlo(QuoinStrategy(), 300, seed) for seed in range(10**6, 10**6 + 2000)}
    small_runs = time.perf_counter() - start
    ok = (
        quoin_summary.win_rate == 1.0
        and quoin_summary.mean_chips_net == 4.0
        and abs(quantum_summary.win_rate - 0.5) <= 0.015
        and len(lines) == n
        and written == quoin_summary
        and buf.getvalue() == "".join(line + "\n" for line in lines)
        and small == {monte_carlo(QuoinStrategy(), 300, 0)}
    )
    _report(
        9,
        "quoin strategy always nets +4; quantum coins drop to chance",
        ok and elapsed < 5.0 and replay < 1.0 and transcript < 0.5 and small_runs < 1.0,
        f"quantum-coin rate {quantum_summary.win_rate:.4f}, {elapsed:.2f}s; "
        f"{n} replayed lines {replay:.2f}s ({replay / n * 1e6:.1f} us a game); "
        f"{n}-game transcript {transcript:.2f}s; 2000 runs of 300 games {small_runs:.2f}s",
    )


def test_criterion_10_parity_theorem():
    report = verify_parity_theorem(seeds=range(32))
    start = time.perf_counter()
    repeats = [verify_parity_theorem(seeds=range(32)) for _ in range(50)]
    elapsed = time.perf_counter() - start
    _report(
        10,
        "combined-H parity equals double-1-lane parity on all 2^10 deals x 32 seeds",
        report.holds and report.checked == 32 * 2**10 and repeats == [report] * 50 and elapsed < 1.0,
        f"{report.checked} checks; 50 exhausts {elapsed:.2f}s",
    )


def test_parity_theorem_at_its_bounds():
    # every seed and every lane allowed, under the mechanics where half the deals fail: the report counts
    # 256 x 32,640 failures, shows the first 1000 and reads draws only for those (it used to keep 40 MiB,
    # and reading its failures formatted all 8.4 M lines)
    args = range(quoin.MAX_PARITY_SEEDS), quoin.MAX_LANES, QuoinMechanics.quantum_coin()
    start = time.perf_counter()
    report = verify_parity_theorem(*args)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = verify_parity_theorem(*args)
        kept_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    counted = report.failure_count == kept.failure_count == 256 * 32640
    shown = len(report.failures) == quoin.MAX_FAILURE_LINES and kept == report
    _report(
        10,
        "the parity report at 256 seeds and 8 lanes takes < 50 ms and keeps < 1 MiB",
        counted and shown and elapsed < 0.05 and kept_bytes < 2**20,
        f"{report.failure_count} failures, {len(report.failures)} shown; built in {elapsed * 1e3:.1f} ms, "
        f"keeping {kept_bytes / 2**20:.2f} MiB",
    )


def test_criterion_11_operator_construction():
    lx = construct_lx_from_lz()
    ly = construct_ly_from_lz()
    ok = float(np.max(np.abs(lx - LX_TARGET))) <= 1e-12
    ok &= float(np.max(np.abs(ly - LY_TARGET))) <= 1e-12
    ok &= float(np.max(np.abs(commutator(lx, ly) - 1j * LZ))) <= 1e-12
    ok &= float(np.max(np.abs(commutator(ly, LZ) - 1j * lx))) <= 1e-12
    ok &= float(np.max(np.abs(commutator(LZ, lx) - 1j * ly))) <= 1e-12
    for op in (lx, ly, LZ):
        ok &= bool(np.allclose(np.sort(np.linalg.eigvalsh(op)), [-1, 0, 1], atol=1e-12))
    _report(11, "sequential construction reproduces the spin-1 operators", ok)


def test_criterion_12_su2_so3_homomorphism():
    rng = np.random.default_rng(112)
    ok = True
    worst = 0.0
    for _ in range(100):
        bloch = rng.normal(size=3)
        bloch = bloch / np.linalg.norm(bloch) * rng.uniform(0.0, 1.0)
        state = QubitState.from_bloch(bloch)
        axis = rng.normal(size=3)
        theta = rng.uniform(-math.pi, math.pi)
        dev = float(
            np.max(
                np.abs(
                    su2_rotate(state, axis, theta).bloch
                    - bloch_rotation_for(axis, theta) @ state.bloch
                )
            )
        )
        worst = max(worst, dev)
        ok &= dev <= 1e-9
    worst_inv = 0.0
    for _ in range(100):
        report = invariance_check(BellKind.SINGLET, rng.normal(size=3), rng.uniform(0, 2 * math.pi))
        worst_inv = max(worst_inv, report.max_deviation)
        ok &= report.invariant
    # per-call times of the two analytic constructions, a rotated state and a joint table
    calls = 2000
    start = time.perf_counter()
    for _ in range(calls):
        su2_rotate(state, axis, theta)
    su2_us = (time.perf_counter() - start) / calls * 1e6
    a_dir, b_dir = plane_direction("xz", 0.3), tuple((axis / np.linalg.norm(axis)).tolist())
    start = time.perf_counter()
    for _ in range(calls):
        joint_probabilities(BellKind.PHI_PLUS, a_dir, b_dir)
    joint_us = (time.perf_counter() - start) / calls * 1e6
    _report(
        12,
        "SU(2) conjugation matches SO(3); singlet invariant under common rotations",
        ok,
        f"rotation dev {worst:.2e}, invariance dev {worst_inv:.2e}; "
        f"{su2_us:.1f} us a su2_rotate, {joint_us:.1f} us a joint table",
    )
