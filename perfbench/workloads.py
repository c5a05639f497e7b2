"""Seeded op decks for the four workloads and the closed-form checks on their results.

A deck is one cycle of a workload's op mix. Op sizes (batch lengths, scan
grids, game counts up to a small seeded jitter, trial counts) are fixed per
deck, so every deck costs the same and the percentiles fall at the same
place in the mix whatever the seed. Where a percentile falls, the sizes form
a ladder rather than one value: on a machine that switches between fast and
slow states, the percentile of one op size jumps between the two, while over
a ladder it moves with the share of slow time, as a mean does. The seed sets
every other input: Bell kinds, angles, directions, states, strategies, RNG
seeds, and the order of the ops in a deck.

Every check uses a closed form computed here, never golden bytes, so a
versioned change of the random streams is not counted as a failure.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from qubitlab import bell, boxes, hilbert, measure, qubit, quoin, spinops

TSIRELSON = 2.0 * math.sqrt(2.0)
SIGMAS = 5.0  # width of every statistical band, so a run of checks almost never fails by chance

# Written out here rather than read from BellKind.pauli_signs, so the oracle
# does not share the constants it checks.
PAULI_SIGNS = {"singlet": (-1, -1, -1), "psi+": (1, 1, -1), "phi-": (-1, 1, 1), "phi+": (1, -1, 1)}
PLANES = ("xy", "yz", "xz")
PLANE_AXES = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}

# sampling sizes: 16 computed bytes per trial (one float64 uniform and one
# 8-byte outcome or bin index). The small size fits a 2 MiB per-core L2; the
# large one is at least 4x a 105 MiB L3.
BYTES_PER_TRIAL = 16
SMALL_TRIALS = 62_500
LARGE_TRIALS = 28_000_000
BATCH_LADDER = range(1, 9)  # calls per batched op: joint probabilities, replayed games

IN_PROCESS_DECKS = 24  # decks of fresh inputs; a run cycles through them
CLI_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An op returned a result that disagrees with its closed form."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One request in a workload's mix.

    `run` takes the layer namespace (the package modules, traced or not) and
    is the only part timed; `check` raises CheckFailed on a wrong result.
    """

    kind: str
    layer: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    attrs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed forms


def unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def in_plane(plane: str, angle: float) -> np.ndarray:
    v = np.zeros(3)
    i, j = PLANE_AXES[plane]
    v[i], v[j] = math.cos(angle), math.sin(angle)
    return v


def correlator(kind: str, a, b) -> float:
    """E(a, b) = sum_i s_i a_i b_i for a Bell state with Pauli signs s."""
    return float(sum(s * x * y for s, x, y in zip(PAULI_SIGNS[kind], a, b)))


def joint_law(kind: str, a, b) -> tuple[float, float, float, float]:
    """p(alpha, beta) = (1 + alpha*beta*E)/4 in the order (++, +-, -+, --)."""
    e = correlator(kind, a, b)
    return ((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4)


def chsh_law(e: np.ndarray) -> float:
    """CHSH value maximised over the four placements of the one minus sign."""
    return max(abs(float(e.sum()) - 2.0 * float(e[x, y])) for x in (0, 1) for y in (0, 1))


def rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix by `angle` about `axis` (right-hand rule)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return math.cos(angle) * np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * np.outer(n, n)


def within_band(count: int, n: int, p: float) -> bool:
    return abs(count / n - p) <= SIGMAS * math.sqrt(p * (1 - p) / n) + 1e-12


def game_law(strategy: str, mech: str, lanes: int) -> tuple[float, float, float]:
    """(win probability, mean net chips, variance of net chips) of one game.

    The dealer never gives the guesser the all-zero hand, so with m of her
    lanes at 1 (m >= 1) the target parity is a fair coin over Bob's bits.
    """
    if strategy == "quoin":
        # standard: the parity bit makes every guess right, netting 6 - 2.
        # quantum coin: every lane ends equal, so the H count is even and the
        # guess is always "even": net +4 or -6 at 1/2 each.
        return (1.0, 4.0, 0.0) if mech == "standard" else (0.5, -1.0, 25.0)
    if strategy == "random":
        return 0.5, 0.0, 36.0
    k = int(strategy.split(":")[1])
    hands = 2**lanes - 1
    law = []  # (probability, won, net chips)
    for m in range(1, lanes + 1):
        pm = math.comb(lanes, m) / hands
        if m <= k:  # every 1-lane revealed: the parity is known
            law.append((pm, True, 6 - 2 * m))
        else:
            law += [(pm / 2, True, 6 - 2 * k), (pm / 2, False, -6)]
    win = sum(p for p, won, _ in law if won)
    mean = sum(p * net for p, _, net in law)
    return win, mean, sum(p * net * net for p, _, net in law) - mean * mean


def check_game_summary(summary_games, win_rate, mean_net, games, law) -> None:
    p, mean, var = law
    need(summary_games == games, f"played {summary_games} games, asked for {games}")
    need(
        abs(win_rate - p) <= SIGMAS * math.sqrt(p * (1 - p) / games) + 1e-12,
        f"win rate {win_rate} outside the band around {p}",
    )
    need(
        abs(mean_net - mean) <= SIGMAS * math.sqrt(var / games) + 1e-12,
        f"mean net chips {mean_net} outside the band around {mean}",
    )


def check_record(rec: dict, quoin_standard: bool) -> None:
    """Target = popcount(A & B) mod 2; a win nets 6 - 2*bits, a loss -6."""
    doubles = sum(a & b for a, b in zip(rec["alice_bits"], rec["bob_bits"]))
    need(rec["target_parity"] == ("even" if doubles % 2 == 0 else "odd"), f"wrong target in {rec}")
    won = rec["guess"] == rec["target_parity"]
    need(rec["chips_net"] == (6 - 2 * rec["bits_bought"] if won else -6), f"wrong chips in {rec}")
    if quoin_standard:
        need(won and rec["bits_bought"] == 1, f"the quoin protocol lost or overpaid: {rec}")


# ---------------------------------------------------------------------------
# bell_chsh


def _joint_op(kind: bell.BellKind, pairs) -> Op:
    wants = [joint_law(kind.value, a, b) for a, b in pairs]

    def check(results):
        need(len(results) == len(pairs), f"{len(results)} results for {len(pairs)} setting pairs")
        for jp, want in zip(results, wants):
            got = (jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm)
            need(max(abs(g - w) for g, w in zip(got, want)) <= 1e-10, f"p = {got}, closed form {want}")

    return Op(
        "joint", "bell", lambda q: [q.bell.joint_probabilities(kind, a, b) for a, b in pairs], check,
        {"pairs": len(pairs)},
    )


def _qbox_op(kind: bell.BellKind, a_dirs, b_dirs) -> Op:
    e = np.array([[correlator(kind.value, a, b) for b in b_dirs] for a in a_dirs])
    want_p = [[joint_law(kind.value, a, b) for b in b_dirs] for a in a_dirs]
    want_chsh = chsh_law(e)
    if np.max(np.abs(np.abs(e) - 1.0)) > 1e-12:
        want_status = "not_applicable"
    else:
        want_status = "consistent" if np.prod(np.sign(e)) > 0 else "inconsistent"

    def run(q):
        box = q.boxes.quantum_box(kind, a_dirs, b_dirs)
        return box, q.boxes.chsh_value(box), q.boxes.no_signalling_check(box), q.boxes.conservation_filter(box)

    def check(result):
        box, chsh, ns, verdict = result
        got = np.asarray(box.p).reshape(2, 2, 4)
        need(np.max(np.abs(got - np.array(want_p))) <= 1e-10, "box probabilities differ from the closed form")
        need(chsh.value <= TSIRELSON + 1e-9, f"CHSH {chsh.value} above 2*sqrt(2)")
        need(abs(chsh.value - want_chsh) <= 1e-9, f"CHSH {chsh.value}, closed form {want_chsh}")
        need(ns.passed, f"quantum box signals: {ns.violations}")
        need(verdict.status == want_status, f"conservation {verdict.status}, want {want_status}")

    return Op("qbox", "boxes", run, check)


def _invariance_op(kind: bell.BellKind, axis, theta: float) -> Op:
    s = np.diag(PAULI_SIGNS[kind.value]).astype(float)
    r = rotation(qubit.axis_vector(axis), -2.0 * theta)
    want = bool(np.max(np.abs(r @ s @ r.T - s)) <= 1e-9)

    def check(report):
        need(report.invariant == want, f"{kind.value} about {axis} by {theta}: invariant={report.invariant}")

    return Op("invariance", "bell", lambda q: q.bell.invariance_check(kind, axis, theta), check)


def _su2_op(state: qubit.QubitState, axis, theta: float) -> Op:
    want = rotation(axis, -2.0 * theta) @ state.bloch

    def check(rotated):
        need(np.max(np.abs(rotated.bloch - want)) <= 1e-9, f"Bloch {rotated.bloch}, want {want}")

    return Op("su2", "qubit", lambda q: q.qubit.su2_rotate(state, axis, theta), check)


def _pauli_op(coeffs) -> Op:
    m0, mx, my, mz = coeffs
    m = np.array([[m0 + mz, mx - 1j * my], [mx + 1j * my, m0 - mz]])

    def check(c):
        got = (c.m0, c.mx, c.my, c.mz)
        need(max(abs(g - w) for g, w in zip(got, coeffs)) <= 1e-12, f"coefficients {got}, want {coeffs}")

    return Op("pauli", "hilbert", lambda q: q.hilbert.pauli_decompose(m), check)


def _spin_op(triple: spinops.SpinOperatorTriple) -> Op:
    def check(report):
        need(report.passed and len(report.checks) == 11, f"spin-1 checks failed: {report.failures}")

    return Op("spin", "spinops", lambda q: q.spinops.verify_pauli_embedding(triple), check)


def _lhv_op() -> Op:
    def check(scan):
        need(abs(scan.max_value - 2.0) <= 1e-12, f"LHV maximum {scan.max_value}, want 2")
        need(scan.n_strategies == 16, f"{scan.n_strategies} strategies, want 16")

    return Op("lhv", "boxes", lambda q: q.boxes.lhv_max_chsh(), check)


def _prbox_op() -> Op:
    def run(q):
        box = q.boxes.pr_box()
        return q.boxes.chsh_value(box), q.boxes.no_signalling_check(box), q.boxes.conservation_filter(box)

    def check(result):
        chsh, ns, verdict = result
        need(abs(chsh.value - 4.0) <= 1e-12, f"PR-box CHSH {chsh.value}, want 4")
        need(ns.passed, "PR box signals")
        need(verdict.status == "inconsistent", f"PR box conservation {verdict.status}")

    return Op("prbox", "boxes", run, check)


def _scan_op(kind: bell.BellKind, plane: str, n: int) -> Op:
    def check(scan):
        need(scan.n == n, f"scan reports n={scan.n}, asked for {n}")
        need(abs(scan.max_value - TSIRELSON) <= 1e-9, f"scan maximum {scan.max_value}, want 2*sqrt(2)")

    return Op(
        f"scan{n}", "boxes", lambda q: q.boxes.tsirelson_scan(kind, plane, n), check, {"n": n}
    )


def _kind_plane(rng, kind: bell.BellKind) -> str:
    return PLANES[rng.integers(3)] if kind.symmetry_plane == "all" else kind.symmetry_plane


def bell_ops(rng: np.random.Generator, triple) -> list[Op]:
    kinds = list(bell.BellKind)
    ops = []
    for i, length in enumerate(list(BATCH_LADDER) * 3):
        kind = kinds[i % 4]
        pairs = []
        for j in range(length):  # in-plane and 3-D setting pairs in turn
            if j % 2:
                pairs.append((unit3(rng), unit3(rng)))
            else:
                plane = _kind_plane(rng, kind)
                pairs.append(tuple(in_plane(plane, t) for t in rng.uniform(0, 2 * math.pi, 2)))
        ops.append(_joint_op(kind, pairs))
    for i in range(6):
        kind = kinds[rng.integers(4)]
        if i % 2:
            ops.append(_qbox_op(kind, [unit3(rng), unit3(rng)], [unit3(rng), unit3(rng)]))
        else:
            plane = _kind_plane(rng, kind)
            a0, a1, b0, b1 = rng.uniform(0, 2 * math.pi, 4)
            a_dirs = [in_plane(plane, a0), in_plane(plane, a1)]
            ops.append(_qbox_op(kind, a_dirs, [in_plane(plane, b0), in_plane(plane, b1)]))
    for i in range(4):
        kind = kinds[rng.integers(4)]
        # half about the axis that leaves the state fixed, half about a generic axis
        axis = (kind.invariance_axis or unit3(rng)) if i % 2 else unit3(rng)
        ops.append(_invariance_op(kind, axis, float(rng.uniform(0.3, 1.2))))
    for _ in range(4):
        state = qubit.QubitState.from_bloch(unit3(rng) * rng.uniform(0, 1))
        ops.append(_su2_op(state, unit3(rng), float(rng.uniform(-math.pi, math.pi))))
    for _ in range(4):
        ops.append(_pauli_op(tuple(float(c) for c in rng.normal(size=4))))
    ops += [_spin_op(triple) for _ in range(2)]
    ops += [_lhv_op() for _ in range(2)]
    ops += [_prbox_op() for _ in range(2)]
    for n in (180, 720, 1440):  # multiples of 4, so 2*sqrt(2) lies on the grid
        kind = kinds[rng.integers(4)]
        ops.append(_scan_op(kind, _kind_plane(rng, kind), n))
    return ops


# ---------------------------------------------------------------------------
# quoin_games

STRATEGIES = {
    "quoin": quoin.QuoinStrategy(),
    "classical:3": quoin.ClassicalBitsStrategy(3),
    "random": quoin.RandomStrategy(),
}
MECHANICS = {"standard": quoin.QuoinMechanics.standard(), "quantum_coin": quoin.QuoinMechanics.quantum_coin()}
# (mechanics, lanes) -> games per monte_carlo op, the same ladder for every strategy
GAME_LADDER = {("standard", 5): 300, ("quantum_coin", 8): 800, ("standard", 8): 1500, ("quantum_coin", 5): 3000}
PARITY_SEEDS = 32
PARITY_LANES = 5
REPLAY_BATCHES = list(BATCH_LADDER) * 6  # consecutive games per replay op


def _mc_op(strategy: str, mech: str, lanes: int, games: int, seed: int) -> Op:
    law = game_law(strategy, mech, lanes)

    def check(s):
        check_game_summary(s.games, s.win_rate, s.mean_chips_net, games, law)

    return Op(
        "mc",
        "quoin",
        lambda q: q.quoin.monte_carlo(STRATEGIES[strategy], games, seed, mech=MECHANICS[mech], lanes=lanes),
        check,
        {"strategy": strategy.split(":")[0], "mech": mech, "lanes": lanes, "games": games},
    )


def _parity_op(first_seed: int) -> Op:
    seeds = range(first_seed, first_seed + PARITY_SEEDS)
    deals = PARITY_SEEDS * 4**PARITY_LANES

    def check(report):
        need(report.holds, f"parity theorem fails: {report.failures[:2]}")
        need(report.checked == deals, f"checked {report.checked} deals, want {deals}")

    return Op(
        "parity", "quoin", lambda q: q.quoin.verify_parity_theorem(seeds, PARITY_LANES), check, {"deals": deals}
    )


def _replay_op(seed: int, first: int, count: int) -> Op:
    def run(q):
        games = range(first, first + count)
        buf = io.StringIO()
        q.quoin.write_transcript([q.quoin.play_game(STRATEGIES["quoin"], seed, seed, game_index=g) for g in games], buf)
        return buf.getvalue()

    def check(text):
        lines = text.splitlines()
        need(len(lines) == count, f"{len(lines)} transcript lines for {count} games")
        for line in lines:
            check_record(json.loads(line), quoin_standard=True)

    return Op("replay", "quoin", run, check, {"records": count})


def _riggings_op(mech: str) -> Op:
    want = () if mech == "standard" else (("H", "H"), ("T", "T"))

    def check(scan):
        need(tuple(scan.valid) == want, f"{mech}: valid riggings {scan.valid}, want {want}")
        need(len(scan.valid) + len(scan.failures) == 16, "not all 16 rigging pairs were judged")

    return Op("riggings", "quoin", lambda q: q.quoin.enumerate_riggings(MECHANICS[mech]), check)


def quoin_ops(rng: np.random.Generator, deck: int) -> list[Op]:
    ops = []
    for strategy in STRATEGIES:
        for (mech, lanes), games in GAME_LADDER.items():
            jittered = int(round(games * rng.uniform(0.95, 1.05)))
            ops.append(_mc_op(strategy, mech, lanes, jittered, int(rng.integers(2**31))))
    ops.append(_parity_op(int(rng.integers(2**31))))
    # consecutive game indices across the whole run, each game read on its own by index
    replay_seed = int(rng.integers(2**31))
    first = deck * sum(REPLAY_BATCHES)
    for count in REPLAY_BATCHES:
        ops.append(_replay_op(replay_seed, first, count))
        first += count
    ops += [_riggings_op(("standard", "quantum_coin")[i % 2]) for i in range(4)]
    return ops


# ---------------------------------------------------------------------------
# sampling

# trial counts per deck, one op of each sampler at each: SMALL_TRIALS to
# 4*10**6 in steps of sqrt(2) through 10**6, then LARGE_TRIALS. The two
# largest ops fill the top 7% of a deck, so both percentiles land on the ladder.
SAMPLE_LADDER = [round(10**6 * 2 ** (k / 2)) for k in range(-8, 5)] + [LARGE_TRIALS]


def _outcomes_op(prep, meas, n: int, seed: int) -> Op:
    setup = measure.SGSetup(prep, meas)
    p_plus = (1.0 + float(np.dot(prep, meas))) / 2.0  # cos^2(theta/2)

    def check(sample):
        need(sample.n == n and sample.n_plus + sample.n_minus == n, f"tally {sample} does not cover {n} trials")
        need(within_band(sample.n_plus, n, p_plus), f"{sample.n_plus}/{n} outside the band around {p_plus}")

    return Op(f"outcomes{n}", "measure", lambda q: q.measure.sample_outcomes(setup, n, seed), check, {"n": n})


def _joint_sample_op(kind: bell.BellKind, a, b, n: int, seed: int) -> Op:
    want = joint_law(kind.value, a, b)

    def check(sample):
        counts = [int(c) for c in np.asarray(sample.counts).reshape(-1)]
        need(sum(counts) == n, f"counts {counts} do not sum to {n}")
        for c, p in zip(counts, want):
            need(within_band(c, n, p), f"count {c}/{n} outside the band around {p}")

    return Op(f"joint_sample{n}", "bell", lambda q: q.bell.sample_joint(kind, a, b, n, seed), check, {"n": n})


def sampling_ops(rng: np.random.Generator) -> list[Op]:
    kinds = list(bell.BellKind)
    ops = []
    for n in SAMPLE_LADDER:
        ops.append(_outcomes_op(unit3(rng), unit3(rng), n, int(rng.integers(2**31))))
        kind = kinds[rng.integers(4)]
        ops.append(_joint_sample_op(kind, unit3(rng), unit3(rng), n, int(rng.integers(2**31))))
    return ops


# ---------------------------------------------------------------------------
# cli_session


def _invoke(argv: list[str]) -> subprocess.CompletedProcess:
    """One fresh `python -m qubitlab` process; the caller waits for it to end."""
    return subprocess.run(
        [sys.executable, "-m", "qubitlab", *argv], capture_output=True, timeout=CLI_TIMEOUT_S
    )


def _subcommand(name: str) -> Callable:
    def invoke(*args: str) -> subprocess.CompletedProcess:
        return _invoke([name, *args])

    invoke.__name__ = name  # the traced span is named cli.<subcommand>
    return invoke


def import_package() -> subprocess.CompletedProcess:
    """A fresh interpreter that only imports the package."""
    return subprocess.run([sys.executable, "-c", "import qubitlab"], capture_output=True, timeout=CLI_TIMEOUT_S)


CLI = SimpleNamespace(**{name: _subcommand(name) for name in ("project", "bell", "chsh", "game")})


def _cli_op(sub: str, args: list[str], check_payload: Callable[[dict, int], None]) -> Op:
    first_stdout = []  # the deck repeats, so later runs of this op must print the same bytes

    def check(proc):
        need(proc.returncode in (0, 1), f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        payload = json.loads(proc.stdout)
        need(payload.get("schema") == 1, f"schema {payload.get('schema')!r}, want 1")
        check_payload(payload, proc.returncode)
        if first_stdout:
            need(proc.stdout == first_stdout[0], "stdout differs from an earlier run of the same command and seed")
        else:
            first_stdout.append(proc.stdout)

    return Op(sub, "cli", lambda q: getattr(q.cli, sub)(*args, "--format=json"), check, {"args": args})


def _need_band_exit(code: int, reported: bool, n: int, pairs) -> None:
    """The CLI prints a 3-sigma band verdict and exits 1 exactly when it fails."""
    verdict = all(abs(c / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n) for c, p in pairs)
    need(reported == verdict, f"band verdict {reported}, recomputed {verdict}")
    need(code == (0 if verdict else 1), f"exit {code} with band verdict {verdict}")


def cli_ops(rng: np.random.Generator, tmp_dir: Path) -> list[Op]:
    ops = []

    def seed() -> str:
        return f"--seed={int(rng.integers(2**31))}"

    theta = float(rng.uniform(0, math.pi))
    want_plus = math.cos(theta / 2) ** 2

    def project_check(trials):
        def check(payload, code):
            need(abs(payload["p_plus"] - want_plus) <= 1e-10, f"p_plus {payload['p_plus']}, want {want_plus}")
            emp = payload.get("empirical")
            if trials:
                need(within_band(emp["n_plus"], trials, want_plus), f"{emp} outside the band around {want_plus}")
                _need_band_exit(code, emp["within_band"], trials, [(emp["n_plus"], want_plus)])
            else:
                need(emp is None and code == 0, f"exit {code} for an analytic projection")

        return check

    ops.append(_cli_op("project", [f"--theta={theta!r}", seed()], project_check(0)))
    trials = 100_000
    ops.append(_cli_op("project", [f"--theta={theta!r}", f"--trials={trials}", seed()], project_check(trials)))

    kind = list(bell.BellKind)[rng.integers(4)]
    plane = _kind_plane(rng, kind)
    a, b = (float(t) for t in rng.uniform(0, 2 * math.pi, 2))
    want = joint_law(kind.value, in_plane(plane, a), in_plane(plane, b))

    def bell_check(payload, code):
        got = (payload["p_pp"], payload["p_pm"], payload["p_mp"], payload["p_mm"])
        need(max(abs(g - w) for g, w in zip(got, want)) <= 1e-10, f"p = {got}, closed form {want}")
        counts = payload["empirical"]["counts"]
        need(sum(counts) == trials, f"counts {counts} do not sum to {trials}")
        need(all(within_band(c, trials, p) for c, p in zip(counts, want)), f"counts {counts} outside the bands")
        _need_band_exit(code, payload["empirical"]["within_band"], trials, zip(counts, want))

    bell_args = [f"--kind={kind.value}", f"--plane={plane}", f"--a={a!r}", f"--b={b!r}", f"--trials={trials}"]
    ops.append(_cli_op("bell", [*bell_args, seed()], bell_check))

    def prbox_check(payload, code):
        need(code == 0 and payload["chsh"] == 4.0, f"PR box CHSH {payload['chsh']}")
        need(payload["no_signalling"] and payload["conservation"] == "inconsistent", "PR box verdicts wrong")

    def lhv_check(payload, code):
        need(code == 0 and abs(payload["chsh"] - 2.0) <= 1e-12, f"LHV CHSH {payload['chsh']}")
        need(payload["strategies"] == 16, f"{payload['strategies']} strategies, want 16")

    ops.append(_cli_op("chsh", ["--source=prbox", seed()], prbox_check))
    ops.append(_cli_op("chsh", ["--source=lhv", seed()], lhv_check))

    kind = list(bell.BellKind)[rng.integers(4)]
    plane = _kind_plane(rng, kind)
    angles = [float(t) for t in rng.uniform(0, 2 * math.pi, 4)]
    a_dirs, b_dirs = [in_plane(plane, t) for t in angles[:2]], [in_plane(plane, t) for t in angles[2:]]
    want_chsh = chsh_law(np.array([[correlator(kind.value, x, y) for y in b_dirs] for x in a_dirs]))

    def quantum_check(payload, code):
        need(code == 0, f"exit {code}")
        need(abs(payload["chsh"] - want_chsh) <= 1e-9, f"CHSH {payload['chsh']}, closed form {want_chsh}")
        need(abs(payload["scan"]["max_chsh"] - TSIRELSON) <= 1e-9, f"scan maximum {payload['scan']['max_chsh']}")

    angle_arg = "--angles=" + ",".join(repr(t) for t in angles)
    quantum_args = ["--source=quantum", f"--kind={kind.value}", f"--plane={plane}", angle_arg, "--scan=180"]
    ops.append(_cli_op("chsh", [*quantum_args, seed()], quantum_check))

    for transcript in (None, tmp_dir / "transcript.jsonl"):
        strategy = list(STRATEGIES)[rng.integers(3)]
        mech = ("standard", "quantum_coin")[rng.integers(2)]
        lanes = (5, 8)[rng.integers(2)]
        games = int(rng.integers(200, 400))
        ops.append(_game_cli_op(strategy, mech, lanes, games, seed(), transcript))
    return ops


def _game_cli_op(strategy: str, mech: str, lanes: int, games: int, seed_arg: str, transcript: Path | None) -> Op:
    law = game_law(strategy, mech, lanes)
    args = ["simulate", f"--strategy={strategy}", f"--mech={'quoin' if mech == 'standard' else 'quantum'}"]
    args += [f"--lanes={lanes}", f"--games={games}", seed_arg]
    if transcript:
        args.append(f"--transcript={transcript}")

    def check(payload, code):
        need(code == 0, f"exit {code}")
        check_game_summary(payload["games"], payload["win_rate"], payload["mean_chips_net"], games, law)
        if transcript:
            lines = transcript.read_text().splitlines()
            need(len(lines) == games, f"{len(lines)} transcript lines for {games} games")
            for line in lines:
                check_record(json.loads(line), quoin_standard=(strategy, mech) == ("quoin", "standard"))

    return _cli_op("game", args, check)


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, tmp_dir: Path) -> list[list[Op]]:
    """The decks a run cycles through, each in seeded order; all inputs come from `seed`."""
    rng = np.random.default_rng(seed)
    if workload == "bell_chsh":
        triple = spinops.SpinOperatorTriple.canonical()
        decks = [bell_ops(rng, triple) for _ in range(IN_PROCESS_DECKS)]
    elif workload == "quoin_games":
        decks = [quoin_ops(rng, d) for d in range(IN_PROCESS_DECKS)]
    elif workload == "sampling":
        decks = [sampling_ops(rng) for _ in range(IN_PROCESS_DECKS)]
    else:
        tmp_dir.mkdir(parents=True, exist_ok=True)
        decks = [cli_ops(rng, tmp_dir)]
    for deck in decks:
        rng.shuffle(deck)
    return decks


def layer_modules() -> dict[str, Any]:
    """The layers ops call into, by name; `cli` runs the command in a fresh process."""
    return {
        "hilbert": hilbert,
        "qubit": qubit,
        "spinops": spinops,
        "measure": measure,
        "bell": bell,
        "boxes": boxes,
        "quoin": quoin,
        "cli": CLI,
    }

