"""Command-line front end.

Subcommands: project (single-qubit statistics), bell (joint probabilities and
conditional averages), chsh (quantum / PR-box / local-deterministic analysis),
game (guessing-game simulation and interactive play). Output formats: text
(default), json (schema field `schema: 1`, byte-stable for a fixed command
and seed), csv. Exit codes: 0 success, 1 verification failure, 2 usage error.

Angles are radians; expressions like "pi/3", "2pi/3", "-3*pi/4" are accepted.
With --degrees, plain numbers are degrees (pi expressions stay radians).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys

from . import bell, boxes, measure, quoin
from .errors import QubitLabError, check_finite

DEFAULT_SEED = 424242
TSIRELSON = 2.0 * math.sqrt(2.0)

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def parse_angle(text: str, degrees: bool = False) -> float:
    """Parse a plain number or a pi expression into finite radians."""
    s = text.strip().lower()
    m = _ANGLE_RE.match(s)
    try:
        if m:
            coef_s, div_s = m.groups()
            coef = float(coef_s) if coef_s not in ("", "+", "-") else float(coef_s + "1")
            value = coef * math.pi / float(div_s or 1.0)
        else:
            value = math.radians(float(s)) if degrees else float(s)
    except ValueError:
        raise QubitLabError(f"cannot parse angle {text!r}") from None
    except ZeroDivisionError:
        raise QubitLabError(f"zero divisor in angle {text!r}") from None
    return check_finite(value, f"angle {text!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(payload: dict, rows: list[dict], fmt: str, out) -> None:
    """Render one command's result: full payload as json/text, rows as csv."""
    if fmt == "json":
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(_fmt(v) for v in row.values())
    else:
        _emit_text(payload, out, indent="")


def _emit_text(obj, out, indent: str) -> None:
    for key, value in obj.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:", file=out)
            _emit_text(value, out, indent + "  ")
        elif isinstance(value, (list, tuple)):
            if not value:
                print(f"{indent}{key}: []", file=out)
            elif all(isinstance(v, (int, float)) for v in value):
                print(f"{indent}{key}: {' '.join(_fmt(v) for v in value)}", file=out)
            else:
                print(f"{indent}{key}:", file=out)
                for item in value:
                    if isinstance(item, dict):
                        _emit_text(item, out, indent + "  ")
                    else:
                        print(f"{indent}  {_fmt(item)}", file=out)
        else:
            print(f"{indent}{key}: {_fmt(value)}", file=out)


# ---------------------------------------------------------------------------
# project

def cmd_project(args, out) -> int:
    theta = parse_angle(args.theta, args.degrees)
    setup = measure.SGSetup([0.0, 0.0, 1.0], [math.sin(theta), 0.0, math.cos(theta)])
    p_plus, p_minus = measure.projection_probabilities(setup)
    mean = measure.expected_outcome(setup)
    payload = {
        "schema": 1,
        "command": "project",
        "theta_radians": setup.theta,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "mean": mean,
    }
    checks_failed = 0
    if args.trials:
        sample = measure.sample_outcomes(setup, args.trials, args.seed)
        band = measure.binomial_band(p_plus, args.trials)
        within = abs(sample.n_plus / sample.n - p_plus) <= band
        checks_failed += not within
        payload["empirical"] = {
            "trials": sample.n,
            "seed": sample.seed,
            "n_plus": sample.n_plus,
            "n_minus": sample.n_minus,
            "mean": sample.mean,
            "band_3sigma": band,
            "within_band": bool(within),
        }
    row = {k: v for k, v in payload.items() if k not in ("schema", "command")}
    if "empirical" in payload:
        row.update({f"empirical_{k}": v for k, v in payload["empirical"].items()})
        row.pop("empirical", None)
    _emit(payload, [row], args.format, out)
    return 1 if checks_failed else 0


# ---------------------------------------------------------------------------
# bell

def cmd_bell(args, out) -> int:
    kind = bell.BellKind(args.kind)
    plane = bell.resolve_plane(kind, args.plane)
    a_angle = parse_angle(args.a, args.degrees)
    b_angle = parse_angle(args.b, args.degrees)
    a_dir = bell.plane_direction(plane, a_angle)
    b_dir = bell.plane_direction(plane, b_angle)
    jp = bell.joint_probabilities(kind, a_dir, b_dir)
    payload = {
        "schema": 1,
        "command": "bell",
        "kind": kind.value,
        "plane": plane,
        "a_radians": a_angle,
        "b_radians": b_angle,
        "p_pp": jp.p_pp,
        "p_pm": jp.p_pm,
        "p_mp": jp.p_mp,
        "p_mm": jp.p_mm,
        "correlator": jp.correlator,
        "conditional_mean_given_plus": jp.conditional_average(1),
        "conditional_mean_given_minus": jp.conditional_average(-1),
    }
    checks_failed = 0
    if args.trials:
        sample = bell.sample_joint(kind, a_dir, b_dir, args.trials, args.seed)
        emp = sample.counts / args.trials
        # a rounded correlator can leave a zero cell at -5.6e-17; its band is that of 0
        expect = [min(max(p, 0.0), 1.0) for p in (jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm)]
        bands = [measure.binomial_band(p, args.trials) for p in expect]
        flat = emp.reshape(-1)
        within = all(abs(f - p) <= b for f, p, b in zip(flat, expect, bands))
        checks_failed += not within
        payload["empirical"] = {
            "trials": args.trials,
            "seed": args.seed,
            "counts": [int(c) for c in sample.counts.reshape(-1)],
            "within_band": bool(within),
        }
    row = {k: v for k, v in payload.items() if k not in ("schema", "command", "empirical")}
    _emit(payload, [row], args.format, out)
    return 1 if checks_failed else 0


# ---------------------------------------------------------------------------
# chsh

def _angles_or_default(args):
    if args.angles:
        parts = [p for p in args.angles.split(",") if p.strip()]
        if len(parts) != 4:
            raise QubitLabError("--angles wants four comma-separated values a0,a1,b0,b1")
        return [parse_angle(p, args.degrees) for p in parts]
    return [0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0]


def cmd_chsh(args, out, parser) -> int:
    if args.source != "quantum":
        if args.angles:
            parser.error(f"--angles applies only to --source quantum, not {args.source}")
        if args.scan:
            parser.error("--scan applies only to --source quantum")

    payload = {"schema": 1, "command": "chsh", "source": args.source}
    if args.source == "prbox":
        box = boxes.pr_box()
        payload.update(_box_report(box))
    elif args.source == "lhv":
        scan = boxes.lhv_max_chsh()
        payload.update(
            {
                "chsh": scan.max_value,
                "strategies": scan.n_strategies,
                "maximizers": scan.n_maximizers,
                "best_alice": list(scan.best_alice),
                "best_bob": list(scan.best_bob),
            }
        )
    else:
        kind = bell.BellKind(args.kind)
        plane = bell.resolve_plane(kind, args.plane)
        a0, a1, b0, b1 = _angles_or_default(args)
        box = boxes.quantum_box(
            kind,
            [bell.plane_direction(plane, a0), bell.plane_direction(plane, a1)],
            [bell.plane_direction(plane, b0), bell.plane_direction(plane, b1)],
        )
        payload.update({"kind": kind.value, "plane": plane, "angles": [a0, a1, b0, b1]})
        payload.update(_box_report(box))
        if args.scan:
            scan = boxes.tsirelson_scan(kind, plane, args.scan)
            payload["scan"] = {
                "n": scan.n,
                "max_chsh": scan.max_value,
                "best_b0": scan.best_b0,
                "best_b1": scan.best_b1,
                "tsirelson_bound": TSIRELSON,
                "within_bound": bool(scan.max_value <= TSIRELSON + 1e-9),
            }
    row = {
        k: v
        for k, v in payload.items()
        if k not in ("schema", "command") and isinstance(v, (int, float, str, bool))
    }
    if "scan" in payload:
        row.update({f"scan_{k}": v for k, v in payload["scan"].items()})
    _emit(payload, [row], args.format, out)
    if "scan" in payload and not payload["scan"]["within_bound"]:
        return 1
    return 0


def _box_report(box: boxes.BehaviorBox) -> dict:
    result = boxes.chsh_value(box)
    ns = boxes.no_signalling_check(box)
    verdict = boxes.conservation_filter(box)
    return {
        "correlators": [[float(v) for v in row] for row in result.correlators],
        "chsh": result.value,
        "minus_on": list(result.minus_on),
        "no_signalling": ns.passed,
        "no_signalling_violations": list(ns.violations),
        "conservation": verdict.status,
        "conservation_trace": list(verdict.trace),
    }


# ---------------------------------------------------------------------------
# game

def _parse_strategy(text: str):
    s = text.strip().lower()
    if s == "quoin":
        return quoin.QuoinStrategy()
    if s == "random":
        return quoin.RandomStrategy()
    m = re.match(r"^classical:(\d+)$", s)
    if m:
        return quoin.ClassicalBitsStrategy(int(m.group(1)))
    raise QubitLabError(f"unknown strategy {text!r} (want quoin, random, or classical:K)")


def cmd_game(args, out, parser) -> int:
    try:
        strategy = _parse_strategy(args.strategy)
    except QubitLabError as exc:
        parser.error(str(exc))
    mech = quoin.QuoinMechanics.quantum_coin() if args.mech == "quantum" else quoin.QuoinMechanics.standard()

    if args.mode == "play":
        if not isinstance(strategy, quoin.QuoinStrategy):
            parser.error("interactive play supports only the quoin strategy")
        if not sys.stdin.isatty():
            print("interactive play needs a terminal; use `game simulate` instead", file=sys.stderr)
            return 2
        run_interactive_game(args.seed, mech, args.lanes, input, lambda s: print(s, file=out))
        return 0

    if args.transcript:
        # play game 0 before opening the file, so a strategy that cannot play
        # these lanes fails without leaving one behind
        records = quoin.play_games(strategy, args.games, args.seed, mech=mech, lanes=args.lanes)
        records = itertools.chain([next(records)], records)
        try:
            fp = open(args.transcript, "w", encoding="utf-8")
        except OSError as exc:
            raise QubitLabError(f"cannot write the transcript: {exc}") from None
        with fp:
            summary = quoin.summarize(_written(records, fp))
    else:
        summary = quoin.monte_carlo(strategy, args.games, args.seed, mech=mech, lanes=args.lanes)
    payload = {
        "schema": 1,
        "command": "game",
        "mode": "simulate",
        "strategy": args.strategy,
        "mechanics": args.mech,
        "lanes": args.lanes,
        "games": summary.games,
        "seed": args.seed,
        "win_rate": summary.win_rate,
        "mean_chips_net": summary.mean_chips_net,
        "ci_halfwidth": summary.ci_halfwidth,
    }
    if args.transcript:
        payload["transcript_path"] = args.transcript
    row = {k: v for k, v in payload.items() if k not in ("schema", "command")}
    _emit(payload, [row], args.format, out)
    return 0


def _written(records, fp):
    """Pass records through, writing each one to the transcript as it goes."""
    for rec in records:
        quoin.write_transcript((rec,), fp)
        yield rec


def run_interactive_game(seed, mech, lanes, input_fn, say) -> quoin.GameRecord:
    """One human-guessed round; IO is injected so transcripts replay in tests."""
    bob_bits, alice_bits = quoin.standard_dealer(quoin.game_rng(seed, quoin.STREAM_DEAL, 0), lanes)
    mech_rng = quoin.game_rng(seed, quoin.STREAM_MECH, 0)
    alice_out, bob_out = quoin.lane_outcomes(mech, alice_bits, bob_bits, mech_rng)
    say(f"the dealer set your lanes to {list(alice_bits)} (Bob's side is hidden)")
    say(f"you flip your quoins per your bits and see: {quoin.coin_symbols(alice_out)}")
    alice_h = sum(alice_out)
    bits_bought = 0
    hint = ""
    answer = input_fn("buy Bob's parity bit for one chip? [y/n] ").strip().lower()
    if answer.startswith("y"):
        bits_bought = 1
        bob_parity = sum(bob_out) % 2
        say(f"Bob's message: his H count is {'odd' if bob_parity else 'even'} ({bob_parity})")
        hint = quoin.parity_name(alice_h + bob_parity)
        say(f"protocol guess: {hint}")
    guess = input_fn("your guess, even or odd? ").strip().lower()
    if guess not in ("even", "odd"):
        guess = hint or "even"
        say(f"unrecognized guess; recording {guess}")
    target = quoin.target_parity(alice_bits, bob_bits)
    record = quoin.GameRecord(
        bob_bits, alice_bits, target, bits_bought, guess, quoin.CHIPS_START,
        (f"alice outcomes: {quoin.coin_symbols(alice_out)}", f"bob outcomes: {quoin.coin_symbols(bob_out)}"),
    )
    say(f"Bob's lanes were {list(bob_bits)}; the answer is {target}")
    say(f"{'you win' if record.correct else 'you lose'}: net {record.chips_net:+d} chips")
    return record


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitlab",
        description="Qubit measurement statistics, Bell correlations, CHSH boxes, and the quoin game.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--degrees", action="store_true", help="plain numeric angles are degrees")

    p = sub.add_parser("project", help="single-qubit projection statistics at angle theta")
    common(p)
    p.add_argument("--theta", required=True, help="angle between preparation and measurement")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = analytic only)")

    p = sub.add_parser("bell", help="Bell-state joint probabilities at two in-plane angles")
    common(p)
    p.add_argument("--kind", choices=[k.value for k in bell.BellKind], required=True)
    p.add_argument("--plane", choices=("xy", "yz", "xz"))
    p.add_argument("--a", required=True, help="Alice's in-plane angle")
    p.add_argument("--b", required=True, help="Bob's in-plane angle")
    p.add_argument("--trials", type=int, default=0)

    p = sub.add_parser("chsh", help="CHSH analysis of a quantum, PR-box, or deterministic source")
    common(p)
    p.add_argument("--source", choices=("quantum", "prbox", "lhv"), required=True)
    p.add_argument("--kind", choices=[k.value for k in bell.BellKind], default="singlet")
    p.add_argument("--plane", choices=("xy", "yz", "xz"))
    p.add_argument("--angles", help="a0,a1,b0,b1 for the quantum source")
    p.add_argument("--scan", type=int, default=0, help="run an NxN in-plane angle scan")

    p = sub.add_parser("game", help="quoin guessing game")
    common(p)
    p.add_argument("mode", choices=("simulate", "play"))
    p.add_argument("--strategy", default="quoin", help="quoin, random, or classical:K")
    p.add_argument("--games", type=int, default=10000)
    p.add_argument("--lanes", type=int, default=quoin.DEFAULT_LANES)
    p.add_argument("--mech", choices=("quoin", "quantum"), default="quoin")
    p.add_argument("--transcript", help="write one GameRecord JSON line per game to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.cmd == "project":
            return cmd_project(args, out)
        if args.cmd == "bell":
            return cmd_bell(args, out)
        if args.cmd == "chsh":
            return cmd_chsh(args, out, parser)
        if args.cmd == "game":
            return cmd_game(args, out, parser)
    except QubitLabError as exc:
        parser.error(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
