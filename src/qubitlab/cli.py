"""Command-line front end.

Subcommands: project (single-qubit statistics), bell (joint probabilities and
conditional averages), chsh (quantum / PR-box / local-deterministic analysis),
game (guessing-game simulation and interactive play). Output formats: text
(default), json (schema field `schema: 1`, byte-stable for a fixed command
and seed), csv (one row of the payload's scalars, by the rule in `_emit`).
Each cmd_* returns its payload body and exit code; `main` alone stamps the
header (`schema`, `command`), renders the body and returns the code as the
exit status: 0 success, 1 verification failure, 2 usage error.

Angles are radians; expressions like "pi/3", "2pi/3", "-3*pi/4" are accepted.
With --degrees, plain numbers are degrees (pi expressions stay radians).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import re
import sys
from typing import TYPE_CHECKING

from .errors import QubitLabError, check_int, real_number

# each command imports the modules it runs inside its cmd_* function, so a
# process loads only what its subcommand needs
if TYPE_CHECKING:
    from . import boxes, quoin

DEFAULT_SEED = 424242
BELL_KINDS = ("singlet", "psi+", "phi-", "phi+")  # bell.BellKind values, pinned by a test
DEFAULT_LANES = 5  # quoin.DEFAULT_LANES, pinned by a test
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
    return real_number(value, f"angle {text!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(command: str, body: dict, fmt: str, out) -> None:
    """Render `body` under the header (`schema`, `command`) as json or text, or its scalars as one csv row."""
    if fmt == "csv":
        # the body's scalars, and each scalar of a nested dict as a `key_sub` column; lists are dropped
        row = {}
        for key, value in body.items():
            cells = {f"{key}_{sub}": v for sub, v in value.items()} if isinstance(value, dict) else {key: value}
            row.update((col, v) for col, v in cells.items() if isinstance(v, (int, float, str)))
        writer = csv.writer(out)
        writer.writerow(row.keys())
        writer.writerow(_fmt(v) for v in row.values())
        return
    payload = {"schema": 1, "command": command, **body}
    if fmt == "json":
        print(json.dumps(payload), file=out)
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
                    print(f"{indent}  {_fmt(item)}", file=out)
        else:
            print(f"{indent}{key}: {_fmt(value)}", file=out)


# ---------------------------------------------------------------------------
# project

def cmd_project(args) -> tuple[dict, int]:
    from . import measure
    theta = parse_angle(args.theta, args.degrees)
    setup = measure.SGSetup([0.0, 0.0, 1.0], [math.sin(theta), 0.0, math.cos(theta)])
    p_plus, p_minus = measure.projection_probabilities(setup)
    mean = measure.expected_outcome(setup)
    body = {
        "theta_radians": setup.theta,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "mean": mean,
    }
    within = True
    if args.trials:
        sample = measure.sample_outcomes(setup, args.trials, args.seed)
        within = measure.within_band((sample.n_plus,), (p_plus,), sample.n)
        body["empirical"] = {
            "trials": sample.n,
            "seed": sample.seed,
            "n_plus": sample.n_plus,
            "n_minus": sample.n_minus,
            "mean": sample.mean,
            "band_3sigma": measure.binomial_band(p_plus, sample.n),
            "within_band": within,
        }
    return body, 0 if within else 1


# ---------------------------------------------------------------------------
# bell

def cmd_bell(args) -> tuple[dict, int]:
    from . import bell, measure
    kind = bell.BellKind(args.kind)
    plane = bell.resolve_plane(kind, args.plane)
    a_angle = parse_angle(args.a, args.degrees)
    b_angle = parse_angle(args.b, args.degrees)
    a_dir = bell.plane_direction(plane, a_angle)
    b_dir = bell.plane_direction(plane, b_angle)
    jp = bell.joint_probabilities(kind, a_dir, b_dir)
    body = {
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
    within = True
    if args.trials:
        counts = bell.sample_joint(kind, a_dir, b_dir, args.trials, args.seed).counts.ravel().tolist()
        within = measure.within_band(counts, (jp.p_pp, jp.p_pm, jp.p_mp, jp.p_mm), args.trials)
        body["empirical"] = {"trials": args.trials, "seed": args.seed, "counts": counts, "within_band": within}
    return body, 0 if within else 1


# ---------------------------------------------------------------------------
# chsh

def _angles_or_default(args):
    if args.angles:
        parts = [p for p in args.angles.split(",") if p.strip()]
        if len(parts) != 4:
            raise QubitLabError("--angles wants four comma-separated values a0,a1,b0,b1")
        return [parse_angle(p, args.degrees) for p in parts]
    return [0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0]


def cmd_chsh(args) -> tuple[dict, int]:
    from . import bell, boxes
    if args.source != "quantum":
        if args.angles:
            raise QubitLabError(f"--angles applies only to --source quantum, not {args.source}")
        if args.scan:
            raise QubitLabError("--scan applies only to --source quantum")

    body = {"source": args.source}
    within = True
    if args.source == "prbox":
        body.update(_box_report(boxes.pr_box()))
    elif args.source == "lhv":
        scan = boxes.lhv_max_chsh()
        body.update(
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
        body.update({"kind": kind.value, "plane": plane, "angles": [a0, a1, b0, b1]})
        body.update(_box_report(box))
        if args.scan:
            scan = boxes.tsirelson_scan(kind, plane, args.scan)
            within = bool(scan.max_value <= TSIRELSON + 1e-9)
            body["scan"] = {
                "n": scan.n,
                "max_chsh": scan.max_value,
                "best_b0": scan.best_b0,
                "best_b1": scan.best_b1,
                "tsirelson_bound": TSIRELSON,
                "within_bound": within,
            }
    return body, 0 if within else 1


def _box_report(box: boxes.BehaviorBox) -> dict:
    from . import boxes
    result = boxes.chsh_value(box)
    ns = boxes.no_signalling_check(box)
    verdict = boxes.conservation_filter(box)
    return {
        "correlators": [list(row) for row in result.correlators],
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
    from . import quoin
    s = text.strip().lower()
    if s == "quoin":
        return quoin.QuoinStrategy()
    if s == "random":
        return quoin.RandomStrategy()
    m = re.match(r"^classical:(\d+)$", s)
    if m:
        return quoin.ClassicalBitsStrategy(int(m.group(1)))
    raise QubitLabError(f"unknown strategy {text!r} (want quoin, random, or classical:K)")


def cmd_game(args) -> tuple[dict | None, int]:
    from . import quoin
    strategy = _parse_strategy(args.strategy)
    mech = quoin.QuoinMechanics.quantum_coin() if args.mech == "quantum" else quoin.QuoinMechanics.standard()

    if args.mode == "play":
        for option in ("transcript", "games", "format"):
            if getattr(args, option) is not None:
                raise QubitLabError(f"--{option} applies only to game simulate")
        if not isinstance(strategy, quoin.QuoinStrategy):
            raise QubitLabError("interactive play supports only the quoin strategy")
        if not sys.stdin.isatty():
            print("interactive play needs a terminal; use `game simulate` instead", file=sys.stderr)
            return None, 2
        run_interactive_game(args.seed, mech, args.lanes, input, print)
        return None, 0

    games = 10000 if args.games is None else args.games
    try:
        with contextlib.ExitStack() as files:
            # the transcript opens at the first block's lines, so a strategy that cannot play these lanes leaves none
            opened = functools.cache(lambda: files.enter_context(open(args.transcript, "w", encoding="utf-8")))
            write = None if args.transcript is None else lambda lines: opened().write("\n".join(lines) + "\n")
            summary = quoin.monte_carlo(strategy, games, args.seed, mech=mech, lanes=args.lanes, write=write)
    except OSError as exc:
        raise QubitLabError(f"cannot write the transcript: {exc}") from None
    body = {
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
    if args.transcript is not None:
        body["transcript_path"] = args.transcript
    return body, 0


def run_interactive_game(seed, mech, lanes, input_fn, say) -> quoin.GameRecord:
    """One human-guessed round of game 0; IO is injected so transcripts replay in tests."""
    from . import quoin
    lanes = check_int(lanes, "lanes", 1, quoin.MAX_LANES)
    strategy = quoin.QuoinStrategy()
    bob, alice, _, hint, target, alice_out, bob_out = quoin._play(strategy, seed, seed, 0, mech, lanes)
    alice_bits, bob_bits = quoin.lane_bits(alice, lanes), quoin.lane_bits(bob, lanes)
    outcomes = strategy.transcript(lanes, alice, bob, hint, alice_out, bob_out)[:2]
    say(f"the dealer set your lanes to {list(alice_bits)} (Bob's side is hidden)")
    say(f"you flip your quoins per your bits and see: {quoin.lane_symbols(alice_out, lanes)}")
    bits_bought = 0
    answer = input_fn("buy Bob's parity bit for one chip? [y/n] ").strip().lower()
    if answer.startswith("y"):
        bits_bought = 1
        bob_parity = quoin.popcount(bob_out) & 1
        say(f"Bob's message: his H count is {quoin.parity_name(bob_parity)} ({bob_parity})")
        say(f"protocol guess: {quoin.parity_name(hint)}")
    guess = input_fn("your guess, even or odd? ").strip().lower()
    if guess not in ("even", "odd"):
        guess = quoin.parity_name(hint) if bits_bought else "even"
        say(f"unrecognized guess; recording {guess}")
    record = quoin.GameRecord(
        bob_bits, alice_bits, quoin.parity_name(target), bits_bought, guess, quoin.CHIPS_START, outcomes
    )
    say(f"Bob's lanes were {list(bob_bits)}; the answer is {record.target_parity}")
    say(f"{'you win' if record.correct else 'you lose'}: net {record.chips_net:+d} chips")
    return record


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitlab",
        description="Qubit measurement statistics, Bell correlations, CHSH boxes, and the quoin game.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, angles=True):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if angles:
            p.add_argument("--degrees", action="store_true", help="plain numeric angles are degrees")

    p = sub.add_parser("project", help="single-qubit projection statistics at angle theta")
    common(p)
    p.add_argument("--theta", required=True, help="angle between preparation and measurement")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = analytic only)")

    p = sub.add_parser("bell", help="Bell-state joint probabilities at two in-plane angles")
    common(p)
    p.add_argument("--kind", choices=BELL_KINDS, required=True)
    p.add_argument("--plane", choices=("xy", "yz", "xz"))
    p.add_argument("--a", required=True, help="Alice's in-plane angle")
    p.add_argument("--b", required=True, help="Bob's in-plane angle")
    p.add_argument("--trials", type=int, default=0)

    p = sub.add_parser("chsh", help="CHSH analysis of a quantum, PR-box, or deterministic source")
    common(p)
    p.add_argument("--source", choices=("quantum", "prbox", "lhv"), required=True)
    p.add_argument("--kind", choices=BELL_KINDS, default="singlet")
    p.add_argument("--plane", choices=("xy", "yz", "xz"))
    p.add_argument("--angles", help="a0,a1,b0,b1 for the quantum source")
    p.add_argument("--scan", type=int, default=0, help="run an NxN in-plane angle scan")

    p = sub.add_parser("game", help="quoin guessing game")
    common(p, angles=False)
    p.add_argument("mode", choices=("simulate", "play"))
    p.add_argument("--strategy", default="quoin", help="quoin, random, or classical:K")
    p.add_argument("--games", type=int)
    p.add_argument("--lanes", type=int, default=DEFAULT_LANES)
    p.add_argument("--mech", choices=("quoin", "quantum"), default="quoin")
    p.add_argument("--transcript", help="write one GameRecord JSON line per game to this path")
    # --games (10000) and --format (text) take their defaults in game simulate; game play refuses both
    p.set_defaults(format=None)
    return parser


_COMMANDS = {"project": cmd_project, "bell": cmd_bell, "chsh": cmd_chsh, "game": cmd_game}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body, code = _COMMANDS[args.cmd](args)
    except QubitLabError as exc:
        parser.error(str(exc))
    if body is not None:
        _emit(args.cmd, body, args.format or "text", sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
