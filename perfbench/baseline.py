"""Reproduce the ROADMAP baseline table from the benchmark's per-layer spans.

    python3 perfbench/baseline.py --seed 1 --seconds 25

Runs every workload once with `--trace 1` through run.py, then reads only
the spans those runs wrote under `out/spans/` and prints one markdown row
per baseline path. Byte counts are computed from array sizes, not measured.
The rows also go to `out/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from worker import OUT_DIR, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _median_ms(chosen) -> float:
    return statistics.median(s.seconds for s, _ in chosen) * 1e3


def rows(by_workload: dict[str, list[spans.Span]]) -> list[tuple[str, str]]:
    def calls(workload: str, name: str, where=lambda attrs: True) -> list[tuple[spans.Span, dict]]:
        """(span, attributes of the op that made the call) for calls named `name`."""
        trace = by_workload[workload]
        ops = {s.op: s.attrs for s in trace if s.layer == spans.OP_LAYER}
        return [(s, ops[s.op]) for s in trace if s.name == name and s.op is not None and where(ops[s.op])]

    out = []
    strategies = (("QuoinStrategy()", "quoin"), ("ClassicalBitsStrategy(3)", "classical"), ("RandomStrategy()", "random"))
    for label, strategy in strategies:
        mc = calls(
            "quoin_games", "quoin.monte_carlo",
            lambda a, s=strategy: (a["strategy"], a["mech"], a["lanes"]) == (s, "standard", 5),
        )
        games = sum(attrs["games"] for _, attrs in mc)
        per_game = math.fsum(s.seconds for s, _ in mc) / games
        timing = f"{per_game * 1e4:.3g} s ({per_game * 1e6:.0f} µs per game, {games} games)"
        out.append((f"`monte_carlo({label}, 10**4)`", timing))
    scans = {n: calls("bell_chsh", "boxes.tsirelson_scan", lambda a, n=n: a["n"] == n) for n in (180, 720)}
    out.append(("`tsirelson_scan(n=180)` / `n=720`", " / ".join(f"{_median_ms(scans[n]):.0f} ms" for n in (180, 720))))
    joint = calls("bell_chsh", "bell.joint_probabilities")
    out.append(("`joint_probabilities`", f"{_median_ms(joint) * 1e3:.0f} µs per call ({len(joint)} calls)"))
    parity = calls("quoin_games", "quoin.verify_parity_theorem")
    out.append(("`verify_parity_theorem()` (32 seeds × 1024 deals)", f"{_median_ms(parity):.0f} ms"))
    samplers = [
        _median_ms(calls("sampling", name, lambda a: a["n"] == 10**6))
        for name in ("measure.sample_outcomes", "bell.sample_joint")
    ]
    out.append(("`sample_outcomes` / `sample_joint`, 10⁶ trials", " / ".join(f"{ms:.1f} ms" for ms in samplers)))
    imports = [(s, None) for s in by_workload["cli_session"] if s.name == "cli.import_package"]
    out.append(("`import qubitlab` (fresh `python -c`)", f"{_median_ms(imports) / 1e3:.2f} s"))
    cli = [
        _median_ms(calls("cli_session", "cli.project")) / 1e3,
        _median_ms(calls("cli_session", "cli.chsh", lambda a: "--scan=180" in a["args"])) / 1e3,
        _median_ms(calls("cli_session", "cli.game")) / 1e3,
    ]
    out.append(
        ("CLI `project`, `chsh --scan 180` / `game simulate` (200–400 games)", " / ".join(f"{s:.2f} s" for s in cli))
    )
    scan_n = max(s.attrs["n"] for s in by_workload["bell_chsh"] if s.layer == spans.OP_LAYER and s.attrs["kind"].startswith("scan"))
    trials = max(s.attrs["n"] for s in by_workload["sampling"] if s.layer == spans.OP_LAYER)
    out.append((f"scan candidates at n={scan_n} (32·n², computed)", f"{32 * scan_n**2 / 2**20:.1f} MiB"))
    out.append((f"sampling arrays at {trials} trials (16·n, computed)", f"{16 * trials / 2**20:.1f} MiB"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            check=True, stdout=subprocess.DEVNULL, timeout=180,
        )
    table = rows({w: spans.read_spans(OUT_DIR / "spans" / f"{w}-seed{args.seed}.jsonl") for w in WORKLOADS})
    print("| path | time |\n| --- | --- |")
    for path, value in table:
        print(f"| {path} | {value} |")
    record = {"seed": args.seed, "seconds": args.seconds, "rows": table}
    (OUT_DIR / "baseline.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
