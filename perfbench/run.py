"""Run one workload of the qubitlab benchmark and print its metrics.

    python3 perfbench/run.py --workload bell_chsh --seed 1 --seconds 25 --trace 0

Run it from a source checkout; it imports the package from `src/` and
exits 2 without a result when that is missing. It pins itself to one CPU
and starts fresh interpreters there one at a time, each with BLAS threads
pinned to one: first five set-up probes (their median is `setup_s`), then
the workload process (worker.py). The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer ones with `--trace 1`. The full run record goes
to `out/runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
HELD_OUT_OFFSET = 1_000_000  # claims made on seed s must also hold on s + HELD_OUT_OFFSET


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Stdout of a child that must exit 0; its whole process group is killed on timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(argv[1:3])} took longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {err[-2000:]}")
    return out


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


CACHE_SUFFIX = {"Data": "d", "Instruction": "i", "Unified": ""}


def cache_sizes() -> dict[str, str]:
    """Cache sizes of CPU 0 by name (L1d, L1i, L2, L3), as Linux reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level}{CACHE_SUFFIX.get(kind, '')}"] = size
    return sizes


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qubitlab" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'qubitlab'}; run from a qubitlab checkout", file=sys.stderr)
        return 2

    # one client needs one CPU; pinned, the reference ticks run where the ops and CLI children run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    began = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [
            last_json_line(run_child([sys.executable, str(WORKER), "setup", *common], 60.0))
            for _ in range(SETUP_PROBES)
        ]
        remaining = RUN_LIMIT_S - (time.monotonic() - began)
        run_args = ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = last_json_line(run_child([sys.executable, str(WORKER), *run_args], remaining))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}, **metrics}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed + HELD_OUT_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
        "failures": result["failures"],
        "setup_probes": probes,
        "blas_pins": {**BLAS_PINS, "applied_to": "set-up probes, workload process, CLI children"},
        "machine": {
            "nproc": os.cpu_count(),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "caches": cache_sizes(),
            "platform": platform.platform(),
        },
        **source_identity(),
        **result["record"],
    }
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for failure in result["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
