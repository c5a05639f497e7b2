"""The workload process: builds one workload's decks from a seed and runs them in a closed loop.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run --workload W --seed S --seconds T --trace 0|1

`run.py` starts it with the package on PYTHONPATH and BLAS threads pinned to
one. One client runs the ops: each starts after the previous one returned
and was checked. The last line of stdout is one JSON object.

`setup` only builds the inputs and reports how long that took in this fresh
interpreter, from before `import qubitlab` on. `run` warms up with one op of
each kind, then times whole decks until `--seconds` have passed. With
`--trace 1` it spends half the time untraced and half traced, reports the
per-layer metrics from the spans, and writes the spans under `out/spans/`.

A shared host's speed drifts by tens of percent within seconds, as other
tenants load its cores, and a fixed kernel run alone spreads as widely from
one 30 s run to the next as the ops do. So both modes time that kernel (a
reference tick) as they go, and the end-to-end times are scaled to a host on
which one tick takes REF_TICK_S: an op by the ticks nearest to it, set-up by
the ticks right after it. The raw wall times stay in the run record.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("bell_chsh", "quoin_games", "sampling", "cli_session")
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_TIMED_OPS = 100  # with fewer, under 10 samples lie beyond the 90th percentile
TIMED_CAP_S = 120.0  # keeps a run inside its time limit on a slow machine
IMPORT_PROBES = 5
MAX_REPORTED_FAILURES = 10
REF_TICK_S = 0.008  # end-to-end times read as on a host where one reference tick takes this long
TICK_EVERY_S = 0.25
TICKS_PER_OP = 4  # the ticks nearest in time to an op set its scale
SETUP_TICKS = 5


def reference_tick() -> float:
    """Seconds a fixed kernel takes now: the geometric mean of an interpreter loop and a numpy pass."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    looped = time.perf_counter()
    (np.random.default_rng(total).random(1_000_000) < 0.5).sum()
    return math.sqrt((looped - start) * (time.perf_counter() - looped))


def setup(workload: str, seed: int, tmp_dir: Path):
    start = time.perf_counter()
    import qubitlab  # noqa: F401  setup time starts with the package import

    imported = time.perf_counter()
    import workloads

    decks = workloads.build(workload, seed, tmp_dir)
    return decks, {"setup_s": time.perf_counter() - start, "import_s": imported - start}


def execute(op, q, tracer=None, op_id: int = -1) -> tuple[float, str | None]:
    """Run and check one op; returns (latency in s, None or why it failed)."""
    sid = tracer.begin_op(op_id) if tracer else None
    failure = None
    start = time.perf_counter_ns()
    try:
        result = op.run(q)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        failure = f"{op.kind} raised {exc!r}"
    end = time.perf_counter_ns()
    if failure is None:
        try:
            op.check(result)
        except Exception as exc:  # CheckFailed, or a result too malformed to check
            failure = f"{op.kind}: {exc!r}"
    if tracer:
        tracer.end_op(sid, start, end, failure is None, {"kind": op.kind, "layer": op.layer, **op.attrs})
    return (end - start) * 1e-9, failure


@dataclass
class Phase:
    latencies: list[float]
    failures: list[str]
    wall_s: float
    starts: list[float] = field(default_factory=list)  # s from the phase start
    ticks: list[tuple[float, float]] = field(default_factory=list)  # (s from the phase start, tick s)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.latencies) / self.wall_s

    def scaled_latencies(self) -> list[float]:
        """Each op's latency scaled by the median of the TICKS_PER_OP ticks nearest to it in time."""
        times = [t for t, _ in self.ticks]
        scaled = []
        for start, latency in zip(self.starts, self.latencies):
            i = bisect.bisect_left(times, start + latency / 2)
            lo = max(0, min(i - TICKS_PER_OP // 2, len(times) - TICKS_PER_OP))
            near = statistics.median(tick for _, tick in self.ticks[lo:lo + TICKS_PER_OP])
            scaled.append(latency * REF_TICK_S / near)
        return scaled

    @property
    def ops_per_s(self) -> float:
        """Ops per second of scaled time spent in the ops; checks and ticks are left out."""
        return len(self.latencies) / math.fsum(self.scaled_latencies())


def run_phase(decks, q, seconds: float, min_ops: int, tracer=None, op_ids=None) -> Phase:
    """Whole decks until `seconds` passed and `min_ops` ran, with a reference tick every TICK_EVERY_S."""
    op_ids = op_ids if op_ids is not None else itertools.count()
    phase = Phase([], [], 0.0)
    gc.collect()
    start = time.perf_counter()

    def tick() -> float:
        began = time.perf_counter() - start
        phase.ticks.append((began, reference_tick()))
        return began

    last_tick = tick()
    for d in itertools.count():
        for op in decks[d % len(decks)]:
            phase.starts.append(time.perf_counter() - start)
            latency, failure = execute(op, q, tracer, next(op_ids))
            phase.latencies.append(latency)
            if failure:
                phase.failures.append(failure)
            if time.perf_counter() - start - last_tick >= TICK_EVERY_S:
                last_tick = tick()
        phase.wall_s = time.perf_counter() - start
        if (phase.wall_s >= seconds and len(phase.latencies) >= min_ops) or phase.wall_s >= TIMED_CAP_S:
            tick()  # so the last ops have ticks after them too
            return phase


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        decks, setup_times = setup(workload, seed, Path(tmp))
        import numpy
        import qubitlab
        import spans
        import workloads

        layers = workloads.layer_modules()
        plain = spans.instrument(layers, None)
        warm_up = list({op.kind: op for op in reversed(decks[0])}.values())
        failures = [f for op in warm_up if (f := execute(op, plain)[1])]
        attempted = len(warm_up)
        record = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "qubitlab": qubitlab.__version__,
            "worker_setup": setup_times,
            "warm_up_ops": attempted,
            "deck_ops": len(decks[0]),
            "distinct_decks": len(decks),
        }
        if workload == "sampling":
            record["trials"] = {
                "small": workloads.SMALL_TRIALS,
                "large": workloads.LARGE_TRIALS,
                "computed_bytes_small": workloads.BYTES_PER_TRIAL * workloads.SMALL_TRIALS,
                "computed_bytes_large": workloads.BYTES_PER_TRIAL * workloads.LARGE_TRIALS,
            }

        if not trace:
            timed = run_phase(decks, plain, seconds, MIN_TIMED_OPS)
            phases = [timed]
            ordered = sorted(timed.scaled_latencies())
            wall = sorted(timed.latencies)
            ticks = [t for _, t in timed.ticks]
            # the CLI workload's memory is its children's; this process only waits for them
            rss_of = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
            metrics = {
                "ops_per_s": (timed.ops_per_s, "ops/s"),
                "op_p50_ms": (nearest_rank(ordered, 0.5) * 1e3, "ms"),
                "op_p90_ms": (nearest_rank(ordered, 0.9) * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(rss_of).ru_maxrss / 1024, "MiB"),
            }
            n = len(ordered)
            record["timed"] = {
                "ops": n,
                "wall_s": timed.wall_s,
                "wall_ops_per_s": timed.wall_ops_per_s,
                "wall_op_p50_ms": nearest_rank(wall, 0.5) * 1e3,
                "wall_op_p90_ms": nearest_rank(wall, 0.9) * 1e3,
            }
            record["reference_ticks"] = {
                "count": len(ticks),
                "nominal_s": REF_TICK_S,
                "quartiles_s": statistics.quantiles(ticks, n=4) if len(ticks) > 1 else ticks,
            }
            record["percentile_samples"] = {
                "op_p50_ms": {"samples": n, "beyond": n - math.ceil(0.5 * n)},
                "op_p90_ms": {"samples": n, "beyond": n - math.ceil(0.9 * n)},
            }
        else:
            op_ids = itertools.count()
            untraced = run_phase(decks, plain, seconds / 2, 0, None, op_ids)
            tracer = spans.Tracer()
            traced = run_phase(decks, spans.instrument(layers, tracer), seconds / 2, 0, tracer, op_ids)
            phases = [untraced, traced]
            import_package = tracer.wrap("cli", workloads.import_package)
            for _ in range(IMPORT_PROBES):
                proc = import_package()
                if proc.returncode != 0:
                    failures.append(f"import probe exit {proc.returncode}")
            span_path = OUT_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
            spans.write_spans(tracer.spans, span_path)
            # read back, so the written spans alone are shown to give every metric
            metrics = spans.per_layer_metrics(spans.read_spans(span_path))
            metrics["trace.overhead_frac"] = (1.0 - traced.ops_per_s / untraced.ops_per_s, "1")
            attempted += IMPORT_PROBES
            record["timed"] = {
                name: {"ops": len(p.latencies), "wall_s": p.wall_s, "ops_per_s": p.ops_per_s, "ticks": len(p.ticks)}
                for name, p in (("untraced", untraced), ("traced", traced))
            }
            record["spans"] = str(span_path.relative_to(OUT_DIR.parent.parent))
            record["span_count"] = len(tracer.spans)

    for phase in phases:
        attempted += len(phase.latencies)
        failures += phase.failures
    if trace:
        metrics["failed_frac"] = (len(failures) / attempted, "1")
    record["failed_frac"] = len(failures) / attempted
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            result = setup(args.workload, args.seed, Path(tmp))[1]
        reference_tick()  # the first tick in a fresh interpreter runs slow
        ticks = [reference_tick() for _ in range(SETUP_TICKS)]
        result["wall_setup_s"] = result["setup_s"]
        result["setup_s"] *= REF_TICK_S / statistics.median(ticks)
        result["reference_ticks_s"] = ticks
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
