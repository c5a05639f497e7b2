"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Smoke runs go through run.py exactly as the benchmark is run; the planted
results go straight through the worker's op runner.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((BENCH / "out" / "runs" / f"{workload}-seed{SEED}-trace0.json").read_text())
    assert record["percentile_samples"]["op_p90_ms"]["beyond"] >= 10
    assert record["failed_frac"] == 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    result = result_of(bench(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["failed_frac"]["value"] == 0
    assert (BENCH / "out" / "spans" / f"{workload}-seed{SEED}.jsonl").stat().st_size > 0


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def joint_ops(tmp_path) -> list[workloads.Op]:
    deck = workloads.build("bell_chsh", SEED, tmp_path)[0]
    return [op for op in deck if op.kind == "joint"]


def with_bell(**functions) -> SimpleNamespace:
    return SimpleNamespace(bell=SimpleNamespace(**functions))


def test_right_results_pass(tmp_path):
    q = SimpleNamespace(**workloads.layer_modules())
    for workload in ("bell_chsh", "quoin_games"):
        for op in workloads.build(workload, SEED, tmp_path)[0]:
            assert worker.execute(op, q)[1] is None


def test_planted_wrong_probability_is_a_failed_op(tmp_path):
    real = workloads.bell.joint_probabilities

    def perturbed(kind, a, b):
        jp = real(kind, a, b)
        return dataclasses.replace(jp, p_pp=jp.p_pp + 1e-6, p_pm=jp.p_pm - 1e-6)

    for op in joint_ops(tmp_path):
        latency, failure = worker.execute(op, with_bell(joint_probabilities=perturbed))
        assert latency > 0
        assert "CheckFailed" in failure


def test_raising_and_malformed_results_are_failed_ops_not_crashes(tmp_path):
    def raises(kind, a, b):
        raise RuntimeError("planted")

    op = joint_ops(tmp_path)[0]
    assert "raised RuntimeError('planted')" in worker.execute(op, with_bell(joint_probabilities=raises))[1]
    assert "AttributeError" in worker.execute(op, with_bell(joint_probabilities=lambda *a: None))[1]


def test_failed_ops_reach_the_phase_count(tmp_path):
    ops = joint_ops(tmp_path)
    phase = worker.run_phase([ops], with_bell(joint_probabilities=lambda *a: None), 0.0, 0)
    assert len(phase.latencies) == len(phase.failures) == len(ops)


def test_latencies_scale_by_the_nearest_reference_ticks():
    slow = 2 * worker.REF_TICK_S
    ticks = [(t, worker.REF_TICK_S) for t in range(4)] + [(t, slow) for t in range(10, 14)]
    phase = worker.Phase([0.5, 0.5], [], 14.0, starts=[1.0, 11.0], ticks=ticks)
    assert phase.scaled_latencies() == [0.5, 0.25]
    assert phase.ops_per_s == 2 / 0.75
