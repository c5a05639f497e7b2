"""Spans around the benchmark's calls into each layer, and the per-layer metrics made from them.

Untraced runs call the package modules directly and record nothing. A traced
run calls them through `instrument`, which wraps every public function in a
span tagged by its layer. Each op gets one span of its own; the calls it
makes are its children. Spans stay in memory and are written out when the
run ends, and `per_layer_metrics` reads nothing else.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

LAYERS = ("hilbert", "qubit", "spinops", "measure", "bell", "boxes", "quoin", "cli")
OP_LAYER = "op"


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    ok: bool
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0
        self._parent: int | None = None
        self._op: int | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def wrap(self, layer: str, fn: Callable) -> Callable:
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            sid, start, ok = self._new_id(), time.perf_counter_ns(), False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.spans.append(
                    Span(sid, name, layer, start, time.perf_counter_ns(), self._parent, self._op, ok, None)
                )

        return traced

    def begin_op(self, op_id: int) -> int:
        self._parent, self._op = self._new_id(), op_id
        return self._parent

    def end_op(self, sid: int, start_ns: int, end_ns: int, ok: bool, attrs: dict) -> None:
        self.spans.append(Span(sid, f"op.{attrs['kind']}", OP_LAYER, start_ns, end_ns, None, self._op, ok, attrs))
        self._parent = self._op = None


class _TracedLayer:
    """A layer whose public functions are wrapped on first use; other names pass through."""

    def __init__(self, tracer: Tracer, layer: str, target: Any) -> None:
        self._tracer, self._layer, self._target = tracer, layer, target

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if inspect.isfunction(value) and not name.startswith("_"):
            value = self._tracer.wrap(self._layer, value)
            setattr(self, name, value)
        return value


def instrument(layers: dict[str, Any], tracer: Tracer | None) -> SimpleNamespace:
    """The layer namespace ops call through: the modules themselves when untraced."""
    if tracer is None:
        return SimpleNamespace(**layers)
    return SimpleNamespace(**{name: _TracedLayer(tracer, name, target) for name, target in layers.items()})


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        for span in spans:
            fp.write(json.dumps(span._asdict()) + "\n")


def read_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as fp:
        return [Span(**json.loads(line)) for line in fp]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit). A rate or median whose layer made no call here reads 0."""
    ops = {s.op: s for s in spans if s.layer == OP_LAYER}
    calls = [s for s in spans if s.layer in LAYERS and s.op is not None]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s.seconds for s in calls if s.layer == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.busy_s"] = (math.fsum(mine), "s")
        out[f"{layer}.call_p50_us"] = (_median(mine) * 1e6, "us")
        out[f"{layer}.failed"] = (sum(1 for o in ops.values() if o.attrs["layer"] == layer and not o.ok), "count")

    def rate(name: str, work: Callable[[dict], float], where: Callable[[dict], bool] = lambda a: True) -> float:
        chosen = [s for s in calls if s.name == name and where(ops[s.op].attrs)]
        busy = math.fsum(s.seconds for s in chosen)
        return math.fsum(work(ops[s.op].attrs) for s in chosen) / busy if busy else 0.0

    def largest(name: str, size: Callable[[int], int]) -> int:
        return max((size(ops[s.op].attrs["n"]) for s in calls if s.name == name), default=0)

    out["bell.joint_per_s"] = (rate("bell.joint_probabilities", lambda a: 1), "1/s")
    out["bell.sample_trials_per_s"] = (rate("bell.sample_joint", lambda a: a["n"]), "1/s")
    out["boxes.scan_correlators_per_s"] = (rate("boxes.tsirelson_scan", lambda a: 2 * a["n"]), "1/s")
    out["boxes.scan_candidate_bytes"] = (largest("boxes.tsirelson_scan", lambda n: 32 * n * n), "B")
    for strategy in ("quoin", "classical", "random"):
        out[f"quoin.mc_{strategy}_games_per_s"] = (
            rate("quoin.monte_carlo", lambda a: a["games"], lambda a, s=strategy: a["strategy"] == s),
            "1/s",
        )
    out["quoin.parity_deals_per_s"] = (rate("quoin.verify_parity_theorem", lambda a: a["deals"]), "1/s")
    replays = [o for o in ops.values() if o.attrs["kind"] == "replay"]
    replay_busy = math.fsum(o.seconds for o in replays)
    records = math.fsum(o.attrs["records"] for o in replays)
    out["quoin.records_per_s"] = (records / replay_busy if replay_busy else 0.0, "1/s")
    out["measure.trials_per_s"] = (rate("measure.sample_outcomes", lambda a: a["n"]), "1/s")
    out["measure.sample_bytes"] = (largest("measure.sample_outcomes", lambda n: 16 * n), "B")
    out["cli.import_s"] = (_median([s.seconds for s in spans if s.name == "cli.import_package"]), "s")
    for sub in ("project", "bell", "chsh", "game"):
        out[f"cli.{sub}_s"] = (_median([s.seconds for s in calls if s.name == f"cli.{sub}"]), "s")
    return out
