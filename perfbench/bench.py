"""Run one workload, measure it, and print its metrics.

Untraced operations give the end-to-end metrics. With tracing on, every
other operation runs traced; the traced ones give the per-layer metrics and
the untraced ones the baseline for ``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import resource
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import computed, envinfo, stats
from .checks import Ledger
from .tracing import OP_SPAN, Tracer, layer_metrics
from .workloads import WORKLOADS, Sizes, level_shapes, val_nll_guard

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "val_nll": "nats"}


def unit_of(metric: str) -> str:
    if metric.endswith("gflop_per_step"):
        return "GFLOP"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_s"):
        return "s"
    return "count"


@dataclass
class Measurement:
    workload: str
    seed: int
    traced: bool
    setup_times: list[float]
    op_times: list[float]
    traced_op_times: list[float]
    ledger: Ledger
    state: object
    val_nll: float
    per_layer: dict[str, float] = field(default_factory=dict)
    floor: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def untraced_indices(self) -> list[int]:
        step = 2 if self.traced else 1
        return list(range(0, len(self.op_times) * step, step))


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, workdir: Path) -> Measurement:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    ledger = Ledger()
    setup_times = []
    while True:
        root = workdir / f"{name}-{len(setup_times)}"
        start = time.perf_counter()
        state = workload.setup(root, seed, sizes)
        setup_times.append(time.perf_counter() - start)
        if (len(setup_times) >= sizes.setup_max_repeats
                or (len(setup_times) >= sizes.setup_min_repeats
                    and sum(setup_times) >= sizes.setup_budget_s)):
            break
        shutil.rmtree(root, ignore_errors=True)

    times: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            tracer.request = index
        began = time.perf_counter()
        try:
            if traced:
                with tracer.span(OP_SPAN):
                    workload.operation(state, index, ledger)
            else:
                workload.operation(state, index, ledger)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(time.perf_counter() - began)
        index += 1
        if time.perf_counter() - start >= seconds and (tracer is None or times[True]):
            break
    workload.finish(state, ledger)
    val_nll = val_nll_guard(sizes, ledger)

    result = Measurement(name, seed, trace, setup_times, times[False], times[True],
                         ledger, state, val_nll, tracer=tracer)
    if tracer is not None:
        result.per_layer = layer_metrics(tracer.spans, tracer.counts, len(times[True]))
        shapes = level_shapes(sizes)
        for level, shape in shapes.items():
            result.per_layer[f"neural.{level}.gflop_per_step"] = computed.train_step_gflop(shape)
        result.floor = computed.forward_floor(shapes["note"], sizes.dropout, sizes.floor_repeats, seed)
        result.per_layer["neural.forward_cache_mb"] = result.floor["cache_mb"]
        result.per_layer["neural.note.forward_floor_ratio"] = result.floor["ratio"]
        result.per_layer["trace.overhead_frac"] = (
            stats.median(times[True]) / stats.median(times[False]) - 1.0)
        result.per_layer = dict(sorted(result.per_layer.items()))
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement) -> dict[str, float]:
    return {
        "setup_s": stats.median(m.setup_times),
        "op_p50_s": stats.median(m.op_times),
        "peak_rss_mb": peak_rss_mb(),
        "val_nll": m.val_nll,
    }


def workload_metrics(m: Measurement) -> list[tuple[str, float | None, str, str]]:
    """The workload's own end-to-end metrics: (name, value, unit, sample note)."""
    rows = []
    if m.workload == "train":
        symbols = m.state.symbols_per_op * len(m.op_times)
        rows.append(("train_symbols_per_s", symbols / sum(m.op_times), "symbols/s",
                     f"{symbols} symbols over {len(m.op_times)} ops"))
    elif m.workload == "generate":
        keep = set(m.untraced_indices())
        for mode in ("sample", "beam"):
            values = [v for i, v in m.state.latencies[mode].items() if i in keep]
            s = stats.summary(values)
            rows.append((f"gen_{mode}_p50_s", s["p50"], "s", f"n={s['n']}"))
            pct = f"p{s['tail_pct']:.0f}" if s["tail"] is not None else "none"
            rows.append((f"gen_{mode}_tail_s", s["tail"], "s",
                         f"{pct}, n={s['n']}, {stats.TAIL_BEYOND} samples beyond"))
    else:
        s = stats.summary(m.op_times)
        rows.append(("pipeline_s", s["p50"], "s", f"median, n={s['n']}"))
    rows.append(("error_rate", m.ledger.error_rate, "fraction",
                 f"{m.ledger.failed} of {m.ledger.attempted} operations failed"))
    return rows


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(m: Measurement) -> list[str]:
    e2e = end_to_end(m)
    lines = [f"workload {m.workload}, seed {m.seed}, trace {int(m.traced)}: "
             f"{len(m.op_times)} untraced + {len(m.traced_op_times)} traced operations"]
    notes = {"setup_s": f"median of {len(m.setup_times)} set-ups",
             "op_p50_s": f"median, n={len(m.op_times)}",
             "peak_rss_mb": "this workload's process",
             "val_nll": "note level, validation split, fixed-seed guard model"}
    for name, value in e2e.items():
        lines.append(f"  {name:<34} {_fmt(value):>12} {END_TO_END_UNITS[name]:<10} ({notes[name]})")
    for name, value, unit, note in workload_metrics(m):
        lines.append(f"  {name:<34} {_fmt(value):>12} {unit:<10} ({note})")
    for failure in m.ledger.failures:
        lines.append(f"  FAILED {failure}")
    if m.traced:
        n = len(m.traced_op_times)
        lines.append(f"per-layer metrics, per traced operation (n={n}):")
        for name, value in m.per_layer.items():
            lines.append(f"  {name:<34} {_fmt(value):>12} {unit_of(name)}")
        lines.append(f"  note forward {m.floor['forward_s']:.4g} s, its GEMMs alone "
                     f"{m.floor['gemm_s']:.4g} s (medians of {m.floor['repeats']})")
    return lines


def result_line(m: Measurement) -> dict:
    if m.traced:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in m.per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(m).items()}
    return {"correct": m.ledger.failed == 0, "attempted": m.ledger.attempted,
            "failed": m.ledger.failed, "metrics": metrics}


def save(m: Measurement, root: Path, out_dir: Path, sizes: Sizes) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{m.workload}-seed{m.seed}-trace{int(m.traced)}"
    record = {
        "environment": envinfo.environment(root, m.seed),
        "workload": m.workload,
        "sizes": asdict(sizes),
        "end_to_end": end_to_end(m),
        "workload_metrics": {n: {"value": v, "unit": u, "samples": s}
                             for n, v, u, s in workload_metrics(m)},
        "per_layer": m.per_layer,
        "samples": {"setup_s": m.setup_times, "op_s": m.op_times,
                    "traced_op_s": m.traced_op_times},
        "failures": m.ledger.failures,
    }
    path = out_dir / f"results-{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if m.tracer is not None:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(m.tracer.dump()) + "\n", encoding="utf-8")
    return path
