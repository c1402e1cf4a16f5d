"""Spans around melodygen's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in every
loaded ``melodygen`` module that holds a reference to it (the defining module
and each ``from ... import`` site), and ``uninstall`` puts the originals back,
so untraced operations run the program exactly as shipped. Spans stay in
memory; the benchmark writes them out when it ends.

A traced function that no longer exists is an error naming it: a refactor
must update this list rather than have a layer vanish from the report.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function). Span names drop the "melodygen." prefix.
TARGETS: tuple[tuple[str, str], ...] = (
    ("melodygen.cli", "cmd_ingest"),
    ("melodygen.cli", "cmd_profiles"),
    ("melodygen.cli", "cmd_train"),
    ("melodygen.cli", "cmd_eval"),
    ("melodygen.cli", "cmd_generate"),
    ("melodygen.corpus", "scan_corpus"),
    ("melodygen.musicxml", "parse_musicxml"),
    ("melodygen.leadsheet", "loads_leadsheet"),
    ("melodygen.encode", "grid_encode"),
    ("melodygen.profiles", "build_codebook"),
    ("melodygen.profiles", "elbow_report"),
    ("melodygen.profiles", "kmeans"),
    # Private, but the only place the Lloyd iteration count of every restart
    # is visible: kmeans returns only the best restart.
    ("melodygen.profiles", "_lloyd"),
    ("melodygen.profiles", "assign_many"),
    ("melodygen.hrnn.specs", "build_layer_inputs"),
    ("melodygen.hrnn.datasets", "build_datasets"),
    ("melodygen.hrnn.datasets", "pad_batch"),
    ("melodygen.hrnn.training", "train_layer"),
    ("melodygen.hrnn.evaluation", "evaluate_layer"),
    ("melodygen.hrnn.generation", "generate"),
    ("melodygen.hrnn.bundle", "save_bundle"),
    ("melodygen.hrnn.bundle", "load_bundle"),
    ("melodygen.container", "save_arrays"),
    ("melodygen.container", "load_arrays"),
    ("melodygen.neural", "forward_sequence"),
    ("melodygen.neural", "backward"),
    ("melodygen.neural", "clip_global_norm"),
    ("melodygen.neural", "adam_update"),
    ("melodygen.neural", "lstm_step"),
    ("melodygen.midifile", "write_midi"),
)

OP_SPAN = "perfbench.op"


class TraceTargetMissing(RuntimeError):
    """A function the trace wraps is gone from the program."""


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Span tags: the hierarchy level a training call works on, the decode mode.
_TAGS = {
    "hrnn.training.train_layer": lambda a, k: _arg(a, k, 0, "spec").level,
    "hrnn.generation.generate": lambda a, k: _arg(a, k, 2, "plan").mode,
}


def _decoded_steps(result) -> int:
    return sum(
        len(view["events"]) - view["primer_length"]
        for view in result.trace["levels"].values()
        if "events" in view
    )


# Counters read off a call's result.
_COUNTERS = {
    "profiles._lloyd": ("profiles.lloyd_iterations", lambda r: r.iterations),
    "hrnn.generation.generate": ("generation.steps_decoded", _decoded_steps),
}


def resolve_targets() -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every target; raises naming a missing one."""
    found = []
    for module_name, attr in TARGETS:
        try:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
        except (ImportError, AttributeError):
            raise TraceTargetMissing(
                f"traced function {module_name}.{attr} no longer exists; "
                "update perfbench/tracing.py TARGETS"
            ) from None
        found.append((module, attr, func))
    return found


class Tracer:
    """Records (name, start, end, parent, request, tag) spans while installed."""

    FIELDS = ("name", "start", "end", "parent", "request", "tag")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._stack: list[int] = []
        self._targets = resolve_targets()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, tag) -> list:
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent][5]
        span = [name, time.perf_counter(), None, parent, self.request, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, func):
        tag_of = _TAGS.get(name)
        counter = _COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name, tag_of(args, kwargs) if tag_of else None)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "melodygen"]
        for module, attr, func in self._targets:
            wrapper = self._wrap(f"{module.__name__.removeprefix('melodygen.')}.{attr}", func)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is func:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, func))

    def uninstall(self) -> None:
        for holder, key, func in reversed(self._patched):
            setattr(holder, key, func)
        self._patched.clear()

    def dump(self) -> dict:
        return {"fields": list(self.FIELDS), "spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


LEVELS = ("bar", "beat", "note")

# metric -> (span name, "total" | "self" | "calls")
_SPAN_METRICS = {
    "datasets.pad_batch_s": ("hrnn.datasets.pad_batch", "total"),
    "datasets.build_s": ("hrnn.datasets.build_datasets", "total"),
    "evaluation.evaluate_s": ("hrnn.evaluation.evaluate_layer", "total"),
    "neural.lstm_step_s": ("neural.lstm_step", "total"),
    "neural.lstm_step_calls": ("neural.lstm_step", "calls"),
    "bundle.load_s": ("hrnn.bundle.load_bundle", "total"),
    "bundle.save_s": ("hrnn.bundle.save_bundle", "total"),
    "midifile.write_s": ("midifile.write_midi", "total"),
    "cli.generate.self_s": ("cli.cmd_generate", "self"),
    "corpus.scan_s": ("corpus.scan_corpus", "total"),
    "musicxml.parse_s": ("musicxml.parse_musicxml", "total"),
    "musicxml.docs": ("musicxml.parse_musicxml", "calls"),
    "leadsheet.loads_s": ("leadsheet.loads_leadsheet", "total"),
    "leadsheet.loads_calls": ("leadsheet.loads_leadsheet", "calls"),
    "encode.grid_encode_s": ("encode.grid_encode", "total"),
    "encode.grid_encode_calls": ("encode.grid_encode", "calls"),
    "profiles.kmeans_s": ("profiles.kmeans", "total"),
    "profiles.assign_s": ("profiles.assign_many", "total"),
    **{f"cli.{c}_s": (f"cli.cmd_{c}", "total") for c in ("ingest", "profiles", "train", "eval", "generate")},
}

# Per-level training metrics: span name -> metric suffix. Only spans called
# directly by train_layer count, so evaluation forwards stay out of forward_s.
_LEVEL_METRICS = {
    "neural.forward_sequence": "forward_s",
    "neural.backward": "backward_s",
    "neural.clip_global_norm": "clip_s",
    "neural.adam_update": "adam_s",
}

LAYER_MODULES = tuple(sorted({m.removeprefix("melodygen.") for m, _ in TARGETS} | {"perfbench"}))


def layer_metrics(spans: list[list], counts: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-layer metrics per traced operation, from spans and counters."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    mine: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        name = span[0]
        duration = span[2] - span[1]
        total[name] += duration
        mine[name] += self_s
        calls[name] += 1
        parent = spans[span[3]][0] if span[3] is not None else None
        if name in _LEVEL_METRICS and parent == "hrnn.training.train_layer":
            out[f"neural.{span[5]}.{_LEVEL_METRICS[name]}"] += duration
            if name == "neural.adam_update":
                out[f"neural.{span[5]}.steps"] += 1
        if name == "hrnn.generation.generate":
            out[f"generation.{span[5]}_s"] += duration
        out[f"layer.{name.rsplit('.', 1)[0]}.self_s"] += self_s
    for metric, (name, kind) in _SPAN_METRICS.items():
        out[metric] = {"total": total, "self": mine, "calls": calls}[kind][name]
    for level in LEVELS:
        for suffix in (*_LEVEL_METRICS.values(), "steps"):
            out[f"neural.{level}.{suffix}"] += 0.0
    for mode in ("sample", "beam"):
        out[f"generation.{mode}_s"] += 0.0
    for module in LAYER_MODULES:
        out[f"layer.{module}.self_s"] += 0.0
    out["profiles.lloyd_iterations"] = counts.get("profiles.lloyd_iterations", 0.0)
    out["generation.steps_decoded"] = counts.get("generation.steps_decoded", 0.0)
    return {key: value / n_ops for key, value in sorted(out.items())}
