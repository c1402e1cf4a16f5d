"""The three workloads: train, generate and pipeline.

Each is a closed loop with one client in one process: the next operation
starts when the previous one has finished. ``setup`` builds the inputs from
the seed and is timed on its own; ``operation`` is the timed unit; every
program call inside it runs in ``Ledger.operation`` and has its output
checked. Every melodygen function is reached through its module attribute,
so the tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from melodygen import cli, corpus, encode, leadsheet, neural, profiles, synthetic
from melodygen.hrnn import datasets, specs as hrnn_specs, training

from support.musicxml_builder import harmony_xml, simple_score

from . import checks
from .checks import require
from .computed import StepShape

REST_PROBABILITY = 0.2
BEAT_K, BAR_K = 8, 16  # the CLI's profile defaults
KMEANS_SEED_OFFSET = 7  # as the CLI derives it
BARS_PER_PIECE = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model shapes; FULL is what the workloads measure."""

    train_pieces: int = 200
    hidden: int = 256  # CLI default model shape
    lstm_layers: int = 2
    batch: int = 64
    dropout: float = 0.5
    train_iterations: int = 1  # evaluated once, after it
    gen_pieces: int = 60
    gen_bars: int = 16
    gen_setup_batch: int = 8
    beam_width: int = 5
    pipeline_pieces: int = 240
    pipeline_elbow: str = "2:8"
    pipeline_hidden: int = 32
    pipeline_iterations: int = 20  # the CLI's eval interval: one evaluation
    # Set-up repeats until it has run setup_min_repeats times and for
    # setup_budget_s seconds, at most setup_max_repeats times.
    setup_min_repeats: int = 3
    setup_max_repeats: int = 9
    setup_budget_s: float = 10.0
    floor_repeats: int = 3
    # The val_nll guard: note level of 2-bar pieces, trained from a fixed seed.
    guard_pieces: int = 100
    guard_bars: int = 2
    guard_hidden: int = 64
    guard_lstm_layers: int = 2
    guard_batch: int = 16
    guard_iterations: int = 120
    guard_learning_rate: float = 1e-2


FULL = Sizes()
SMOKE = Sizes(
    train_pieces=40, hidden=16, lstm_layers=1, batch=8, gen_pieces=30, gen_bars=2,
    pipeline_pieces=40, pipeline_elbow="2:4", pipeline_hidden=8, pipeline_iterations=2,
    setup_min_repeats=1, setup_max_repeats=1, setup_budget_s=0.0, floor_repeats=1,
    guard_pieces=60, guard_hidden=16, guard_lstm_layers=1, guard_batch=8, guard_iterations=60,
)


def cli_step(*argv) -> None:
    """One in-process ``melodygen`` call, which must exit with 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    require(code == 0, f"`melodygen {argv[0]}` exited with {code}: {err.getvalue().strip()}")


def level_shapes(sizes: Sizes) -> dict[str, StepShape]:
    """Each level's training batch shape in the train workload."""
    steps = {"bar": BARS_PER_PIECE, "beat": BARS_PER_PIECE * 4,
             "note": BARS_PER_PIECE * encode.STEPS_PER_BAR}
    layer_specs = hrnn_specs.layer_specs("3L", beat_k=BEAT_K, bar_k=BAR_K)
    return {
        level: StepShape(steps[level], sizes.batch, spec.input_dim, sizes.hidden,
                         sizes.lstm_layers, spec.alphabet_size)
        for level, spec in layer_specs.items()
    }


# ---------------------------------------------------------------- corpus files

_SHARP_SPELLING = (("C", 0), ("C", 1), ("D", 0), ("D", 1), ("E", 0), ("F", 0),
                   ("F", 1), ("G", 0), ("G", 1), ("A", 0), ("A", 1), ("B", 0))


def _chord_kind(chord) -> str:
    for kind, intervals in leadsheet.CHORD_KIND_INTERVALS.items():
        if tuple(sorted({(chord.root_pitch_class + i) % 12 for i in intervals})) == chord.chroma:
            return kind
    raise ValueError(f"no chord kind spells {chord.chroma}")


def musicxml_document(sheet) -> str:
    """A MusicXML rendering of a grid-aligned, monophonic lead sheet.

    Durations are in 16th divisions; chords must start on a bar.
    """
    events: list[tuple[int | None, int]] = []  # (pitch, or None for a rest; 16ths)
    cursor = 0
    for note in sheet.notes:
        onset, length = int(note.onset * 4), int(note.duration * 4)
        if onset > cursor:
            events.append((None, onset - cursor))
        events.append((note.midi_pitch, length))
        cursor = onset + length
    total = sheet.n_bars * encode.STEPS_PER_BAR
    if cursor < total:
        events.append((None, total - cursor))
    harmonies = {}
    for chord in sheet.chords:
        bar, offset = divmod(chord.onset_step, encode.STEPS_PER_BAR)
        if offset:
            raise ValueError("chords must start on a bar")
        step, alter = _SHARP_SPELLING[chord.root_pitch_class]
        harmonies[bar] = harmony_xml(step, _chord_kind(chord), alter)
    return simple_score(events, key_fifths=sheet.key_fifths, harmonies=harmonies)


def write_corpus(directory: Path, sheets, xml_share: bool) -> None:
    """Write lead sheets as JSON, or every other one as MusicXML."""
    directory.mkdir(parents=True, exist_ok=True)
    for index, sheet in enumerate(sheets):
        if xml_share and index % 2 == 0:
            (directory / f"{sheet.id}.musicxml").write_text(musicxml_document(sheet), encoding="utf-8")
        else:
            (directory / f"{sheet.id}.json").write_text(leadsheet.dumps_leadsheet(sheet), encoding="utf-8")


def _corpus(n: int, seed: int):
    return synthetic.synthetic_corpus(
        n, seed=seed, n_bars=BARS_PER_PIECE, rest_probability=REST_PROBABILITY,
        random_keys=True,
    )


# -------------------------------------------------------------- train inputs

def train_inputs(n_pieces: int, n_bars: int, seed: int) -> tuple[dict, dict, dict]:
    """3L layer specs and train/validation datasets of a synthetic corpus.

    The corpus has rests and is split 90/10; the codebooks have the CLI's
    default k, with the CLI's K-Means seed.
    """
    sheets = synthetic.synthetic_corpus(
        n_pieces, seed=seed, n_bars=n_bars, rest_probability=REST_PROBABILITY)
    train_ids, val_ids = corpus.split_ids([s.id for s in sheets], seed)
    grids = {s.id: encode.grid_encode(encode.normalize_sheet(s)) for s in sheets}
    binary = [profiles.binarize(grids[i]) for i in train_ids]
    kseed = seed + KMEANS_SEED_OFFSET
    beat = profiles.build_codebook(
        np.concatenate([profiles.cut_clips(b, profiles.BEAT_WIDTH) for b in binary]),
        "beat", BEAT_K, seed=kseed)
    bar = profiles.build_codebook(
        np.concatenate([profiles.cut_clips(b, profiles.BAR_WIDTH) for b in binary]),
        "bar", BAR_K, seed=kseed)
    require((beat.k, bar.k) == (BEAT_K, BAR_K), f"codebooks have k={beat.k},{bar.k}")
    build = lambda ids: datasets.build_datasets(
        [grids[i] for i in ids], "3L", beat_codebook=beat, bar_codebook=bar, piece_ids=ids)
    return hrnn_specs.layer_specs("3L", beat_k=beat.k, bar_k=bar.k), build(train_ids), build(val_ids)


# ------------------------------------------------------------------ val_nll

GUARD_SEED = 0  # fixed: the guard scores the program's arithmetic, not the inputs
GUARD_EVALUATIONS = 3
# An untrained model scores about ln(alphabet size); a trained one must beat
# this share of it, so a wrong gradient or optimizer step fails the check.
GUARD_MAX_SHARE = 0.7


def val_nll_guard(sizes: Sizes, ledger: checks.Ledger) -> float:
    """Note-level validation NLL of the weights train_layer returns for a small model.

    It trains from a fixed seed, so the value is the same on every run and
    moves only when the program's arithmetic changes. It runs once per run,
    outside set-up and the timed operations.
    """
    val_nll = math.nan
    with ledger.operation("val_nll guard"):
        specs, train, val = train_inputs(sizes.guard_pieces, sizes.guard_bars, GUARD_SEED)
        config = neural.TrainConfig(
            max_iterations=sizes.guard_iterations,
            eval_every=sizes.guard_iterations // GUARD_EVALUATIONS,
            batch_size=sizes.guard_batch, dropout=sizes.dropout, hidden_size=sizes.guard_hidden,
            n_lstm_layers=sizes.guard_lstm_layers, learning_rate=sizes.guard_learning_rate,
            seed=GUARD_SEED,
        )
        result = training.train_layer(specs["note"], train["note"], val["note"],
                                      training.layer_config(config, "note"))
        checks.require_finite(result.best_val_loss, "guard validation loss")
        untrained = math.log(specs["note"].alphabet_size)
        require(result.best_val_loss < GUARD_MAX_SHARE * untrained,
                f"guard validation loss {result.best_val_loss:.4f} is not below "
                f"{GUARD_MAX_SHARE} x {untrained:.4f}, the untrained loss")
        val_nll = result.best_val_loss
    return val_nll


# --------------------------------------------------------------------- train

@dataclass
class TrainState:
    specs: dict
    train: dict
    val: dict
    config: neural.TrainConfig
    symbols_per_op: int


class TrainWorkload:
    """train_layer for bar, beat and note at the CLI default model shape."""

    name = "train"

    def setup(self, root: Path, seed: int, sizes: Sizes) -> TrainState:
        specs, train, val = train_inputs(sizes.train_pieces, BARS_PER_PIECE, seed)
        per_iteration = 0
        for level, sequences in train.items():
            lengths = {len(s.targets) for s in sequences}
            require(len(lengths) == 1, f"{level} sequences differ in length")
            per_iteration += sizes.batch * lengths.pop()
        config = neural.TrainConfig(
            max_iterations=sizes.train_iterations, eval_every=sizes.train_iterations,
            batch_size=sizes.batch, dropout=sizes.dropout, hidden_size=sizes.hidden,
            n_lstm_layers=sizes.lstm_layers, seed=seed,
        )
        return TrainState(specs, train, val, config, per_iteration * sizes.train_iterations)

    def operation(self, state: TrainState, index: int, ledger: checks.Ledger) -> None:
        for level in ("bar", "beat", "note"):
            with ledger.operation(f"train_layer {level}"):
                result = training.train_layer(
                    state.specs[level], state.train[level], state.val[level],
                    training.layer_config(state.config, level))
                require(result.iterations_run == state.config.max_iterations,
                        f"{level} stopped after {result.iterations_run} iterations")
                checks.require_finite(result.final_train_loss, f"{level} training loss")
                checks.require_finite(result.best_val_loss, f"{level} validation loss")

    def finish(self, state: TrainState, ledger: checks.Ledger) -> None:
        pass


# ------------------------------------------------------------------ generate

@dataclass
class GenerateState:
    work: Path
    out: Path
    seed: int
    sizes: Sizes
    latencies: dict = field(default_factory=lambda: {"sample": {}, "beam": {}})  # op index -> s
    first_sample: bytes | None = None


class GenerateWorkload:
    """Alternating `melodygen generate` sample and beam requests on one bundle."""

    name = "generate"
    modes = ("sample", "beam")

    def setup(self, root: Path, seed: int, sizes: Sizes) -> GenerateState:
        sheets = _corpus(sizes.gen_pieces, seed)
        write_corpus(root / "corpus", sheets, xml_share=False)
        work = root / "work"
        cli_step("ingest", "--corpus-dir", root / "corpus", "--work-dir", work, "--seed", seed)
        checks.check_manifest(work, len(sheets))
        cli_step("profiles", "--work-dir", work, "--seed", seed)
        checks.check_codebooks(work, BEAT_K, BAR_K)
        # A brief training: the bundle's shape, not its quality, sets decode cost.
        cli_step("train", "--work-dir", work, "--seed", seed, "--variant", "3L",
                 "--hidden-size", sizes.hidden, "--lstm-layers", sizes.lstm_layers,
                 "--batch-size", sizes.gen_setup_batch, "--max-iterations", 1, "--eval-every", 1)
        checks.check_curves(work / "model" / "3L", ("bar", "beat", "note"))
        return GenerateState(work, root / "out", seed, sizes)

    def request(self, state: GenerateState, mode: str, seed: int, out: Path) -> None:
        cli_step("generate", "--work-dir", state.work, "--variant", "3L",
                 "--bars", state.sizes.gen_bars, "--mode", mode, "--temperature", "1.0",
                 "--beam-width", state.sizes.beam_width, "--seed", seed, "--out", out)

    def operation(self, state: GenerateState, index: int, ledger: checks.Ledger) -> None:
        seed = state.seed * 100_000 + index
        for mode in self.modes:
            out = state.out / f"{index}-{mode}.mid"
            with ledger.operation(f"generate {mode} seed {seed}"):
                start = time.perf_counter()
                self.request(state, mode, seed, out)
                state.latencies[mode][index] = time.perf_counter() - start
                data = checks.check_midi(out)
                checks.check_generation_trace(out.with_suffix(".json"), mode)
                if index == 0 and mode == "sample":
                    state.first_sample = data

    def finish(self, state: GenerateState, ledger: checks.Ledger) -> None:
        """Repeat the first request: the same seed must give the same bytes."""
        with ledger.operation("generate determinism"):
            out = state.out / "repeat-sample.mid"
            self.request(state, "sample", state.seed * 100_000, out)
            require(state.first_sample is not None, "the first request wrote nothing")
            require(out.read_bytes() == state.first_sample,
                    "the same request and seed gave different MIDI bytes")


# ------------------------------------------------------------------ pipeline

@dataclass
class PipelineState:
    root: Path
    corpus_dir: Path
    corpus_size: int
    seed: int
    sizes: Sizes


class PipelineWorkload:
    """ingest -> profiles -> train -> eval -> generate through the CLI."""

    name = "pipeline"

    def setup(self, root: Path, seed: int, sizes: Sizes) -> PipelineState:
        sheets = _corpus(sizes.pipeline_pieces, seed)
        write_corpus(root / "corpus", sheets, xml_share=True)
        return PipelineState(root, root / "corpus", len(sheets), seed, sizes)

    def operation(self, state: PipelineState, index: int, ledger: checks.Ledger) -> None:
        work, seed, sizes = state.root / f"work-{index}", state.seed, state.sizes
        with ledger.operation("ingest"):
            cli_step("ingest", "--corpus-dir", state.corpus_dir, "--work-dir", work, "--seed", seed)
            checks.check_manifest(work, state.corpus_size)
        with ledger.operation("profiles"):
            cli_step("profiles", "--work-dir", work, "--seed", seed, "--elbow", sizes.pipeline_elbow)
            checks.check_codebooks(work, BEAT_K, BAR_K)
            require((work / "elbow.json").is_file(), "elbow.json was not written")
        with ledger.operation("train"):
            cli_step("train", "--work-dir", work, "--seed", seed, "--variant", "3L", "--chords",
                     "--hidden-size", sizes.pipeline_hidden, "--lstm-layers", 1,
                     "--max-iterations", sizes.pipeline_iterations,
                     "--eval-every", sizes.pipeline_iterations)
            checks.check_curves(work / "model" / "3L", ("bar", "beat", "note"))
        with ledger.operation("eval"):
            cli_step("eval", "--work-dir", work, "--seed", seed, "--variant", "3L")
            metrics = json.loads((work / "metrics_3L.json").read_text(encoding="utf-8"))
            for level, view in metrics["levels"].items():
                checks.require_finite(view["loss"], f"eval {level} loss")
        with ledger.operation("generate"):
            out = work / "generated" / "pipeline.mid"
            cli_step("generate", "--work-dir", work, "--variant", "3L", "--seed", seed, "--out", out)
            checks.check_midi(out)
            checks.check_generation_trace(out.with_suffix(".json"), "sample")

    def finish(self, state: PipelineState, ledger: checks.Ledger) -> None:
        pass


WORKLOADS = {w.name: w for w in (TrainWorkload(), GenerateWorkload(), PipelineWorkload())}
