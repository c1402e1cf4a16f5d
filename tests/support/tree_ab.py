"""Compare two source trees of ``melodygen``: bit for bit on random inputs, or in speed.

    python tests/support/tree_ab.py normalize OTHER/src --cases 20000
    python tests/support/tree_ab.py neural OTHER/src --cases 300
    python tests/support/tree_ab.py decode OTHER/src --cases 40
    python tests/support/tree_ab.py profiles OTHER/src --cases 1000
    python tests/support/tree_ab.py features OTHER/src --cases 600
    python tests/support/tree_ab.py time generate OTHER/src --rounds 10
    python tests/support/tree_ab.py time train-step OTHER/src --rounds 10

``OTHER/src`` is the ``src`` directory of another checkout, for example a
``git worktree`` of the parent commit; it is compared with this checkout's
``src``. Each tree is imported apart from the other by :func:`import_tree`.
Five checks:

    normalize   ``encode.normalize_sheet`` and ``corpus.pitch_in_range_fraction``
                on random lead sheets: keys -7..7, pitches across 0..127 and
                at the MIDI range ends, notes that share onsets, chords
    neural      loss, probabilities, every gradient and the parameters after
                one Adam step of random small LSTMs, with and without dropout,
                then their ``copy()``, their ``save_checkpoint`` file bytes and
                the parameters ``load_checkpoint`` reads back, compared with
                ``np.array_equal``
    decode      ``generation.generate`` in sample and beam mode on random
                small 3L models, with and without chords, some with the bar
                or the beat level fixed to tiled profiles: the event sequence
                of every level, and each chosen symbol's log-prob within
                ``DECODE_BOUND``; then the ``ValueError`` text of three bad
                requests on each model (see :func:`rejection_case`)
    profiles    ``profiles.kmeans``, with and without ``initial_centroids``,
                and ``profiles.elbow_report`` on random 0/1 clip sets of beat
                and bar width: centroid bytes, labels, objective and iteration
                count, compared with ``np.array_equal``
    features    on random grids, chord tracks and codebook sizes, for every
                variant with and without chords (the case seed picks them in
                turn): the ``to_dict()`` of every ``layer_specs`` and
                ``variant_specs`` spec, each level's ``condition_block``,
                ``layer_features`` rows at single positions of random
                histories, and the inputs and targets of ``build_datasets``,
                compared with ``np.array_equal``

It prints the number of cases and of differences, and the first differences;
the exit status is 1 when any case differs. ``decode`` also prints how many
event sequences and rejections are equal and the largest relative log-prob
difference.

``time generate`` times both trees instead, in one process: a library
``generate`` sample request and a beam-5 request for 16 bars on a 3L model
with ``init_params`` weights at H=256 and L=2. Each round runs the trees in
the order other, this, this, other, each turn making two calls, and keeps
each tree's fastest call. For each request it prints each tree's
median over the rounds, the median of the rounds' ratios this/other with
its 95% bootstrap interval (:func:`median_interval`), and the rounds each
tree won; then ``os.getloadavg()`` before and after the run, and a warning
when the 1-minute load before it was at least half of ``os.cpu_count()``.
It is evidence to quote with its command line, not a gate.

``time train-step`` times, in the same rounds, one note-level ``train_layer``
iteration of batch 64 with its evaluation, on a 3L chord model at the
pipeline workload's shape (H=32, L=1) and at the CLI's (H=256, L=2). Each
tree builds its own datasets of one synthetic corpus before the rounds.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import random
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

THIS_SRC = Path(__file__).resolve().parents[2] / "src"


def _own_modules() -> dict[str, ModuleType]:
    return {name: module for name, module in sys.modules.items()
            if name == "melodygen" or name.startswith("melodygen.")}


def import_tree(src_dir: str | Path) -> ModuleType:
    """The ``melodygen`` package of ``src_dir``, imported apart from the one
    in ``sys.modules``, which is restored afterwards along with ``sys.path``.

    The package imports every submodule, and no module imports another inside
    a function, so the returned modules keep using their own tree's code.
    """
    src = str(Path(src_dir).resolve())
    saved = _own_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("melodygen")
        importlib.import_module("melodygen.neural")
    finally:
        sys.path.remove(src)
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"melodygen came from {package.__file__}, not from {src}")
    return package


def random_document(rng: random.Random) -> dict:
    """A schema-1 lead-sheet document that both trees load."""
    notes = []
    for _ in range(rng.randint(0, 8)):
        pitch = rng.choice([rng.randint(0, 127), rng.randint(0, 11), rng.randint(116, 127)])
        notes.append({"pitch": pitch, "onset": [rng.randint(0, 3), 4],
                      "duration": [rng.randint(1, 8), 4],
                      "tie_start": rng.random() < 0.2, "tie_stop": rng.random() < 0.2})
    notes.sort(key=lambda note: (Fraction(*note["onset"]), note["pitch"]))
    chords = []
    for step in sorted(rng.sample(range(16), rng.randint(0, 3))):
        root = rng.randint(0, 11)
        tones = {root, *rng.sample(range(12), rng.randint(0, 3))}
        chords.append({"onset_step": step, "root": root, "chroma": sorted(tones)})
    return {"schema": 1, "id": "ab", "key_fifths": rng.randint(-7, 7),
            "time_signature": [4, 4], "pickup": False, "n_bars": 2,
            "notes": notes, "chords": chords}


def normalize_case(tree: ModuleType, doc: dict) -> dict:
    sheet = tree.leadsheet.leadsheet_from_dict(doc)
    return {
        "normalized": tree.leadsheet.leadsheet_to_dict(tree.encode.normalize_sheet(sheet)),
        "pitch_in_range_fraction": tree.corpus.pitch_in_range_fraction([sheet]),
    }


def neural_case(tree: ModuleType, seed: int, directory: Path) -> list[tuple[str, np.ndarray]]:
    """Named arrays of one case; the checkpoint is written in ``directory``."""
    neural = tree.neural
    rng = np.random.default_rng(seed)
    steps, batch, din, hidden, nout = (int(rng.integers(1, 7)) for _ in range(5))
    layers = int(rng.integers(1, 4))
    inputs = rng.integers(0, 2, size=(steps, batch, din)).astype(np.uint8)
    targets = rng.integers(0, nout + 1, size=(steps, batch))
    mask = (rng.random((steps, batch)) < 0.8).astype(float)
    mask[0, 0] = 1.0
    dropout = 0.4 if seed % 2 else 0.0
    params = neural.init_params(din, hidden, nout + 1, n_layers=layers, seed=seed)
    result = neural.forward_sequence(params, inputs, targets, mask=mask, dropout=dropout,
                                     rng=np.random.default_rng(seed))
    out = [("loss", np.array(result.loss)), ("probs", result.probs.copy())]
    grads = neural.backward(params, result.cache)
    out += [(f"grad.{name}", grads[name]) for name in sorted(grads)]
    neural.adam_update(params, grads, neural.init_adam(params, learning_rate=0.01))
    out += [(f"adam.{name}", arr) for name, arr in params.named_arrays()]
    out += [(f"copy.{name}", arr) for name, arr in params.copy().named_arrays()]
    path = directory / "params.ckpt"
    neural.save_checkpoint(path, params)
    out.append(("checkpoint.bytes", np.frombuffer(path.read_bytes(), np.uint8)))
    return out + [(f"loaded.{name}", arr)
                  for name, arr in neural.load_checkpoint(path).named_arrays()]


def profiles_case(tree: ModuleType, seed: int) -> list[tuple[str, np.ndarray]]:
    """Named results of two ``kmeans`` fits and an elbow report on one clip
    set: rows drawn with repeats from a few distinct ones, as real clips are."""
    profiles, rng = tree.profiles, np.random.default_rng(seed)
    width = (profiles.BEAT_WIDTH, profiles.BAR_WIDTH)[seed % 2]
    rows = rng.integers(0, 2, size=(int(rng.integers(1, 13)), width))
    clips = rows[rng.integers(0, len(rows), size=int(rng.integers(1, 61)))].astype(np.float64)
    highest = min(len(np.unique(clips, axis=0)), 6)
    k, restarts = int(rng.integers(1, highest + 1)), int(rng.integers(1, 5))
    warm = clips[rng.integers(0, len(clips), size=k)]
    if seed % 3 == 0:
        warm[0] = 10.0  # a far start that empties its cluster
    out = []
    for name, start in (("kmeans", None), ("warm", warm)):
        fit = profiles.kmeans(clips, k, seed=seed, restarts=restarts, initial_centroids=start)
        out += [(f"{name}.centroids", np.frombuffer(fit.centroids.tobytes(), np.uint8)),
                (f"{name}.labels", fit.labels), (f"{name}.wcss", np.array(fit.wcss)),
                (f"{name}.iterations", np.array(fit.iterations))]
    elbow = profiles.elbow_report(clips, range(1, highest + 1), seed=seed, restarts=restarts)
    return out + [("elbow", np.array([[row["k"], row["wcss"]] for row in elbow]))]


def features_case(tree: ModuleType, seed: int) -> list[tuple[str, np.ndarray]]:
    """Named feature arrays of one variant and chord setting on 1-3 random
    pieces; ``seed`` modulo 6 picks the variant and whether chords are on."""
    specs_module, rng = tree.hrnn.specs, np.random.default_rng(seed)
    variant = specs_module.VARIANTS[seed % len(specs_module.VARIANTS)]
    chords = bool(seed // len(specs_module.VARIANTS) % 2)
    encode, grids, tracks = tree.encode, [], []
    for _ in range(int(rng.integers(1, 4))):
        pitches, events, sounding = rng.integers(0, encode.N_PITCHES, size=2), [], False
        for _ in range(16 * int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 3 if sounding else 2))
            events.append((int(rng.choice(pitches)), encode.NO_EVENT, encode.NOTE_OFF)[kind])
            sounding = kind == 0 or (sounding and kind == 1)
        grids.append(tree.encode.MelodyGrid(tuple(events)))
        kinds = sorted(tree.leadsheet.CHORD_KIND_INTERVALS)
        tracks.append(tuple(
            tree.leadsheet.chord_from_kind(int(rng.integers(0, len(events) + 8)),
                                           int(rng.integers(12)), kinds[rng.integers(len(kinds))])
            for _ in range(int(rng.integers(0, 5)))))
    codebooks = {}
    for kind, width in (("beat", tree.profiles.BEAT_WIDTH), ("bar", tree.profiles.BAR_WIDTH)):
        rows = np.unique(rng.integers(0, 2, size=(int(rng.integers(1, 6)), width)), axis=0)
        codebooks[kind] = tree.profiles.ProfileCodebook(kind, rows.astype(np.float64), seed=0,
                                                        iterations=0, wcss=0.0)
    specs = specs_module.layer_specs(variant, chords=chords, beat_k=codebooks["beat"].k,
                                     bar_k=codebooks["bar"].k)
    out = [(f"layer_specs.{level}", np.array(repr(spec.to_dict())))
           for level, spec in specs.items()]
    specs = specs_module.variant_specs(variant, chords=chords, codebooks=codebooks)
    out += [(f"variant_specs.{level}", np.array(repr(spec.to_dict())))
            for level, spec in specs.items()]
    for piece, (grid, track) in enumerate(zip(grids, tracks)):
        profiles = tree.profiles.profile_sequences(grid, codebooks)
        chroma = specs_module.chord_chroma_by_beat(track, grid.n_bars * 4)
        for level, spec in specs.items():
            length = len({**profiles, "note": grid.events}[level])
            conditions = specs_module.condition_block(
                spec, length, profiles=profiles, chroma_by_beat=chroma if spec.chroma else None)
            name = f"piece{piece}.{level}"
            out.append((f"{name}.conditions", np.zeros(0) if conditions is None else conditions))
            histories = rng.integers(0, spec.alphabet_size, size=(int(rng.integers(1, 4)), length))
            for position in rng.integers(0, length, size=4):
                out.append((f"{name}.row{position}", specs_module.layer_features(
                    spec, histories, int(position), int(position) + 1, conditions)))
    datasets = tree.hrnn.build_datasets(grids, variant, beat_codebook=codebooks["beat"],
                                        bar_codebook=codebooks["bar"], chord_tracks=tracks,
                                        chords=chords)
    for level, sequences in datasets.items():
        for piece, sequence in enumerate(sequences):
            out += [(f"datasets.{level}.{piece}.inputs", sequence.inputs),
                    (f"datasets.{level}.{piece}.targets", sequence.targets)]
    return out


def _arrays_equal(a: list, b: list) -> bool:
    return [name for name, _ in a] == [name for name, _ in b] and all(
        x.shape == y.shape and np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))


# The relative log-prob difference, |a - b| / max(|a|, |b|, 1), that decode
# accepts where both trees chose the same events. Summing a step's products
# in another order moves each logit by a few units in the last place; the
# bound leaves room for that to grow along a sequence.
DECODE_BOUND = 1e-11
DECODE_MODES = ("sample", "beam")


def _decode_model(tree: ModuleType, seed: int):
    """The rng, chord setting, specs and random parameters of one decode case:
    a small 3L model."""
    rng = np.random.default_rng(seed)
    chords = bool(seed % 2)
    specs = tree.hrnn.specs.layer_specs("3L", chords=chords, beat_k=int(rng.integers(2, 6)),
                                        bar_k=int(rng.integers(2, 5)))
    hidden, layers = int(rng.integers(2, 17)), int(rng.integers(1, 4))
    params = {}
    for offset, (level, spec) in enumerate(specs.items()):
        params[level] = tree.neural.init_params(spec.input_dim, hidden, spec.alphabet_size,
                                                n_layers=layers, seed=seed * 3 + offset)
        for name, arr in params[level].named_arrays():
            if "w_" in name:
                arr *= 10.0  # uniform in +-0.8: peaked distributions, saturating gates
    return rng, chords, specs, params


def _primers(tree: ModuleType, note: int) -> dict[str, tuple[int, ...]]:
    return {"bar": (0,), "beat": (0,), "note": (note, *(tree.encode.NO_EVENT,) * 3)}


def decode_case(tree: ModuleType, seed: int, mode: str) -> dict[str, tuple[list, list]]:
    """(events, log-probs) per level of one 3L ``generate`` call. A case seed
    of 1 or 2 modulo 3 fixes the bar or the beat level to a random pattern of
    1-3 profiles, tiled; a fixed level's log-probs are empty."""
    rng, chords, specs, params = _decode_model(tree, seed)
    generation = tree.hrnn.generation
    bars = int(rng.integers(1, 4))
    track = tuple(tree.leadsheet.chord_from_kind(4 * beat, int(rng.integers(12)), "major")
                  for beat in range(4 * bars)) if chords else ()
    beam_width = int(rng.integers(1, 6))
    primers = _primers(tree, int(rng.integers(tree.encode.N_PITCHES)))
    fixed = {}
    if seed % 3:
        level = ("bar", "beat")[seed % 3 - 1]
        pattern = rng.integers(0, specs[level].alphabet_size, size=int(rng.integers(1, 4)))
        fixed[level] = generation.tile_profiles(
            [int(v) for v in pattern], tree.hrnn.specs.HIERARCHY[level].positions(bars))
    plan = generation.GenerationPlan(bars=bars, mode=mode, beam_width=beam_width, seed=seed,
                                     chords=track, primers=primers, fixed_profiles=fixed)
    levels = generation.generate(params, specs, plan).trace["levels"]
    return {level: (view["fixed"], []) if "fixed" in view else (view["events"], view["log_probs"])
            for level, view in levels.items()}


def rejection_case(tree: ModuleType, seed: int) -> list[str]:
    """The ``ValueError`` text, or "accepted", of three bad one-bar requests on
    one decode case's model: a fixed bar or beat profile index equal to its
    codebook size, no note primer, and a primer symbol one past its level's
    alphabet (the bar, beat or note level in turn)."""
    _, _, specs, params = _decode_model(tree, seed)
    generation, hierarchy = tree.hrnn.generation, tree.hrnn.specs.HIERARCHY
    fixed_level = ("bar", "beat")[seed % 2]
    bad_level = ("bar", "beat", "note")[seed % 3]
    primers = _primers(tree, 0)
    bad_primer = (specs[bad_level].alphabet_size, *primers[bad_level][1:])
    requests = [
        {"primers": primers, "fixed_profiles": {
            fixed_level: (specs[fixed_level].alphabet_size,) * hierarchy[fixed_level].positions(1)}},
        {"primers": {"bar": (0,), "beat": (0,)}},
        {"primers": {**primers, bad_level: bad_primer}},
    ]
    texts = []
    for fields in requests:
        try:
            generation.generate(params, specs, generation.GenerationPlan(bars=1, seed=seed,
                                                                         **fields))
            texts.append("accepted")
        except ValueError as exc:
            texts.append(str(exc))
    return texts


@dataclass
class DecodeReport:
    sequences: int = 0
    equal_sequences: int = 0
    rejections: int = 0
    equal_rejections: int = 0
    worst_relative: float = 0.0
    differences: list[str] = field(default_factory=list)


def compare_decode(tree_a: ModuleType, tree_b: ModuleType, cases: int) -> DecodeReport:
    """Decode ``cases`` seeds in each mode with both trees. Log-probs are
    compared where the event sequences agree; a case differs when a sequence
    differs, a log-prob exceeds ``DECODE_BOUND`` or a bad request's error
    text differs."""
    report = DecodeReport()
    for case in range(cases):
        for index, (a, b) in enumerate(zip(rejection_case(tree_a, case),
                                           rejection_case(tree_b, case))):
            report.rejections += 1
            if a == b:
                report.equal_rejections += 1
            else:
                report.differences.append(f"case seed {case} bad request {index}: {a!r} / {b!r}")
        for mode in DECODE_MODES:
            a, b = decode_case(tree_a, case, mode), decode_case(tree_b, case, mode)
            for level, (events, logps) in a.items():
                report.sequences += 1
                other_events, other_logps = b[level]
                if events != other_events:
                    report.differences.append(f"case seed {case} {mode} {level}: events differ")
                    continue
                report.equal_sequences += 1
                worst = max((abs(x - y) / max(abs(x), abs(y), 1.0)
                             for x, y in zip(logps, other_logps) if x is not None), default=0.0)
                report.worst_relative = max(report.worst_relative, worst)
                if worst > DECODE_BOUND:
                    report.differences.append(
                        f"case seed {case} {mode} {level}: log-prob differs by {worst:.3g}")
    return report


# The shape of the ``time generate`` requests: the CLI's defaults.
TIME_BARS = 16
TIME_HIDDEN = 256
TIME_LAYERS = 2
TIME_BEAM_WIDTH = 5


def generate_requests(tree: ModuleType) -> dict[str, Callable[[], object]]:
    """The timed requests on one tree, by name: a sample and a beam request
    for ``TIME_BARS`` bars on a 3L model of ``init_params`` weights."""
    specs = tree.hrnn.specs.layer_specs("3L")
    params = {level: tree.neural.init_params(spec.input_dim, TIME_HIDDEN, spec.alphabet_size,
                                             n_layers=TIME_LAYERS, seed=offset)
              for offset, (level, spec) in enumerate(specs.items())}
    generation = tree.hrnn.generation
    requests = {}
    for name, fields in (("sample", {"mode": "sample"}),
                         (f"beam-{TIME_BEAM_WIDTH}", {"mode": "beam",
                                                     "beam_width": TIME_BEAM_WIDTH})):
        plan = generation.GenerationPlan(bars=TIME_BARS, primers=_primers(tree, 12), **fields)
        requests[name] = functools.partial(generation.generate, params, specs, plan)
    return requests


# The order of the two trees' turns within a round, and the calls per turn.
ROUND_ORDER = (0, 1, 1, 0)
TIME_CALLS_PER_TURN = 2


def time_rounds(calls: tuple[Callable[[], object], Callable[[], object]], rounds: int,
                per_turn: int, clock: Callable[[], float] = time.perf_counter
                ) -> tuple[list[float], list[float]]:
    """Each side's fastest call in each round; the sides take turns in
    ``ROUND_ORDER``, each turn making ``per_turn`` calls."""
    fastest: tuple[list[float], list[float]] = ([], [])
    for _ in range(rounds):
        best = [math.inf, math.inf]
        for side in ROUND_ORDER:
            for _ in range(per_turn):
                start = clock()
                calls[side]()
                best[side] = min(best[side], clock() - start)
        for side, seconds in enumerate(best):
            fastest[side].append(seconds)
    return fastest


# Resamples of the bootstrap interval of the median ratio, and their seed.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def median_interval(ratios: list[float]) -> tuple[float, float]:
    """The 95% percentile-bootstrap interval of the median of ``ratios``:
    ``BOOTSTRAP_RESAMPLES`` resamples with replacement, seeded, so that a
    summary line is reproducible."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    last = BOOTSTRAP_RESAMPLES - 1
    return medians[round(0.025 * last)], medians[round(0.975 * last)]


def time_summary(name: str, other: list[float], this: list[float]) -> str:
    """One line: each tree's median, the median ratio this/other with its
    bootstrap interval and the rounds each tree won (ties count for neither)."""
    ratios = [b / a for a, b in zip(other, this)]
    low, high = median_interval(ratios)
    return (f"{name}: median other {statistics.median(other) * 1e3:.1f} ms, "
            f"this {statistics.median(this) * 1e3:.1f} ms; median ratio this/other "
            f"{statistics.median(ratios):.3f} (95% interval [{low:.3f}, {high:.3f}]); "
            f"rounds won: other {sum(a < b for a, b in zip(other, this))}, "
            f"this {sum(b < a for a, b in zip(other, this))} of {len(other)}")


# The ``time train-step`` corpus, split 90/10 as ingest splits it, and model shapes.
TRAIN_STEP_PIECES = 80
TRAIN_STEP_VAL_PIECES = 8
TRAIN_STEP_BARS = 8
TRAIN_STEP_BATCH = 64
TRAIN_STEP_SHAPES = {"pipeline H=32 L=1": (32, 1), "cli H=256 L=2": (256, 2)}


def train_step_requests(tree: ModuleType) -> dict[str, Callable[[], object]]:
    """The timed requests on one tree, by name: one note-level ``train_layer``
    iteration and its evaluation per ``TRAIN_STEP_SHAPES`` shape, on a 3L
    chord model with codebooks of the default sizes."""
    sheets = tree.synthetic.synthetic_corpus(TRAIN_STEP_PIECES, seed=0, n_bars=TRAIN_STEP_BARS)
    grids = [tree.encode.grid_encode(tree.encode.normalize_sheet(sheet)) for sheet in sheets]
    profiles, hierarchy = tree.profiles, tree.hrnn.specs.HIERARCHY
    codebooks = {
        level: profiles.build_codebook(
            np.concatenate([profiles.cut_clips(profiles.binarize(grid), width) for grid in grids]),
            level, hierarchy[level].default_k)
        for level, width in profiles.PROFILE_WIDTHS.items()
    }
    notes = tree.hrnn.build_datasets(
        grids, "3L", beat_codebook=codebooks["beat"], bar_codebook=codebooks["bar"],
        chord_tracks=[sheet.chords for sheet in sheets], chords=True)["note"]
    train, val = notes[:-TRAIN_STEP_VAL_PIECES], notes[-TRAIN_STEP_VAL_PIECES:]
    spec = tree.hrnn.specs.variant_specs("3L", chords=True, codebooks=codebooks)["note"]
    requests = {}
    for name, (hidden, layers) in TRAIN_STEP_SHAPES.items():
        config = tree.neural.TrainConfig(max_iterations=1, eval_every=1,
                                         batch_size=TRAIN_STEP_BATCH, hidden_size=hidden,
                                         n_lstm_layers=layers)
        requests[name] = functools.partial(tree.hrnn.training.train_layer, spec, train, val,
                                           config)
    return requests


TIMED_STAGES = {"generate": generate_requests, "train-step": train_step_requests}


def time_stage(stage: str, other: ModuleType, this: ModuleType, rounds: int) -> list[str]:
    """The summary line of each request of ``stage``."""
    requests = TIMED_STAGES[stage]
    pairs = zip(requests(other).items(), requests(this).values())
    return [time_summary(name, *time_rounds((a, b), rounds, TIME_CALLS_PER_TURN))
            for (name, a), b in pairs]


def compare(check: str, tree_a: ModuleType, tree_b: ModuleType, cases: int) -> list[str]:
    """Run ``check`` on both trees' packages; the cases that differ."""
    differences = []
    if check == "normalize":
        rng = random.Random(0)
        for case in range(cases):
            doc = random_document(rng)
            if normalize_case(tree_a, doc) != normalize_case(tree_b, doc):
                differences.append(f"case {case}: {doc}")
    elif check == "neural":
        with tempfile.TemporaryDirectory() as directory:
            for case in range(cases):
                a, b = (neural_case(tree, case, Path(directory)) for tree in (tree_a, tree_b))
                if not _arrays_equal(a, b):
                    differences.append(f"case seed {case}")
    elif check == "decode":
        differences = compare_decode(tree_a, tree_b, cases).differences
    elif check == "profiles":
        differences = [f"case seed {case}" for case in range(cases)
                       if not _arrays_equal(profiles_case(tree_a, case),
                                            profiles_case(tree_b, case))]
    elif check == "features":
        differences = [f"case seed {case}" for case in range(cases)
                       if not _arrays_equal(features_case(tree_a, case),
                                            features_case(tree_b, case))]
    else:
        raise ValueError(f"unknown check {check!r}")
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="check", required=True)
    other_help = "the src directory of the other tree"
    for check in ("normalize", "neural", "decode", "profiles", "features"):
        compared = sub.add_parser(check)
        compared.add_argument("other", type=Path, help=other_help)
        compared.add_argument("--cases", type=int, default=1000)
    timed = sub.add_parser("time")
    timed.add_argument("stage", choices=tuple(TIMED_STAGES))
    timed.add_argument("other", type=Path, help=other_help)
    timed.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = import_tree(args.other), import_tree(THIS_SRC)
    if args.check == "time":
        before = os.getloadavg()
        lines = time_stage(args.stage, *trees, args.rounds)
        after = os.getloadavg()
        print(f"time {args.stage}: {args.rounds} rounds of turns other, this, this, other; "
              f"calls per turn: {TIME_CALLS_PER_TURN}")
        print("\n".join(lines))
        print("load average before {:.2f} {:.2f} {:.2f}, after {:.2f} {:.2f} {:.2f}".format(
            *before, *after))
        cores = os.cpu_count() or 1
        if before[0] >= cores / 2:
            print(f"warning: the 1-minute load average before the run, {before[0]:.2f}, is at "
                  f"least half of the {cores} cores: another job shares the box")
        return 0
    if args.check == "decode":
        report = compare_decode(*trees, args.cases)
        differences = report.differences
        print(f"decode: {report.equal_sequences} of {report.sequences} event sequences equal; "
              f"{report.equal_rejections} of {report.rejections} rejections equal; "
              f"largest relative log-prob difference {report.worst_relative:.3g} "
              f"(bound {DECODE_BOUND:g})")
    else:
        differences = compare(args.check, *trees, args.cases)
    print(f"{args.check}: {args.cases} cases, {len(differences)} differences")
    for line in differences[:10]:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
