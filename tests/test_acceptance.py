"""Acceptance gates for the whole pipeline.

Eight end-to-end checks, each with an explicit tolerance and a wall-clock
budget. They are intentionally heavier than the unit tests: together they
certify encoding fidelity, gradient exactness, clustering quality, training
convergence, the value of rhythm-profile conditioning, profile adherence of
generated melodies, bit-level reproducibility, and the structural invariants
the rest of the system assumes.
"""

import json
import time

import numpy as np
import pytest

from melodygen.cli import main as cli_main
from melodygen.encode import (
    NO_EVENT,
    grid_decode,
    grid_encode,
    normalize_sheet,
)
from melodygen.hrnn.datasets import build_datasets
from melodygen.hrnn.evaluation import rhythm_match_fraction
from melodygen.hrnn.generation import GenerationPlan, generate
from melodygen.hrnn.specs import fan_out, layer_specs
from melodygen.hrnn.training import train_layer
from melodygen.leadsheet import dumps_leadsheet
from melodygen.neural import TrainConfig, grad_check, init_params, log_softmax
from melodygen.profiles import (
    binarize,
    build_codebook,
    cut_clips,
    kmeans,
    profile_sequences,
)
from melodygen.synthetic import synthetic_corpus
from support.kmeans_oracle import brute_force_wcss
from support.lloyd_history import traced_kmeans


class TestEncodingFidelity:
    """Decoding an encoded melody reproduces it exactly (200 pieces, <1 min)."""

    def test_round_trip_is_exact_on_200_melodies(self):
        start = time.monotonic()
        pieces = (
            synthetic_corpus(120, seed=100, n_bars=4, random_keys=True)
            + synthetic_corpus(
                50, seed=200, n_bars=8, rest_probability=0.4, random_keys=True
            )
            + synthetic_corpus(30, seed=300, n_bars=2, patterns_per_piece=6)
        )
        assert len(pieces) == 200
        for sheet in pieces:
            normalized = normalize_sheet(sheet)
            grid = grid_encode(normalized)
            decoded = grid_decode(grid)
            expected = sorted(
                (note.midi_pitch, int(note.onset * 4), int(note.duration * 4))
                for note in normalized.notes
            )
            assert sorted(decoded) == expected, sheet.id
            # and the grid itself survives a decode -> re-encode cycle
            assert grid_encode(normalized) == grid
        assert time.monotonic() - start < 60


class TestGradientCorrectness:
    """Analytic gradients match central differences to 1e-4 (<2 min)."""

    def test_all_three_layer_configurations(self):
        start = time.monotonic()
        rng = np.random.default_rng(12)
        steps, batch, din, nout = 12, 2, 30, 38
        for n_layers in (1, 2, 3):
            params = init_params(din, 16, nout, n_layers=n_layers, seed=n_layers)
            assert sum(arr.size for _, arr in params.named_arrays()) >= 200
            inputs = rng.normal(size=(steps, batch, din))
            targets = rng.integers(0, nout, size=(steps, batch))
            report = grad_check(
                params, inputs, targets, n_samples=200, seed=n_layers
            )
            assert report.n_checked >= 200
            assert report.max_rel_error < 1e-4, (n_layers, report)
        assert time.monotonic() - start < 120


class TestClusteringOptimality:
    """Restarted Lloyd's reaches the brute-force optimum on >=95/100 (<1 min)."""

    def test_against_exhaustive_enumeration(self):
        start = time.monotonic()
        hits = 0
        for index in range(100):
            rng = np.random.default_rng(9000 + index)
            n = int(rng.integers(2, 9))  # at most 8 binary points
            points = rng.integers(0, 2, size=(n, 4)).astype(float)
            distinct = len(np.unique(points, axis=0))
            k = min(int(rng.integers(1, 4)), distinct)
            fit = kmeans(points, k, seed=index)
            optimal = brute_force_wcss(points, k)
            # Lloyd's can never do better than the true optimum...
            assert fit.wcss >= optimal - 1e-9, (index, fit.wcss, optimal)
            # ...and with restarts it should reach it almost always.
            if fit.wcss <= optimal + 1e-9:
                hits += 1
        assert hits >= 95, f"only {hits}/100 instances reached the optimum"
        assert time.monotonic() - start < 60


@pytest.fixture(scope="module")
def overfit_model():
    """A profile-conditioned note layer overfit to four pieces."""
    start = time.monotonic()
    sheets = synthetic_corpus(4, seed=2024, n_bars=8)
    grids = [grid_encode(sheet) for sheet in sheets]
    binaries = [binarize(grid) for grid in grids]
    beat_clips = np.vstack([cut_clips(binary, 4) for binary in binaries])
    bar_clips = np.vstack([cut_clips(binary, 16) for binary in binaries])
    beat_k = min(8, len(np.unique(beat_clips, axis=0)))
    bar_k = min(6, len(np.unique(bar_clips, axis=0)))
    beat_cb = build_codebook(beat_clips, "beat", beat_k, seed=1)
    bar_cb = build_codebook(bar_clips, "bar", bar_k, seed=1)
    specs = layer_specs("3L", beat_k=beat_cb.k, bar_k=bar_cb.k)
    datasets = build_datasets(
        grids, "3L", beat_codebook=beat_cb, bar_codebook=bar_cb
    )
    config = TrainConfig(
        hidden_size=64,
        n_lstm_layers=1,
        learning_rate=0.003,
        dropout=0.0,
        batch_size=4,
        max_iterations=2000,
        eval_every=25,
        seed=7,
    )
    result = train_layer(
        specs["note"], datasets["note"], None, config, stop_at_accuracy=0.99
    )
    return {
        "result": result,
        "specs": specs,
        "grids": grids,
        "beat_codebook": beat_cb,
        "bar_codebook": bar_cb,
        "seconds": time.monotonic() - start,
    }


class TestOverfitConvergence:
    """64 hidden units memorize 4 pieces to >=99% in <=2000 iters (<5 min)."""

    def test_note_layer_reaches_99_percent(self, overfit_model):
        result = overfit_model["result"]
        assert result.stop_reason == "target-accuracy"
        assert result.iterations_run <= 2000
        assert result.curves[-1]["train_set_combined_accuracy"] >= 0.99
        assert overfit_model["seconds"] < 300


class TestProfileAdherenceOfGeneration:
    """Fixed source profiles reproduce the source rhythm on >=90% of steps."""

    def test_generated_rhythm_tracks_the_source(self, overfit_model):
        params = {"note": overfit_model["result"].params}
        specs = overfit_model["specs"]
        for index, source in enumerate(overfit_model["grids"]):
            profiles = profile_sequences(
                source,
                {"bar": overfit_model["bar_codebook"], "beat": overfit_model["beat_codebook"]},
            )
            plan = GenerationPlan(
                bars=source.n_bars,
                mode="sample",
                temperature=0.0,  # greedy: deterministic, most faithful
                seed=0,
                primers={"note": tuple(int(e) for e in source.events[:4])},
                fixed_profiles={
                    level: tuple(int(i) for i in indices) for level, indices in profiles.items()
                },
            )
            out = generate(params, specs, plan)
            match = rhythm_match_fraction(out.grid, source)
            assert match >= 0.90, (index, match)


class TestConditioningAdvantage:
    """Ground-truth profiles lift no-event accuracy to >=95% within 500
    iterations, beating the unconditioned layer by >=5 points (<30 min)."""

    def test_conditioned_vs_unconditioned_on_200_pieces(self):
        start = time.monotonic()
        sheets = synthetic_corpus(200, seed=31, n_bars=4)
        grids = [grid_encode(sheet) for sheet in sheets]
        binaries = [binarize(grid) for grid in grids]
        beat_clips = np.vstack([cut_clips(binary, 4) for binary in binaries])
        bar_clips = np.vstack([cut_clips(binary, 16) for binary in binaries])
        beat_cb = build_codebook(beat_clips, "beat", 8, seed=1)
        bar_cb = build_codebook(bar_clips, "bar", 16, seed=1)
        conditioned_data = build_datasets(
            grids, "3L", beat_codebook=beat_cb, bar_codebook=bar_cb
        )["note"]
        unconditioned_data = build_datasets(grids, "1L")["note"]

        def run(dataset, spec):
            config = TrainConfig(
                hidden_size=64,
                n_lstm_layers=1,
                learning_rate=0.003,
                dropout=0.0,
                batch_size=16,
                max_iterations=500,
                eval_every=100,
                seed=9,
            )
            result = train_layer(spec, dataset, None, config)
            return {
                row["iteration"]: row["train_set_no_event_accuracy"]
                for row in result.curves
            }

        conditioned = run(
            conditioned_data,
            layer_specs("3L", beat_k=beat_cb.k, bar_k=bar_cb.k)["note"],
        )
        unconditioned = run(unconditioned_data, layer_specs("1L")["note"])

        assert max(conditioned.values()) >= 0.95, conditioned
        gap = conditioned[500] - unconditioned[500]
        assert gap >= 0.05, (conditioned[500], unconditioned[500])
        assert time.monotonic() - start < 1800


class TestDeterminism:
    """Identical seeds give byte-identical bundles and MIDI files."""

    def test_two_full_runs_agree_byte_for_byte(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for sheet in synthetic_corpus(10, seed=77, n_bars=4):
            (corpus / f"{sheet.id}.json").write_text(dumps_leadsheet(sheet) + "\n")

        def run(work):
            assert cli_main([
                "ingest", "--corpus-dir", str(corpus), "--work-dir", str(work),
                "--seed", "5",
            ]) == 0
            assert cli_main([
                "profiles", "--work-dir", str(work),
                "--beat-k", "3", "--bar-k", "2", "--seed", "5",
            ]) == 0
            assert cli_main([
                "train", "--work-dir", str(work), "--variant", "3L",
                "--hidden-size", "8", "--lstm-layers", "1", "--batch-size", "4",
                "--max-iterations", "10", "--eval-every", "5",
                "--dropout", "0.0", "--seed", "5",
            ]) == 0
            assert cli_main([
                "generate", "--work-dir", str(work), "--variant", "3L",
                "--bars", "2", "--seed", "5",
            ]) == 0

        for name in ("one", "two"):
            run(tmp_path / name)

        compared = 0
        for left in sorted((tmp_path / "one").rglob("*")):
            if left.is_dir():
                continue
            right = tmp_path / "two" / left.relative_to(tmp_path / "one")
            assert right.exists(), right
            assert left.read_bytes() == right.read_bytes(), left.name
            compared += 1
        # bundle (manifest, 3 checkpoints, 2 codebooks, 3 curves), melody
        # (.mid + trace), corpus manifest and cached sheets all participate
        assert compared >= 15


class TestStructuralInvariants:
    """Exact properties the pipeline is built on (zero tolerance)."""

    def test_profile_fan_out(self):
        bars = fan_out(np.array([3]), 16)
        assert bars.shape == (16,) and set(bars) == {3}
        beats = fan_out(np.array([2]), 4)
        assert beats.shape == (4,) and set(beats) == {2}
        two = fan_out(np.array([1, 0]), 16)
        assert two.shape == (32,)
        assert set(two[:16]) == {1} and set(two[16:]) == {0}

    def test_beam_width_one_equals_greedy(self):
        specs = layer_specs("3L", beat_k=4, bar_k=3)
        params = {
            level: init_params(spec.input_dim, 12, spec.alphabet_size,
                               n_layers=1, seed=40 + i)
            for i, (level, spec) in enumerate(sorted(specs.items()))
        }
        common = dict(
            bars=2,
            seed=3,
            primers={"bar": (0,), "beat": (0,), "note": (0, NO_EVENT, NO_EVENT, NO_EVENT)},
        )
        greedy = generate(
            params, specs, GenerationPlan(mode="sample", temperature=0.0, **common)
        )
        beam = generate(
            params, specs, GenerationPlan(mode="beam", beam_width=1, **common)
        )
        assert beam.grid.events == greedy.grid.events
        assert beam.profiles.keys() == greedy.profiles.keys() == {"bar", "beat"}
        for level, indices in greedy.profiles.items():
            assert np.array_equal(beam.profiles[level], indices)

    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=40.0, size=(64, 38))
        probs = np.exp(log_softmax(logits))
        assert (probs > 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_lloyd_objective_never_increases(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            points = rng.integers(0, 2, size=(20, 4)).astype(float)
            k = min(3, len(np.unique(points, axis=0)))
            # Every start, the one kmeans keeps among them.
            for history in traced_kmeans(points, k, seed=seed).histories:
                assert all(
                    later <= earlier for earlier, later in zip(history, history[1:])
                ), history
