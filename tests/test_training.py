"""Per-layer training loop: stopping rules, curves, determinism."""

import tracemalloc
import weakref

import numpy as np
import pytest

from melodygen.encode import grid_encode
from melodygen.hrnn import training
from melodygen.hrnn.datasets import TrainingSequence, build_datasets
from melodygen.hrnn.specs import HIERARCHY, layer_specs
from melodygen.hrnn.training import (
    EarlyStopping,
    curves_to_csv,
    layer_config,
    train_layer,
)
from melodygen.neural import GEMM_ROWS, TrainConfig, init_params
from melodygen.synthetic import synthetic_corpus


def note_dataset(n_pieces=4, seed=21, n_bars=2):
    sheets = synthetic_corpus(n_pieces, seed=seed, n_bars=n_bars)
    grids = [grid_encode(sheet) for sheet in sheets]
    return build_datasets(grids, "1L")["note"]


def tiny_config(**overrides):
    base = dict(
        hidden_size=24,
        n_lstm_layers=1,
        learning_rate=0.01,
        dropout=0.0,
        batch_size=4,
        max_iterations=60,
        eval_every=10,
        patience=2,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestEarlyStopping:
    def test_stops_after_consecutive_increases(self):
        stopper = EarlyStopping(patience=2)
        assert stopper.update(1.0) is False
        assert stopper.update(1.1) is False  # first increase
        assert stopper.update(1.2) is True  # second consecutive increase

    def test_improvement_resets_the_streak(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        assert stopper.update(1.1) is False
        assert stopper.update(0.9) is False  # reset
        assert stopper.update(1.0) is False
        assert stopper.update(1.1) is True

    def test_equal_loss_is_not_an_increase(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(1.0)
        assert stopper.update(1.0) is False
        assert stopper.update(1.0000001) is True


class TestTrainLayer:
    def test_loss_decreases_on_small_problem(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        result = train_layer(spec, sequences, None, tiny_config())
        losses = [row["train_loss"] for row in result.curves]
        assert losses[-1] < losses[0]
        assert result.stop_reason == "max-iterations"
        assert result.iterations_run == 60

    def test_curve_rows_land_on_eval_grid(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        result = train_layer(spec, sequences, None, tiny_config())
        assert [row["iteration"] for row in result.curves] == [10, 20, 30, 40, 50, 60]
        row = result.curves[0]
        assert "train_set_combined_accuracy" in row
        assert "train_set_no_event_accuracy" in row  # note level tracks it
        assert "train_set_loss" in row

    def test_validation_rows_use_val_prefix(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        result = train_layer(
            spec, sequences[:3], sequences[3:], tiny_config(max_iterations=20)
        )
        assert "val_loss" in result.curves[0]
        assert "val_combined_accuracy" in result.curves[0]

    def test_stop_at_accuracy_halts_early(self):
        sequences = note_dataset(n_pieces=1)
        spec = layer_specs("1L")["note"]
        result = train_layer(
            spec,
            sequences,
            None,
            tiny_config(hidden_size=48, max_iterations=2000, eval_every=25),
            stop_at_accuracy=0.99,
        )
        assert result.stop_reason == "target-accuracy"
        assert result.iterations_run < 2000
        assert result.curves[-1]["train_set_combined_accuracy"] >= 0.99

    def test_final_iteration_is_evaluated_off_the_grid(self):
        # Fewer iterations than eval_every must still return trained,
        # scored weights, not the initialization.
        sequences = note_dataset(n_pieces=6)
        spec = layer_specs("1L")["note"]
        config = tiny_config(max_iterations=10, eval_every=20)
        result = train_layer(spec, sequences[:5], sequences[5:], config)
        assert [row["iteration"] for row in result.curves] == [10]
        assert result.best_iteration == 10
        assert np.isfinite(result.best_val_loss)
        assert result.best_val_loss == result.curves[0]["val_loss"]
        initial = init_params(
            spec.input_dim, config.hidden_size, spec.alphabet_size,
            n_layers=config.n_lstm_layers, seed=config.seed,
        )
        assert not np.array_equal(result.params.layers[0].w_x, initial.layers[0].w_x)

    def test_steps_after_the_last_grid_point_are_scored(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        result = train_layer(spec, sequences, None, tiny_config(max_iterations=25))
        assert [row["iteration"] for row in result.curves] == [10, 20, 25]
        assert result.best_iteration == 25

    def test_best_validation_params_are_kept(self):
        sequences = note_dataset(n_pieces=6)
        spec = layer_specs("1L")["note"]
        result = train_layer(
            spec, sequences[:5], sequences[5:], tiny_config(max_iterations=40)
        )
        val_losses = [row["val_loss"] for row in result.curves]
        best_row = int(np.argmin(val_losses))
        assert result.best_iteration == result.curves[best_row]["iteration"]
        assert result.best_val_loss == pytest.approx(min(val_losses))

    def test_early_stopping_reason_reported(self):
        # Train on one piece, validate on a very different one: validation
        # loss rises once the layer overfits, tripping the patience rule.
        sequences = note_dataset(n_pieces=6, seed=77)
        spec = layer_specs("1L")["note"]
        result = train_layer(
            spec,
            sequences[:1],
            sequences[1:],
            tiny_config(
                hidden_size=48,
                learning_rate=0.02,
                max_iterations=4000,
                eval_every=10,
                patience=2,
            ),
        )
        assert result.stop_reason == "early-stopping"
        assert result.iterations_run < 4000

    def test_deterministic_given_seed(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        a = train_layer(spec, sequences, None, tiny_config(max_iterations=30))
        b = train_layer(spec, sequences, None, tiny_config(max_iterations=30))
        assert a.curves == b.curves
        for (name, arr_a), (_, arr_b) in zip(
            a.params.named_arrays(), b.params.named_arrays()
        ):
            assert np.array_equal(arr_a, arr_b), name

    def test_seed_changes_the_run(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        a = train_layer(spec, sequences, None, tiny_config(max_iterations=20, seed=1))
        b = train_layer(spec, sequences, None, tiny_config(max_iterations=20, seed=2))
        assert a.curves != b.curves

    def test_empty_training_set_rejected(self):
        spec = layer_specs("1L")["note"]
        with pytest.raises(ValueError, match="no training sequences"):
            train_layer(spec, [], None, tiny_config())

    def test_dropout_still_trains(self):
        sequences = note_dataset()
        spec = layer_specs("1L")["note"]
        result = train_layer(
            spec, sequences, None, tiny_config(dropout=0.3, max_iterations=30)
        )
        losses = [row["train_loss"] for row in result.curves]
        assert np.isfinite(losses).all()


class TestGradientColumns:
    """Each curve row carries the pre-clip gradient norms since the last row."""

    def run(self, monkeypatch, clip_norm):
        norms = []
        original = training.clip_global_norm

        def recording_clip(grads, max_norm):
            norm = original(grads, max_norm)
            norms.append(norm)
            return norm

        monkeypatch.setattr(training, "clip_global_norm", recording_clip)
        monkeypatch.setattr(training, "CLIP_NORM", clip_norm)
        result = train_layer(
            layer_specs("1L")["note"], note_dataset(), None, tiny_config(max_iterations=25)
        )
        return result, norms

    @pytest.mark.parametrize("clip_norm", [1e-3, 1.0, 1e9])
    def test_mean_norm_and_clipped_count_per_row(self, monkeypatch, clip_norm):
        result, norms = self.run(monkeypatch, clip_norm)
        windows = [norms[0:10], norms[10:20], norms[20:25]]
        assert [row["grad_norm"] for row in result.curves] == [float(np.mean(w)) for w in windows]
        assert [row["clipped"] for row in result.curves] == [
            sum(n > clip_norm for n in w) for w in windows
        ]

    def test_every_step_clips_under_a_tiny_bound_and_none_under_a_huge_one(
        self, monkeypatch
    ):
        tiny, _ = self.run(monkeypatch, 1e-3)
        huge, _ = self.run(monkeypatch, 1e9)
        assert [row["clipped"] for row in tiny.curves] == [10, 10, 5]
        assert [row["clipped"] for row in huge.curves] == [0, 0, 0]
        assert all(row["grad_norm"] > 0.0 for row in huge.curves)


class TestForwardCacheLifetime:
    """A step's forward cache is freed before train_layer evaluates."""

    def test_no_cache_is_alive_during_evaluation(self, monkeypatch):
        original_forward = training.forward_sequence
        gates: list[weakref.ref] = []

        def recording_forward(*args, **kwargs):
            result = original_forward(*args, **kwargs)
            gates.append(weakref.ref(result.cache["gates"]))
            return result

        monkeypatch.setattr(training, "forward_sequence", recording_forward)

        original_evaluate = training.evaluate_layer
        alive_at_evaluation = []

        def checking_evaluate(*args, **kwargs):
            alive_at_evaluation.append(sum(ref() is not None for ref in gates))
            return original_evaluate(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_layer", checking_evaluate)
        sequences = note_dataset(n_pieces=6)
        train_layer(
            layer_specs("1L")["note"], sequences[:5], sequences[5:],
            tiny_config(max_iterations=25, patience=5),
        )
        assert len(gates) == 25
        assert alive_at_evaluation == [0, 0, 0]


class TestGradientLifetime:
    """A step's gradients are freed once Adam has applied them."""

    def test_no_spent_gradient_is_alive_when_the_next_backward_starts(self, monkeypatch):
        original_backward = training.backward
        spent: list[weakref.ref] = []
        alive_at_backward = []

        def recording_backward(*args, **kwargs):
            alive_at_backward.append(sum(ref() is not None for ref in spent))
            grads = original_backward(*args, **kwargs)
            spent[:] = [weakref.ref(array) for array in grads.values()]
            return grads

        monkeypatch.setattr(training, "backward", recording_backward)
        train_layer(
            layer_specs("1L")["note"], note_dataset(), None,
            tiny_config(n_lstm_layers=2, max_iterations=6, eval_every=3),
        )
        assert alive_at_backward == [0] * 6
        assert len(spent) > 0 and all(ref() is None for ref in spent)


class TestStepAllocations:
    """Steps after the first, up to the next evaluation, reuse the first one's buffers."""

    def test_later_steps_allocate_at_most_a_row_block(self, monkeypatch):
        spec = layer_specs("1L")["note"]
        rng = np.random.default_rng(0)

        def piece(n):
            inputs = (rng.random((n, spec.input_dim)) < 0.1).astype(np.uint8)
            return TrainingSequence(inputs, rng.integers(0, spec.alphabet_size, size=n))

        # Mostly short pieces: the first batch is shorter than a later one.
        sequences = [piece(32) for _ in range(60)] + [piece(128)]
        config = tiny_config(batch_size=32, n_lstm_layers=2, dropout=0.5,
                             max_iterations=15, eval_every=5)
        steps, growth = [], []
        original_pad, original_adam = training.pad_batch, training.adam_update

        def pad_batch(*args, **kwargs):
            growth.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            padded = original_pad(*args, **kwargs)
            steps.append(len(padded[0]))
            return padded

        def adam_update(*args, **kwargs):
            updated = original_adam(*args, **kwargs)
            growth[-1] = tracemalloc.get_traced_memory()[1] - growth[-1]
            return updated

        monkeypatch.setattr(training, "pad_batch", pad_batch)
        monkeypatch.setattr(training, "adam_update", adam_update)
        tracemalloc.start()
        try:
            train_layer(spec, sequences, sequences[:4], config)
        finally:
            tracemalloc.stop()

        # One row block of the widest step array. At this shape the step's
        # gradients and Adam's temporaries fit in it; a full-sequence
        # (T, B, H) array on top of them would not.
        row_block = GEMM_ROWS * max(spec.input_dim, 4 * config.hidden_size,
                                    spec.alphabet_size) * 8
        first = [0, 5, 10]  # each first step after an evaluation allocates anew
        assert steps[0] < max(steps[1:5]) == 128
        assert all(growth[i] > 4 * row_block for i in first)
        later = [g for i, g in enumerate(growth) if i not in first]
        assert max(later) <= row_block, later


class TestLayerConfig:
    def test_per_level_seed_offsets(self):
        base = tiny_config(seed=1000)
        assert layer_config(base, "bar").seed == 1000 + HIERARCHY["bar"].seed_offset
        assert layer_config(base, "beat").seed == 1000 + HIERARCHY["beat"].seed_offset
        assert layer_config(base, "note").seed == 1000 + HIERARCHY["note"].seed_offset

    def test_base_config_is_not_mutated(self):
        base = tiny_config(seed=5)
        layer_config(base, "note")
        assert base.seed == 5

    def test_offsets_are_distinct(self):
        assert len({level.seed_offset for level in HIERARCHY.values()}) == 3


class TestCurvesCsv:
    def test_stable_columns_and_values(self):
        curves = [
            {"iteration": 10, "train_loss": 1.5},
            {"iteration": 20, "train_loss": 1.25, "val_loss": 2.0},
        ]
        text = curves_to_csv(curves)
        lines = text.splitlines()
        assert lines[0] == "iteration,train_loss,val_loss"
        assert lines[1] == "10,1.5,"
        assert lines[2] == "20,1.25,2.0"
        assert text.endswith("\n")

    def test_float_cells_round_trip(self):
        value = 0.1 + 0.2  # not exactly representable in short decimal
        text = curves_to_csv([{"x": value}])
        assert float(text.splitlines()[1]) == value

    def test_empty_curves(self):
        assert curves_to_csv([]) == ""
