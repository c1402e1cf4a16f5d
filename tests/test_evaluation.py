"""Teacher-forcing metrics and rhythm-adherence measures."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodygen.encode import NO_EVENT, MelodyGrid, grid_encode
from melodygen.hrnn import evaluation
from melodygen.hrnn.datasets import TrainingSequence, build_datasets, pad_batch
from melodygen.hrnn.evaluation import (
    EVAL_BATCH,
    classification_metrics,
    evaluate_layer,
    profile_adherence,
    rhythm_match_fraction,
)
from melodygen.neural import backward, forward_sequence, init_params
from melodygen.profiles import binarize, build_codebook, cut_clips
from melodygen.synthetic import synthetic_corpus


class TestClassificationMetrics:
    def test_combined_accuracy_counts_every_step(self):
        out = classification_metrics(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 0]))
        assert out == {"combined_accuracy": 0.5}

    def test_no_event_accuracy_is_the_binary_decision(self):
        # targets: event, silence, event, silence
        targets = np.array([3, NO_EVENT, 5, NO_EVENT])
        # predictions: event (wrong pitch), silence, silence, event
        predictions = np.array([4, NO_EVENT, NO_EVENT, 9])
        out = classification_metrics(predictions, targets, no_event_index=NO_EVENT)
        # binary view: correct, correct, wrong, wrong
        assert out["no_event_accuracy"] == 0.5
        # event steps are positions 0 and 2: predicted 4 vs 3, 37 vs 5
        assert out["event_accuracy"] == 0.0
        assert out["combined_accuracy"] == 0.25

    def test_wrong_pitch_still_counts_for_no_event_accuracy(self):
        targets = np.array([3, 3])
        predictions = np.array([4, 3])
        out = classification_metrics(predictions, targets, no_event_index=NO_EVENT)
        assert out["no_event_accuracy"] == 1.0
        assert out["event_accuracy"] == 0.5

    def test_perfect_predictions(self):
        targets = np.array([1, NO_EVENT, 2])
        out = classification_metrics(targets.copy(), targets, no_event_index=NO_EVENT)
        assert out["combined_accuracy"] == 1.0
        assert out["no_event_accuracy"] == 1.0
        assert out["event_accuracy"] == 1.0

    def test_all_silence_targets_give_zero_event_accuracy(self):
        targets = np.full(4, NO_EVENT)
        out = classification_metrics(targets.copy(), targets, no_event_index=NO_EVENT)
        assert out["event_accuracy"] == 0.0
        assert out["no_event_accuracy"] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(np.array([1, 2]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(np.array([]), np.array([]))


def small_sequences(n_pieces=3, n_bars=2, seed=31):
    sheets = synthetic_corpus(n_pieces, seed=seed, n_bars=n_bars)
    grids = [grid_encode(sheet) for sheet in sheets]
    return build_datasets(grids, "1L")["note"]


class TestEvaluateLayer:
    def test_metrics_keys_and_ranges(self):
        sequences = small_sequences()
        params = init_params(120, 12, 38, n_layers=1, seed=0)
        out = evaluate_layer(params, sequences, no_event_index=NO_EVENT)
        assert set(out) == {
            "combined_accuracy",
            "no_event_accuracy",
            "event_accuracy",
            "loss",
        }
        for key in ("combined_accuracy", "no_event_accuracy", "event_accuracy"):
            assert 0.0 <= out[key] <= 1.0
        assert out["loss"] > 0

    def test_without_no_event_index(self):
        sequences = small_sequences()
        params = init_params(120, 12, 38, n_layers=1, seed=0)
        out = evaluate_layer(params, sequences)
        assert set(out) == {"combined_accuracy", "loss"}

    def test_loss_weights_steps_not_sequences(self):
        # Evaluating in chunks must give the step-weighted results of one
        # whole batch, with unequal sequence lengths in the mix. Padded steps
        # have target 0, here the no-event index, so counting them would move
        # no_event_accuracy.
        rng = np.random.default_rng(4)
        params = init_params(6, 8, 5, n_layers=1, seed=1)
        seqs = [
            TrainingSequence((rng.random((n, 6)) < 0.5).astype(np.float64),
                             rng.integers(0, 5, size=n))
            for n in rng.integers(1, 12, size=EVAL_BATCH + 6)
        ]
        split = evaluate_layer(params, seqs, no_event_index=0)
        inputs, targets, mask = pad_batch(seqs)
        whole = forward_sequence(params, inputs, targets, mask=mask, collect_cache=False)
        predicted = whole.probs.argmax(axis=2)
        events = (targets != 0) * mask
        assert split["loss"] == pytest.approx(whole.loss, rel=1e-12)
        assert split["combined_accuracy"] == ((predicted == targets) * mask).sum() / mask.sum()
        assert split["no_event_accuracy"] == (
            ((predicted == 0) == (targets == 0)) * mask).sum() / mask.sum()
        assert split["event_accuracy"] == ((predicted == targets) * events).sum() / events.sum()

    def test_empty_rejected(self):
        params = init_params(6, 8, 5, n_layers=1, seed=1)
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate_layer(params, [])


class TestBorrowedWorkspace:
    """An evaluation through the workspace of training steps gives the metrics
    of a fresh one, also where it must grow the steps' buffers."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layers=st.integers(1, 3),
        batch=st.integers(1, 3),
        train_lengths=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        extra_steps=st.integers(1, 5),
        extra_pieces=st.integers(0, 4),
        eval_batch=st.sampled_from([4, EVAL_BATCH]),
    )
    def test_borrowed_buffers_give_fresh_metrics(
        self, seed, layers, batch, train_lengths, extra_steps, extra_pieces, eval_batch
    ):
        rng = np.random.default_rng(seed)
        din, nout = 6, 5
        params = init_params(din, 4, nout, n_layers=layers, seed=seed % 7)

        def piece(n):
            inputs = (rng.random((n, din)) < 0.3).astype(np.uint8)
            return TrainingSequence(inputs, rng.integers(0, nout, size=n))

        train = [piece(n) for n in train_lengths]
        longest = max(train_lengths)
        # One piece longer than every training piece, and more pieces than a
        # training batch holds: every chunk is wider than the batch.
        val = [piece(longest + extra_steps)]
        val += [piece(int(n)) for n in rng.integers(1, longest + extra_steps + 1,
                                                     size=batch + extra_pieces)]
        workspace = {"max_steps": longest}
        for _ in range(2):
            picks = rng.integers(0, len(train), size=batch)
            inputs, targets, mask = pad_batch([train[j] for j in picks], workspace=workspace)
            result = forward_sequence(params, inputs, targets, mask=mask, dropout=0.5,
                                      rng=rng, workspace=workspace)
            backward(params, result.cache)
        sizes = {name: workspace[name].size for name in ("inputs", "probs")}
        with mock.patch.object(evaluation, "EVAL_BATCH", eval_batch):
            borrowed = evaluate_layer(params, val, no_event_index=0, workspace=workspace)
            fresh = evaluate_layer(params, val, no_event_index=0)
        assert borrowed == fresh
        assert all(workspace[name].size > size for name, size in sizes.items())


class TestRhythmMatch:
    def test_identical_grids_match_fully(self):
        grid = grid_encode(synthetic_corpus(1, seed=8, n_bars=2)[0])
        assert rhythm_match_fraction(grid, grid) == 1.0

    def test_counts_binarization_agreement(self):
        a = MelodyGrid((10, NO_EVENT, 12, NO_EVENT) * 4)
        b = MelodyGrid((9, NO_EVENT, NO_EVENT, 11) * 4)
        # onsets: a = steps 0,2 per beat; b = steps 0,3 per beat
        assert rhythm_match_fraction(a, b) == 0.5

    def test_length_mismatch_rejected(self):
        a = MelodyGrid((10,) + (NO_EVENT,) * 15)
        b = MelodyGrid((10,) + (NO_EVENT,) * 31)
        with pytest.raises(ValueError, match="lengths differ"):
            rhythm_match_fraction(a, b)


class TestProfileAdherence:
    def build(self):
        sheets = synthetic_corpus(6, seed=13, n_bars=4)
        grids = [grid_encode(sheet) for sheet in sheets]
        clips = np.vstack([cut_clips(binarize(grid), 4) for grid in grids])
        return grids, build_codebook(clips, "beat", 4, seed=2)

    def test_own_profiles_adhere_perfectly(self):
        grids, codebook = self.build()
        grid = grids[0]
        own = np.asarray(
            [int(i) for i in codebook_assignments(grid, codebook)], dtype=np.int64
        )
        assert profile_adherence(grid, own, codebook) == 1.0

    def test_fraction_counts_matching_clips(self):
        grids, codebook = self.build()
        grid = grids[0]
        own = codebook_assignments(grid, codebook)
        flipped = own.copy()
        flipped[0] = (flipped[0] + 1) % codebook.k
        # guard: the flipped profile must really be a different assignment
        assert flipped[0] != own[0]
        measured = profile_adherence(grid, flipped, codebook)
        assert measured == pytest.approx(1.0 - 1.0 / len(own))

    def test_length_mismatch_rejected(self):
        grids, codebook = self.build()
        with pytest.raises(ValueError, match="intended profiles"):
            profile_adherence(grids[0], np.array([0, 1]), codebook)


def codebook_assignments(grid, codebook):
    from melodygen.profiles import assign_many

    return assign_many(cut_clips(binarize(grid), codebook.width), codebook)
