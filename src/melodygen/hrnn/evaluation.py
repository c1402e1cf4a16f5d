"""Teacher-forcing metrics and rhythm-adherence measures."""

from __future__ import annotations

import numpy as np

from ..encode import NO_EVENT, MelodyGrid
from ..neural import GeneratorParams, forward_sequence
from ..profiles import ProfileCodebook, binarize, profile_sequences
from .datasets import TrainingSequence, pad_batch

# Sequences per forward pass of an evaluation.
EVAL_BATCH = 64


def classification_metrics(
    predictions: np.ndarray,
    targets: np.ndarray,
    no_event_index: int | None = None,
) -> dict[str, float]:
    """Accuracy metrics over a flat prediction/target pair.

    ``combined_accuracy`` scores every step. With ``no_event_index`` set,
    ``event_accuracy`` scores only steps whose target is an actual event
    (note-on or note-off), and ``no_event_accuracy`` scores the binary
    decision event-vs-silence at every step.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError("predictions and targets must be equal-length, non-empty")
    out = {"combined_accuracy": float((predictions == targets).mean())}
    if no_event_index is not None:
        is_event = targets != no_event_index
        out["no_event_accuracy"] = float(
            ((predictions == no_event_index) == ~is_event).mean()
        )
        out["event_accuracy"] = (
            float((predictions[is_event] == targets[is_event]).mean())
            if is_event.any()
            else 0.0
        )
    return out


def evaluate_layer(
    params: GeneratorParams,
    sequences: list[TrainingSequence],
    *,
    no_event_index: int | None = None,
    workspace: dict | None = None,
) -> dict[str, float]:
    """Loss and accuracies of one layer over a sequence list (no dropout).

    It runs in chunks of ``EVAL_BATCH`` sequences; the loss is weighted by
    steps, not by sequences or chunks. With a ``workspace`` the chunks take
    their buffers from it (see :func:`melodygen.neural.take_buffer`).
    """
    if not sequences:
        raise ValueError("nothing to evaluate")
    total_nll = 0.0
    total_steps = 0
    predictions: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for start in range(0, len(sequences), EVAL_BATCH):
        chunk = sequences[start : start + EVAL_BATCH]
        inputs, batch_targets, mask = pad_batch(chunk, workspace=workspace)
        result = forward_sequence(
            params, inputs, batch_targets, mask=mask, collect_cache=False, workspace=workspace
        )
        total_nll += result.loss * result.n_valid
        total_steps += result.n_valid
        valid = mask > 0
        predictions.append(result.probs.argmax(axis=2)[valid])
        targets.append(batch_targets[valid])
    metrics = classification_metrics(
        np.concatenate(predictions),
        np.concatenate(targets),
        no_event_index=no_event_index,
    )
    metrics["loss"] = total_nll / total_steps
    return metrics


def rhythm_match_fraction(grid_a: MelodyGrid, grid_b: MelodyGrid) -> float:
    """Fraction of steps where the two grids' binarizations agree."""
    a = binarize(grid_a)
    b = binarize(grid_b)
    if len(a) != len(b):
        raise ValueError(f"grid lengths differ: {len(a)} vs {len(b)}")
    return float((a == b).mean())


def profile_adherence(
    grid: MelodyGrid,
    intended: np.ndarray,
    codebook: ProfileCodebook,
) -> float:
    """Fraction of clips whose re-assigned profile matches the intended one.

    Measures how closely a generated melody followed the profile sequence it
    was conditioned on: the melody's own profile sequence under the codebook
    (:func:`profiles.profile_sequences`), compared position by position.
    """
    assigned = profile_sequences(grid, {codebook.kind: codebook})[codebook.kind]
    intended = np.asarray(intended, dtype=np.int64)
    if len(assigned) != len(intended):
        raise ValueError(
            f"melody has {len(assigned)} clips but {len(intended)} intended profiles"
        )
    return float((assigned == intended).mean())
