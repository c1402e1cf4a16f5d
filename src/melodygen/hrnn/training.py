"""Per-layer training loop with periodic validation and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..neural import (
    GeneratorParams,
    TrainConfig,
    adam_update,
    backward,
    clip_global_norm,
    forward_sequence,
    init_adam,
    init_params,
)
from .datasets import TrainingSequence, pad_batch
from .evaluation import evaluate_layer
from .specs import HIERARCHY, LayerSpec

# Bound on the global L2 norm of each step's gradients.
CLIP_NORM = 5.0


class EarlyStopping:
    """Stop after ``patience`` consecutive validation-loss increases."""

    def __init__(self, patience: int):
        self.patience = patience
        self.previous: float | None = None
        self.consecutive_increases = 0

    def update(self, val_loss: float) -> bool:
        """Record one evaluation; True means stop now."""
        if self.previous is not None and val_loss > self.previous:
            self.consecutive_increases += 1
        else:
            self.consecutive_increases = 0
        self.previous = val_loss
        return self.consecutive_increases >= self.patience


@dataclass
class LayerTrainResult:
    params: GeneratorParams
    curves: list[dict]
    iterations_run: int
    best_iteration: int
    best_val_loss: float
    stop_reason: str
    final_train_loss: float


def train_layer(
    spec: LayerSpec,
    train_sequences: list[TrainingSequence],
    val_sequences: list[TrainingSequence] | None,
    config: TrainConfig,
    *,
    stop_at_accuracy: float | None = None,
) -> LayerTrainResult:
    """Optimize one generator layer.

    Minibatches are drawn with replacement from ``train_sequences`` using the
    config seed. Every ``eval_every`` iterations the layer is evaluated on
    ``val_sequences`` (when given): the best-validation parameters are
    retained and training stops early after ``patience`` consecutive
    validation-loss increases. The final iteration is evaluated as well. Without validation data the loop runs to
    ``max_iterations`` (or until ``stop_at_accuracy`` is reached on the
    training set, for deliberate overfitting runs).

    The steps between two evaluations share one workspace (see
    :func:`melodygen.neural.take_buffer`), sized for the longest training
    sequence, so that only the first of them allocates its buffers.
    """
    if not train_sequences:
        raise ValueError("no training sequences")
    rng = np.random.default_rng(config.seed)
    params = init_params(
        spec.input_dim,
        config.hidden_size,
        spec.alphabet_size,
        n_layers=config.n_lstm_layers,
        seed=config.seed,
    )
    adam = init_adam(params, learning_rate=config.learning_rate)

    stopper = EarlyStopping(config.patience)
    # The final iteration is always evaluated, so this is always replaced.
    best_params = params
    best_iteration = 0
    best_val_loss = float("inf")
    curves: list[dict] = []
    # Per-step loss and pre-clip gradient norm since the last curve row.
    recent_losses: list[float] = []
    recent_norms: list[float] = []
    stop_reason = "max-iterations"
    iteration = 0
    longest = max(len(s.targets) for s in train_sequences)
    # The steps' buffers, reused from step to step and dropped before each
    # evaluation, so that evaluating never runs beside them.
    workspace = None

    for iteration in range(1, config.max_iterations + 1):
        if workspace is None:
            workspace = {"max_steps": longest}
        picks = rng.integers(0, len(train_sequences), size=config.batch_size)
        batch = [train_sequences[j] for j in picks]
        inputs, targets, mask = pad_batch(batch, workspace=workspace)
        result = forward_sequence(
            params,
            inputs,
            targets,
            mask=mask,
            dropout=config.dropout,
            rng=rng,
            workspace=workspace,
        )
        grads = backward(params, result.cache)
        recent_losses.append(result.loss)
        # Views of the workspace: dropping them lets the release free it.
        del result, inputs, targets, mask
        recent_norms.append(clip_global_norm(grads, CLIP_NORM))
        adam_update(params, grads, adam)
        # Spent: the next step's backward then never runs beside them.
        del grads

        # The last iteration is evaluated even off the grid, so that the
        # returned weights are never ones no evaluation has scored.
        if iteration % config.eval_every == 0 or iteration == config.max_iterations:
            row = {
                "iteration": iteration,
                "train_loss": float(np.mean(recent_losses)),
                "grad_norm": float(np.mean(recent_norms)),
                # Steps whose gradients clip_global_norm scaled down.
                "clipped": sum(n > CLIP_NORM and n > 0.0 for n in recent_norms),
            }
            recent_losses = []
            recent_norms = []
            workspace = None
            eval_on = val_sequences if val_sequences else train_sequences
            metrics = evaluate_layer(params, eval_on, no_event_index=spec.no_event_index)
            prefix = "val" if val_sequences else "train_set"
            for key, value in metrics.items():
                row[f"{prefix}_{key}"] = value
            curves.append(row)

            if val_sequences:
                val_loss = metrics["loss"]
                if val_loss < best_val_loss:
                    best_val_loss = val_loss
                    best_params = params.copy()
                    best_iteration = iteration
                if stopper.update(val_loss):
                    stop_reason = "early-stopping"
                    break
            else:
                best_params = params
                best_iteration = iteration
                if (
                    stop_at_accuracy is not None
                    and metrics["combined_accuracy"] >= stop_at_accuracy
                ):
                    stop_reason = "target-accuracy"
                    break

    final_train_loss = curves[-1]["train_loss"] if curves else float("nan")
    return LayerTrainResult(
        params=best_params,
        curves=curves,
        iterations_run=iteration,
        best_iteration=best_iteration,
        best_val_loss=best_val_loss,
        stop_reason=stop_reason,
        final_train_loss=final_train_loss,
    )


def layer_config(base: TrainConfig, level: str) -> TrainConfig:
    """The per-level config: same settings, the level's own seed stream."""
    return replace(base, seed=base.seed + HIERARCHY[level].seed_offset)


def curves_to_csv(curves: list[dict]) -> str:
    """Render curve rows as CSV (stable column order)."""
    if not curves:
        return ""
    columns: list[str] = []
    for row in curves:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in curves:
        lines.append(",".join(_csv_cell(row.get(key)) for key in columns))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
