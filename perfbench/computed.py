"""Work computed from array shapes, and the GEMM-only floor of the forward pass.

The FLOP figures are computed, not measured: they count the matrix products
of one training step at the shapes the train workload uses. The forward-cache
size is read off the arrays ``forward_sequence`` keeps for ``backward``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from melodygen import neural


@dataclass(frozen=True)
class StepShape:
    """One level's training batch: steps, batch, input dim, hidden, layers, alphabet."""

    steps: int
    batch: int
    input_dim: int
    hidden: int
    layers: int
    outputs: int


def forward_gemm_flops(shape: StepShape) -> float:
    """FLOPs of the forward pass's matrix products (2 per multiply-add)."""
    per_step = 0.0
    for layer in range(shape.layers):
        below = shape.input_dim if layer == 0 else shape.hidden
        per_step += 2.0 * shape.batch * (below + shape.hidden) * 4 * shape.hidden
    per_step += 2.0 * shape.batch * shape.hidden * shape.outputs
    return shape.steps * per_step


def train_step_gflop(shape: StepShape) -> float:
    """Forward plus backward GEMM work of one step; backward does twice the forward's."""
    return 3.0 * forward_gemm_flops(shape) / 1e9


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def forward_floor(shape: StepShape, dropout: float, repeats: int = 3, seed: int = 0) -> dict:
    """Median time of one training forward and of its matrix products alone.

    Also the MiB of the arrays that forward keeps for ``backward``.
    """
    rng = np.random.default_rng(seed)
    params = neural.init_params(
        shape.input_dim, shape.hidden, shape.outputs, n_layers=shape.layers, seed=seed
    )
    inputs = (rng.random((shape.steps, shape.batch, shape.input_dim)) < 0.1).astype(np.float64)
    targets = rng.integers(0, shape.outputs, size=(shape.steps, shape.batch))
    state = rng.uniform(-1, 1, size=(shape.layers, shape.batch, shape.hidden))

    def full():
        return neural.forward_sequence(params, inputs, targets, dropout=dropout, rng=rng)

    def gemms_only():
        for t in range(shape.steps):
            below = inputs[t]
            for index, layer in enumerate(params.layers):
                below @ layer.w_x
                state[index] @ layer.w_m
                below = state[index]
            below @ params.w_out

    cache_mb = sum(v.nbytes for v in full().cache.values() if isinstance(v, np.ndarray)) / 2**20
    forward_s = _median_time(full, repeats)
    gemm_s = _median_time(gemms_only, repeats)
    return {"forward_s": forward_s, "gemm_s": gemm_s, "ratio": forward_s / gemm_s,
            "repeats": repeats, "cache_mb": cache_mb}
