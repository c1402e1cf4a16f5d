"""Scalar input-row reference: one position of one history, block by block,
with Python loops over the lookback distances. It reads the LayerSpec's
sizes and shares no feature code with melodygen.hrnn.specs."""

from __future__ import annotations

import numpy as np


def position_counter_bits(position: int, n_bits: int) -> np.ndarray:
    """Little-endian binary counter of position mod 2**n_bits."""
    value = position % (1 << n_bits) if n_bits else 0
    return np.array([(value >> j) & 1 for j in range(n_bits)], dtype=np.float64)


def reference_lookback(history: np.ndarray, position: int, spec) -> np.ndarray:
    """Lookback block at one position, reading only history before it.

    ``history`` must cover at least positions < ``position``; entries at or
    beyond it are never read.
    """
    a = spec.alphabet_size
    out = np.zeros(spec.lookback_dim, dtype=np.float64)
    offset = 0
    for d in spec.lookback_distances:
        if position - d >= 0:
            out[offset + int(history[position - d])] = 1.0
        offset += a
    for j, d in enumerate(spec.lookback_distances):
        back = position - 1 - d
        if back >= 0 and history[position - 1] == history[back]:
            out[offset + j] = 1.0
    offset += len(spec.lookback_distances)
    out[offset : offset + spec.position_bits] = position_counter_bits(
        position, spec.position_bits
    )
    return out


def reference_input_row(spec, history: np.ndarray, position: int, condition=None) -> np.ndarray:
    """[one-hot of the previous symbol | condition row | lookback] at one position."""
    previous = np.zeros(spec.alphabet_size)
    if position > 0:
        previous[int(history[position - 1])] = 1.0
    parts = [previous]
    if condition is not None:
        parts.append(np.asarray(condition, dtype=np.float64))
    parts.append(reference_lookback(history, position, spec))
    return np.concatenate(parts)
