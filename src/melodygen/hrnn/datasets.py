"""Teacher-forcing datasets for each generator level.

Every piece contributes one training sequence per level: the level's own
symbol sequence as targets, and inputs assembled from the previous symbol,
the conditions coming down the hierarchy (taken from the data during
training), and the lookback block.

Every input entry is 0 or 1, so the sequences store their inputs as uint8:
an eighth of the float64 bytes. :func:`pad_batch` keeps that dtype in the
padded batches; the LSTM casts one row block at a time to float64 for its
matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..encode import MelodyGrid
from ..leadsheet import ChordSymbol
from ..neural import take_buffer
from ..profiles import ProfileCodebook, profile_sequences
from .specs import (
    HIERARCHY,
    LayerSpec,
    build_layer_inputs,
    chord_chroma_by_beat,
    variant_specs,
)


@dataclass
class TrainingSequence:
    """One piece prepared for one level: (T, D) inputs, (T,) targets.

    :func:`build_datasets` stores uint8 inputs; any numeric dtype pads.
    """

    inputs: np.ndarray
    targets: np.ndarray
    piece_id: str = ""

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have equal length")
        if len(self.inputs) == 0:
            raise ValueError("empty training sequence")


def piece_level_sequences(
    grid: MelodyGrid,
    specs: dict[str, LayerSpec],
    *,
    codebooks: Mapping[str, ProfileCodebook],
    chords: tuple[ChordSymbol, ...] = (),
    piece_id: str = "",
) -> dict[str, TrainingSequence]:
    """Build the per-level training sequences for one melody grid.

    ``specs`` come from :func:`variant_specs`, so ``codebooks`` holds the
    codebook of each profile level; codebooks of other levels are ignored.
    """
    profiles = profile_sequences(
        grid, {level: book for level, book in codebooks.items() if level in specs}
    )
    chroma = None
    if any(spec.chroma for spec in specs.values()):
        chroma = chord_chroma_by_beat(chords, HIERARCHY["beat"].positions(grid.n_bars))

    level_events = {**profiles, "note": grid.to_array()}
    out: dict[str, TrainingSequence] = {}
    for level, spec in specs.items():
        events = level_events[level]
        inputs = build_layer_inputs(
            spec,
            events,
            profiles=profiles,
            chroma_by_beat=chroma if spec.chroma else None,
        ).astype(np.uint8)
        out[level] = TrainingSequence(inputs, np.asarray(events), piece_id)
    return out


def build_datasets(
    grids: list[MelodyGrid],
    variant: str,
    *,
    beat_codebook: ProfileCodebook | None = None,
    bar_codebook: ProfileCodebook | None = None,
    chord_tracks: list[tuple[ChordSymbol, ...]] | None = None,
    chords: bool = False,
    piece_ids: list[str] | None = None,
) -> dict[str, list[TrainingSequence]]:
    """Datasets per level for a whole corpus slice.

    ``chord_tracks`` aligns with ``grids`` and is only consulted when the
    variant is chord-conditioned.
    """
    codebooks = {
        level: book
        for level, book in (("bar", bar_codebook), ("beat", beat_codebook))
        if book is not None
    }
    specs = variant_specs(variant, chords=chords, codebooks=codebooks)
    datasets: dict[str, list[TrainingSequence]] = {level: [] for level in specs}
    for index, grid in enumerate(grids):
        track = chord_tracks[index] if (chords and chord_tracks) else ()
        piece_id = piece_ids[index] if piece_ids else f"piece{index}"
        sequences = piece_level_sequences(
            grid, specs, codebooks=codebooks, chords=track, piece_id=piece_id
        )
        for level, sequence in sequences.items():
            datasets[level].append(sequence)
    return datasets


def pad_batch(
    sequences: list[TrainingSequence],
    *,
    workspace: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-length sequences into (T, B, D) inputs with a validity mask.

    The inputs keep the sequences' dtype. Padding is trailing: padded steps
    carry zero inputs, target 0, mask 0. With a ``workspace`` the arrays are
    views of its buffers (see :func:`melodygen.neural.take_buffer`).
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    workspace = {} if workspace is None else workspace
    longest = max(len(s.targets) for s in sequences)
    batch = len(sequences)
    dim = sequences[0].inputs.shape[1]
    dtype = np.result_type(*(s.inputs.dtype for s in sequences))
    inputs = take_buffer(workspace, "inputs", (longest, batch, dim), dtype, steps=longest)
    targets = take_buffer(workspace, "targets", (longest, batch), np.int64, steps=longest)
    mask = take_buffer(workspace, "mask", (longest, batch), steps=longest)
    for j, seq in enumerate(sequences):
        n = len(seq.targets)
        inputs[:n, j] = seq.inputs
        inputs[n:, j] = 0
        targets[:n, j] = seq.targets
        targets[n:, j] = 0
        mask[:n, j] = 1.0
        mask[n:, j] = 0.0
    return inputs, targets, mask
