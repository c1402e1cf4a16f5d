"""Teacher-forcing datasets for each generator level.

Every piece contributes one training sequence per level: the level's own
symbol sequence as targets, and inputs assembled from the previous symbol,
the conditions coming down the hierarchy (taken from the data during
training), and the lookback block.

Every input entry is 0 or 1, so the sequences store their inputs as bits,
packed along the feature axis: ceil(D/8) bytes a row, about a sixty-fourth
of the float64 bytes. :func:`pad_batch` unpacks them into uint8 batches; the
LSTM casts one row block at a time to float64 for its matrix products.
"""

from __future__ import annotations

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


class TrainingSequence:
    """One piece prepared for one level: (T, D) 0/1 inputs, (T,) targets.

    The inputs are kept bit-packed along D; ``inputs`` unpacks them as uint8.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, piece_id: str = "") -> None:
        inputs = np.asarray(inputs)
        name = f"training sequence {piece_id!r}" if piece_id else "training sequence"
        if inputs.ndim != 2:
            raise ValueError(f"{name}: inputs must be (T, D), not {inputs.ndim}-D")
        if len(inputs) != len(targets):
            raise ValueError(f"{name}: inputs and targets must have equal length")
        if len(inputs) == 0:
            raise ValueError(f"{name}: empty training sequence")
        ones = inputs == 1
        if not (ones | (inputs == 0)).all():
            raise ValueError(f"{name}: inputs must be all 0s and 1s")
        self.packed = np.packbits(ones, axis=1)
        self.width = inputs.shape[1]
        self.targets = np.asarray(targets)
        self.piece_id = piece_id

    @property
    def inputs(self) -> np.ndarray:
        """The (T, D) uint8 inputs, unpacked."""
        return np.unpackbits(self.packed, axis=1, count=self.width)


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
        )
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
    """Stack variable-length sequences into (T, B, D) uint8 inputs with a validity mask.

    Padding is trailing: padded steps carry zero inputs, target 0, mask 0.
    With a ``workspace`` the arrays are views of its buffers (see
    :func:`melodygen.neural.take_buffer`).
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    widths = sorted({s.width for s in sequences})
    if len(widths) > 1:
        raise ValueError(f"cannot pad sequences of input widths {widths} into one batch")
    workspace = {} if workspace is None else workspace
    longest = max(len(s.targets) for s in sequences)
    batch = len(sequences)
    inputs = take_buffer(workspace, "inputs", (longest, batch, *widths), np.uint8, steps=longest)
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
