"""Layer specifications and input-feature construction for the hierarchy.

Three generator levels share one input recipe. At sequence position p, a
layer predicting symbol y_p sees the concatenation, in this fixed order:

    [ one-hot(y_{p-1})            alphabet_size dims, zeros at p = 0
    | bar-profile condition       bar_k dims, when conditioned on bars
    | beat-profile condition      beat_k dims, when conditioned on beats
    | chord chroma                12 dims, when chord-conditioned
    | lookback                    2*alphabet + 2 + position_bits dims ]

The lookback block holds, per configured distance d: the one-hot of
y_{p-d} (zeros when p < d), then one repeat flag per distance
([y_{p-1} == y_{p-1-d}], zero when out of range), then a binary counter of
the position within the layer's cycle (4 bits of p mod 16 for the note
level, 2 bits of p mod 4 for the beat level, none for bars).

One builder writes this layout, :func:`layer_features`, over W symbol
histories and a range of positions: training asks it for every position of
one sequence (:func:`build_layer_inputs`), decoding for one position of W
hypotheses. :func:`condition_block` fans the conditions out for both.

Variants: "3L" is the full bar/beat/note stack; "2L" drops the bar level
(its beat layer is unconditioned); "1L" is the note level alone with no
profile conditions, which reduces it to a plain lookback sequence model.
Chord conditioning adds the chroma block to the beat and note levels (the
note level in every variant).

Every per-level value is keyed by level: :func:`variant_specs` sizes a
variant's specs off a ``{level: codebook}`` mapping, and
:func:`condition_block` and :func:`build_layer_inputs` read the profile
indices of the levels above from a ``{level: indices}`` mapping, per bar for
"bar" and per beat for "beat". :func:`layer_specs` takes the codebook sizes
as ``bar_k`` and ``beat_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..encode import ALPHABET_SIZE, one_hot_matrix
from ..leadsheet import ChordSymbol
from ..profiles import DEFAULT_BAR_K, DEFAULT_BEAT_K, ProfileCodebook

VARIANTS = ("1L", "2L", "3L")
LEVELS = ("bar", "beat", "note")
PROFILE_LEVELS = ("bar", "beat")  # the levels that emit rhythm profiles

STEPS_PER_BAR = 16
STEPS_PER_BEAT = 4
BEATS_PER_BAR = 4
CHROMA_DIM = 12

FEATURE_LAYOUT_VERSION = 1

# Lookback distances per level, in the level's own sequence positions.
# Bars look back 2 and 4 bars, beats 4 and 8 beats; the note level looks
# back one and two whole bars (16 and 32 steps).
LOOKBACK_DISTANCES = {"bar": (2, 4), "beat": (4, 8), "note": (16, 32)}
POSITION_BITS = {"bar": 0, "beat": 2, "note": 4}


@dataclass(frozen=True)
class LayerSpec:
    """Feature layout contract for one generator level."""

    level: str
    alphabet_size: int
    bar_condition: int  # bar codebook size, or 0 when unconditioned on bars
    beat_condition: int  # beat codebook size, or 0
    chroma: bool
    lookback_distances: tuple[int, int]
    position_bits: int

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")

    @property
    def condition_dim(self) -> int:
        return self.bar_condition + self.beat_condition + (CHROMA_DIM if self.chroma else 0)

    @property
    def lookback_dim(self) -> int:
        return 2 * self.alphabet_size + len(self.lookback_distances) + self.position_bits

    @property
    def input_dim(self) -> int:
        return self.alphabet_size + self.condition_dim + self.lookback_dim

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "alphabet_size": self.alphabet_size,
            "bar_condition": self.bar_condition,
            "beat_condition": self.beat_condition,
            "chroma": self.chroma,
            "lookback_distances": list(self.lookback_distances),
            "position_bits": self.position_bits,
        }


def layer_specs(
    variant: str,
    *,
    chords: bool = False,
    beat_k: int = DEFAULT_BEAT_K,
    bar_k: int = DEFAULT_BAR_K,
) -> dict[str, LayerSpec]:
    """The LayerSpec for every level present in a variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    def spec(level, alphabet, bar_cond, beat_cond, with_chroma):
        return LayerSpec(
            level=level,
            alphabet_size=alphabet,
            bar_condition=bar_cond,
            beat_condition=beat_cond,
            chroma=with_chroma,
            lookback_distances=LOOKBACK_DISTANCES[level],
            position_bits=POSITION_BITS[level],
        )

    if variant == "3L":
        return {
            "bar": spec("bar", bar_k, 0, 0, False),
            "beat": spec("beat", beat_k, bar_k, 0, chords),
            "note": spec("note", ALPHABET_SIZE, bar_k, beat_k, chords),
        }
    if variant == "2L":
        return {
            "beat": spec("beat", beat_k, 0, 0, chords),
            "note": spec("note", ALPHABET_SIZE, 0, beat_k, chords),
        }
    return {"note": spec("note", ALPHABET_SIZE, 0, 0, chords)}


def profile_levels(variant: str) -> tuple[str, ...]:
    """The levels of a variant that emit rhythm profiles; the variant reads
    the codebook of each and of no other."""
    return tuple(level for level in layer_specs(variant) if level in PROFILE_LEVELS)


def variant_specs(
    variant: str,
    *,
    chords: bool,
    codebooks: Mapping[str, ProfileCodebook],
) -> dict[str, LayerSpec]:
    """The LayerSpec for every level of a variant, sized off its codebooks.

    A variant needs the codebook of each profile level it has: the level's
    alphabet, and the condition of the levels below it. A missing one is
    rejected; one the variant does not need is ignored.
    """
    specs = layer_specs(
        variant,
        chords=chords,
        **{f"{level}_k": codebooks[level].k for level in PROFILE_LEVELS if level in codebooks},
    )
    missing = [level for level in specs if level in PROFILE_LEVELS and level not in codebooks]
    if missing:
        # Name the missing level nearest the notes.
        raise ValueError(f"this variant needs a {missing[-1]} codebook")
    return specs


def fan_out(indices: np.ndarray, repeat: int) -> np.ndarray:
    """Repeat each index ``repeat`` times (profile -> finer positions)."""
    return np.repeat(np.asarray(indices, dtype=np.int64), repeat)


def chord_chroma_by_beat(
    chords: tuple[ChordSymbol, ...] | list[ChordSymbol],
    n_beats: int,
) -> np.ndarray:
    """(n_beats, 12) chroma of the chord sounding at each beat start.

    The active chord at beat q is the latest chord whose onset_step is at or
    before step 4q; beats before the first chord get a zero vector.
    """
    out = np.zeros((n_beats, CHROMA_DIM), dtype=np.float64)
    if not chords:
        return out
    ordered = sorted(chords, key=lambda chord: chord.onset_step)
    onsets = [chord.onset_step for chord in ordered]
    vectors = [chord.chroma_vector() for chord in ordered]
    active = -1
    for beat in range(n_beats):
        step = beat * STEPS_PER_BEAT
        while active + 1 < len(onsets) and onsets[active + 1] <= step:
            active += 1
        if active >= 0:
            out[beat] = vectors[active]
    return out


# Positions of each level that one bar and one beat cover, for fanning the
# per-bar profiles and the per-beat profiles and chroma out to the level.
FAN_OUT_REPEATS = {
    "bar": (1, 1),
    "beat": (BEATS_PER_BAR, 1),
    "note": (STEPS_PER_BAR, STEPS_PER_BEAT),
}


def condition_block(
    spec: LayerSpec,
    length: int,
    *,
    profiles: Mapping[str, np.ndarray],
    chroma_by_beat: np.ndarray | None = None,
) -> np.ndarray | None:
    """The condition columns (length, condition_dim) of one sequence, or None.

    ``profiles`` maps each profile level the spec is conditioned on to its
    indices, per bar for "bar" and per beat for "beat"; chroma is given per
    beat. Each is fanned out to the level's positions. Missing chroma is
    rejected like any other length mismatch.
    """
    if not spec.condition_dim:
        return None
    per_bar, per_beat = FAN_OUT_REPEATS[spec.level]
    parts = []
    for name, size, repeat in (
        ("bar", spec.bar_condition, per_bar),
        ("beat", spec.beat_condition, per_beat),
    ):
        if size:
            if name not in profiles:
                raise ValueError(f"{spec.level} layer requires {name} profile indices")
            block = one_hot_matrix(fan_out(profiles[name], repeat), size)
            parts.append((f"{name} profiles cover", block))
    if spec.chroma:
        chroma = np.zeros((0, CHROMA_DIM)) if chroma_by_beat is None else chroma_by_beat
        parts.append(("chroma covers", np.repeat(chroma, per_beat, axis=0)))
    for what, part in parts:
        if len(part) != length:
            raise ValueError(f"{what} {len(part)} positions, need {length}")
    return np.concatenate([part for _, part in parts], axis=1)


def layer_features(
    spec: LayerSpec,
    histories: np.ndarray,
    start: int,
    stop: int,
    conditions: np.ndarray | None = None,
) -> np.ndarray:
    """Input rows (W, stop - start, input_dim) at positions [start, stop).

    ``histories`` (W, length) holds W symbol sequences of the level; row w at
    position p reads only ``histories[w, :p]``. ``conditions`` is the
    :func:`condition_block` of the sequence, shared by all W rows.
    """
    rows = len(histories)
    out = np.zeros((rows, stop - start, spec.input_dim))
    which = np.arange(rows)[:, None]

    def one_hot_back(column: int, distance: int) -> None:
        first = max(start, distance)
        if first < stop:
            symbols = histories[:, first - distance : stop - distance]
            out[which, np.arange(first - start, stop - start), column + symbols] = 1.0

    a = spec.alphabet_size
    one_hot_back(0, 1)
    column = a
    if conditions is not None:
        out[:, :, column : column + spec.condition_dim] = conditions[start:stop]
        column += spec.condition_dim
    for d in spec.lookback_distances:
        one_hot_back(column, d)
        column += a
    for d in spec.lookback_distances:
        first = max(start, d + 1)
        if first < stop:
            recent = histories[:, first - 1 : stop - 1]
            out[:, first - start :, column] = recent == histories[:, first - 1 - d : stop - 1 - d]
        column += 1
    if spec.position_bits:
        positions = np.arange(start, stop)[:, None]
        out[:, :, column:] = (positions >> np.arange(spec.position_bits)) & 1
    return out


def build_layer_inputs(
    spec: LayerSpec,
    events: np.ndarray,
    *,
    profiles: Mapping[str, np.ndarray],
    chroma_by_beat: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble the full (T, input_dim) input matrix for one sequence.

    ``events`` is the layer's own symbol sequence (its prediction targets).
    Profile indices and chroma are given as :func:`condition_block` takes
    them.
    """
    events = np.asarray(events, dtype=np.int64)
    if events.size and (events.min() < 0 or events.max() >= spec.alphabet_size):
        raise ValueError(f"{spec.level} event index outside alphabet")
    conditions = condition_block(
        spec, len(events), profiles=profiles, chroma_by_beat=chroma_by_beat
    )
    return layer_features(spec, events[None], 0, len(events), conditions)[0]
