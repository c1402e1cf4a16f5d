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
the position within the bar (4 bits of p mod 16 for the note level, 2 bits
of p mod 4 for the beat level, none for bars).

One builder writes this layout, :func:`layer_features`, over W symbol
histories and a range of positions: training asks it for every position of
one sequence (:func:`build_layer_inputs`), decoding for one position of W
hypotheses. :func:`condition_block` fans the conditions out for both.

Two tables hold the per-level facts: ``encode.LEVEL_STEPS``, the grid steps
one symbol of a level covers, and :data:`HIERARCHY`, what those steps do not
fix. Fan-out counts, position bits and primer lengths derive from the steps.
One rule gives every variant's specs: variant "nL" is the last n levels of
(bar, beat, note), each level is conditioned on every profile level above
it, and chord conditioning adds chroma, given per beat, to every level no
coarser than a beat.

Every per-level value is keyed by level: :func:`variant_specs` sizes a
variant's specs off a ``{level: codebook}`` mapping, and
:func:`condition_block` and :func:`build_layer_inputs` read the profile
indices of the levels above from a ``{level: indices}`` mapping, per bar for
"bar" and per beat for "beat".
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..encode import ALPHABET_SIZE, LEVEL_STEPS, NO_EVENT, STEPS_PER_BAR, one_hot_matrix
from ..leadsheet import ChordSymbol
from ..profiles import PROFILE_WIDTHS, ProfileCodebook

CHROMA_DIM = 12

FEATURE_LAYOUT_VERSION = 1


@dataclass(frozen=True)
class Level:
    """One level of the hierarchy: the settings that its time scale, its
    ``encode.LEVEL_STEPS``, does not fix, and the values derived from it."""

    name: str
    lookback_distances: tuple[int, int]  # in the level's own positions
    seed_offset: int  # added to the user seed for the level's training stream
    default_k: int | None = None  # default codebook size of a profile level

    def positions(self, bars: int) -> int:
        """Symbols of the level in ``bars`` bars."""
        return bars * STEPS_PER_BAR // LEVEL_STEPS[self.name]

    @property
    def position_bits(self) -> int:
        """Bits of the counter of the level's positions in a bar."""
        return self.positions(1).bit_length() - 1

    @property
    def primer_length(self) -> int:
        """Symbols of a primer, which covers the first beat."""
        return -(-LEVEL_STEPS["beat"] // LEVEL_STEPS[self.name])


# Bars look back 2 and 4 bars, beats 4 and 8 beats; the note level looks
# back one and two whole bars (16 and 32 steps).
HIERARCHY = MappingProxyType({level.name: level for level in (
    Level("bar", lookback_distances=(2, 4), seed_offset=101, default_k=16),
    Level("beat", lookback_distances=(4, 8), seed_offset=202, default_k=8),
    Level("note", lookback_distances=(16, 32), seed_offset=303),
)})
LEVELS = tuple(HIERARCHY)
PROFILE_LEVELS = tuple(PROFILE_WIDTHS)
VARIANT_LEVELS = MappingProxyType({f"{n}L": LEVELS[-n:] for n in range(1, len(LEVELS) + 1)})
VARIANTS = tuple(VARIANT_LEVELS)


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
    def grid_events(self) -> bool:
        """True when the level's symbols are the grid's events, not profile
        indices: decoding then masks the note-off while nothing sounds, and
        scoring reports no-event predictions apart."""
        return self.level == "note"

    @property
    def no_event_index(self) -> int | None:
        """The symbol that scoring reports apart, or None."""
        return NO_EVENT if self.grid_events else None

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
    beat_k: int = HIERARCHY["beat"].default_k,
    bar_k: int = HIERARCHY["bar"].default_k,
) -> dict[str, LayerSpec]:
    """The LayerSpec for every level present in a variant, coarse to fine:
    each level is conditioned on the profile levels above it, and with
    ``chords`` every level no coarser than a beat gets chroma."""
    if variant not in VARIANT_LEVELS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    sizes = {"bar": bar_k, "beat": beat_k, "note": ALPHABET_SIZE}
    levels = VARIANT_LEVELS[variant]
    specs = {}
    for index, name in enumerate(levels):
        level, above = HIERARCHY[name], levels[:index]
        specs[name] = LayerSpec(
            level=name,
            alphabet_size=sizes[name],
            bar_condition=sizes["bar"] if "bar" in above else 0,
            beat_condition=sizes["beat"] if "beat" in above else 0,
            chroma=chords and LEVEL_STEPS[name] <= LEVEL_STEPS["beat"],
            lookback_distances=level.lookback_distances,
            position_bits=level.position_bits,
        )
    return specs


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
        step = beat * LEVEL_STEPS["beat"]
        while active + 1 < len(onsets) and onsets[active + 1] <= step:
            active += 1
        if active >= 0:
            out[beat] = vectors[active]
    return out


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
    beat. Each is fanned out to the level's positions: one symbol of a
    coarser level covers as many positions as it has grid steps per step of
    this level. Missing chroma is rejected like any other length mismatch.
    """
    if not spec.condition_dim:
        return None
    steps = LEVEL_STEPS[spec.level]
    parts = []
    for name, size in (("bar", spec.bar_condition), ("beat", spec.beat_condition)):
        if size:
            if name not in profiles:
                raise ValueError(f"{spec.level} layer requires {name} profile indices")
            block = one_hot_matrix(fan_out(profiles[name], LEVEL_STEPS[name] // steps), size)
            parts.append((f"{name} profiles cover", block))
    if spec.chroma:
        chroma = np.zeros((0, CHROMA_DIM)) if chroma_by_beat is None else chroma_by_beat
        parts.append(("chroma covers", np.repeat(chroma, LEVEL_STEPS["beat"] // steps, axis=0)))
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
