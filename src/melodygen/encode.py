"""Melody grid encoding: a 38-symbol event alphabet on a 16th-note grid.

Event symbols are plain integers:

    0..35   note-on for MIDI pitch 36 + index (C2 .. B4, three octaves)
    36      note-off
    37      no-event (hold whatever is sounding, or keep silence)

Each 4/4 bar is 16 grid steps (4 steps per quarter note). A note that is
immediately followed by another note needs no note-off; an explicit note-off
only appears where a note ends into silence. A melody grid is any integer
sequence over this alphabet whose length is a multiple of 16 and in which a
note-off is always preceded by a sounding note.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .leadsheet import ChordSymbol, LeadSheet, RawNote, merge_ties

PITCH_MIN = 36  # C2
PITCH_MAX = 71  # B4
N_PITCHES = PITCH_MAX - PITCH_MIN + 1  # 36 note-on symbols
NOTE_OFF = 36
NO_EVENT = 37
ALPHABET_SIZE = 38

STEPS_PER_QUARTER = 4
STEPS_PER_BAR = 16
# The most bars a grid may hold, encoded or generated: a grid's memory and
# the time to decode it grow with its bars.
MAX_BARS = 1024
# The time scale of each level of the generator hierarchy, coarse to fine: the
# grid steps one bar profile, beat (quarter note) profile or note event covers.
LEVEL_STEPS = MappingProxyType({"bar": STEPS_PER_BAR, "beat": STEPS_PER_QUARTER, "note": 1})


@dataclass(frozen=True)
class MelodyGrid:
    """An immutable event sequence of 1 to ``MAX_BARS`` whole bars."""

    events: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.events) % STEPS_PER_BAR != 0:
            raise ValueError(
                f"grid length {len(self.events)} is not a multiple of {STEPS_PER_BAR}"
            )
        if not 1 <= self.n_bars <= MAX_BARS:
            raise ValueError(f"a grid holds 1 to {MAX_BARS} bars, not {self.n_bars}")
        sounding = False
        for step, event in enumerate(self.events):
            if not 0 <= event < ALPHABET_SIZE:
                raise ValueError(f"event {event} at step {step} outside alphabet")
            if event < N_PITCHES:
                sounding = True
            elif event == NOTE_OFF:
                if not sounding:
                    raise ValueError(f"note-off at step {step} with nothing sounding")
                sounding = False

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_bars(self) -> int:
        return len(self.events) // STEPS_PER_BAR

    def to_array(self) -> np.ndarray:
        return np.array(self.events, dtype=np.int64)


def tonic_pitch_class(key_fifths: int) -> int:
    """Major-key tonic pitch class from the circle of fifths (C=0)."""
    return (7 * key_fifths) % 12


def transposition_shift(key_fifths: int) -> int:
    """Semitone shift that moves this key's tonic to C, minimal in magnitude.

    The result lies in -6..+5: of the two shifts that map the tonic to pitch
    class 0, the smaller absolute one is chosen, and a tritone resolves
    downward (F sharp major -> -6).
    """
    tonic = tonic_pitch_class(key_fifths)
    return (-tonic + 6) % 12 - 6


def fold_octaves(pitch: int) -> int:
    """Shift a pitch by whole octaves into 36..71 (C2..B4)."""
    while pitch < PITCH_MIN:
        pitch += 12
    while pitch > PITCH_MAX:
        pitch -= 12
    return pitch


def normalize_sheet(sheet: LeadSheet) -> LeadSheet:
    """Transpose a lead sheet to C and fold its notes into C2..B4, in one pass.

    Each note's pitch becomes ``fold_octaves(pitch + shift)`` for the key's
    ``transposition_shift``; chord roots and chromas move by the same shift
    so harmony stays aligned with the melody. Folding can swap the pitch
    order of notes that share an onset, so the notes are re-sorted only when
    some note folds. A sheet already in C and in range is returned as it is.
    """
    shift = transposition_shift(sheet.key_fifths)
    moved = [note.midi_pitch + shift for note in sheet.notes]
    pitches = [fold_octaves(pitch) for pitch in moved]
    folded = pitches != moved
    if sheet.key_fifths == 0 and not folded:
        return sheet
    notes = [
        RawNote(pitch, note.onset, note.duration, note.tie_start, note.tie_stop)
        for note, pitch in zip(sheet.notes, pitches)
    ]
    if folded:
        notes.sort(key=lambda note: (note.onset, note.midi_pitch))
    chords = tuple(
        ChordSymbol(
            onset_step=chord.onset_step,
            root_pitch_class=(chord.root_pitch_class + shift) % 12,
            chroma=tuple(sorted((pc + shift) % 12 for pc in chord.chroma)),
        )
        for chord in sheet.chords
    )
    return LeadSheet(
        sheet.id, 0, sheet.time_signature, sheet.pickup, sheet.n_bars, tuple(notes), chords
    )


def quantize_ratio(numerator: int, denominator: int) -> int:
    """Round ``numerator / denominator`` (denominator > 0) to the nearest
    integer, exact halves earlier."""
    floor, rem = divmod(numerator, denominator)
    return floor + (2 * rem > denominator)


GridNote = tuple[int, int, int]  # (midi_pitch, onset_step, duration_steps)


def grid_encode(sheet: LeadSheet) -> MelodyGrid:
    """Encode a normalized (4/4, key C) lead sheet onto the event grid.

    Tied notes are first joined into one by ``merge_ties``, the MusicXML
    reader's rule; the reader's own sheets carry no tie flags. Note
    onsets/ends are quantized to the nearest 16th step with exact halves
    rounding earlier. Notes that quantize to zero length are dropped; notes
    that quantize to the same onset keep the longest (then highest). Pitches
    are octave-folded into C2..B4. Overlap after quantization means the input
    was not monophonic and raises ValueError, as does a sheet of fewer than
    1 or more than ``MAX_BARS`` bars, before anything is allocated.

    Onsets and ends are quantized from their integer numerators and
    denominators; ``Fraction`` arithmetic runs only to join ties.
    """
    if sheet.time_signature != (4, 4):
        raise ValueError(f"grid encoding requires 4/4, got {sheet.time_signature}")
    if not 1 <= sheet.n_bars <= MAX_BARS:
        raise ValueError(f"a lead sheet needs 1 to {MAX_BARS} bars, not {sheet.n_bars}")
    n_steps = sheet.n_bars * STEPS_PER_BAR
    quantized: list[GridNote] = []
    for pitch, onset, duration in merge_ties(sheet.notes):
        on_num, on_den = onset.as_integer_ratio()
        dur_num, dur_den = duration.as_integer_ratio()
        on = quantize_ratio(STEPS_PER_QUARTER * on_num, on_den)
        # The end, onset + duration, over the denominator on_den * dur_den.
        off = quantize_ratio(
            STEPS_PER_QUARTER * (on_num * dur_den + dur_num * on_den), on_den * dur_den
        )
        if off <= on:
            continue  # vanished under quantization
        quantized.append((fold_octaves(pitch), on, off - on))

    # Same-onset collisions: keep the longest note, ties to the highest pitch.
    by_onset: dict[int, GridNote] = {}
    for pitch, on, dur in quantized:
        kept = by_onset.get(on)
        if kept is None or (dur, pitch) > (kept[2], kept[0]):
            by_onset[on] = (pitch, on, dur)
    ordered = [by_onset[on] for on in sorted(by_onset)]

    for (_, on_a, dur_a), (_, on_b, _) in zip(ordered, ordered[1:]):
        if on_a + dur_a > on_b:
            raise ValueError(
                f"notes overlap after quantization at steps {on_a}..{on_a + dur_a}"
                f" and {on_b}; melody is not monophonic"
            )
    if ordered and ordered[-1][1] + ordered[-1][2] > n_steps:
        raise ValueError("note extends past the final bar")

    events = [NO_EVENT] * n_steps
    for pitch, on, _ in ordered:
        events[on] = pitch - PITCH_MIN
    for _, on, dur in ordered:
        end = on + dur
        if end < n_steps and events[end] == NO_EVENT:
            events[end] = NOTE_OFF
    return MelodyGrid(tuple(events))


def grid_decode(grid: MelodyGrid) -> list[GridNote]:
    """Decode a grid back into (pitch, onset_step, duration_steps) notes.

    A sounding note ends at the next note-on, at a note-off, or at the end of
    the grid; a ``MelodyGrid`` holds no note-off with nothing sounding.
    """
    notes: list[GridNote] = []
    open_pitch: int | None = None
    open_step = 0
    for step, event in enumerate(grid.events):
        if event == NO_EVENT:
            continue
        if event == NOTE_OFF:
            notes.append((open_pitch, open_step, step - open_step))
            open_pitch = None
        else:
            if open_pitch is not None:
                notes.append((open_pitch, open_step, step - open_step))
            open_pitch = PITCH_MIN + event
            open_step = step
    if open_pitch is not None:
        notes.append((open_pitch, open_step, len(grid) - open_step))
    return notes


def one_hot_matrix(events: Sequence[int] | np.ndarray, size: int) -> np.ndarray:
    """(len, size) one-hot matrix for an integer sequence."""
    events = np.asarray(events, dtype=np.int64)
    if events.size and (events.min() < 0 or events.max() >= size):
        raise ValueError("event index outside alphabet")
    out = np.zeros((len(events), size), dtype=np.float64)
    out[np.arange(len(events)), events] = 1.0
    return out


def sustain_extend(notes: Iterable[GridNote]) -> list[GridNote]:
    """Extend every note to the end of the bar it ends in, or to the next
    note's onset if that comes first. Returns the notes in onset order.

    Notes already ending at a bar end are unchanged, and no note is ever
    shortened. Non-overlapping notes stay non-overlapping, so a repeated
    pitch is released before it sounds again.
    """
    ordered = sorted(notes, key=lambda note: note[1])
    onsets = [on for _, on, _ in ordered]
    extended = []
    for pitch, on, dur in ordered:
        last_step = on + dur - 1
        end = (last_step // STEPS_PER_BAR + 1) * STEPS_PER_BAR
        later = bisect.bisect_right(onsets, on)
        if later < len(onsets):
            end = min(end, onsets[later])
        extended.append((pitch, on, max(end, on + dur) - on))
    return extended
