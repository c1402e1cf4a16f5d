"""Lead-sheet domain types and their JSON cache format.

A lead sheet is a monophonic melody line plus optional chord symbols. Note
onsets and durations are exact rationals in quarter-note units, so nothing is
lost between parsing and grid quantization. Chord onsets are already on the
16th-note grid (integer step indices) because chords are only ever consumed at
grid resolution.

``Fraction`` appears only in :class:`RawNote`'s fields and in the JSON
``[numerator, denominator]`` pairs below. The checks here and the grid
quantizer read those fields as integer numerator/denominator pairs: signs
from the numerators, orders by cross-multiplying the denominators. The
MusicXML reader counts integer ticks and builds a ``Fraction`` only when it
makes a note.

The JSON cache format (schema version 1):

    {
      "schema": 1,
      "id": "some-piece",
      "key_fifths": -3,
      "time_signature": [4, 4],
      "pickup": false,
      "n_bars": 8,
      "notes": [
        {"pitch": 60, "onset": [0, 1], "duration": [3, 2],
         "tie_start": false, "tie_stop": false},
        ...
      ],
      "chords": [{"onset_step": 0, "root": 7, "chroma": [2, 7, 11]}, ...]
    }

Fractions are encoded as [numerator, denominator] pairs. Serialization uses
sorted keys and compact separators so that equal sheets produce identical
bytes run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from .artifacts import SchemaError, expect_schema, parse, require

SCHEMA_VERSION = 1

# Chord-tone intervals in semitones above the root for the chord kinds the
# parser recognizes. Unknown kinds fall back to a major triad.
CHORD_KIND_INTERVALS: dict[str, tuple[int, ...]] = {
    "major": (0, 4, 7),
    "minor": (0, 3, 7),
    "augmented": (0, 4, 8),
    "diminished": (0, 3, 6),
    "dominant": (0, 4, 7, 10),
    "dominant-seventh": (0, 4, 7, 10),
    "major-seventh": (0, 4, 7, 11),
    "minor-seventh": (0, 3, 7, 10),
    "suspended-second": (0, 2, 7),
    "suspended-fourth": (0, 5, 7),
}


@dataclass(frozen=True)
class RawNote:
    """One melody note. Onset and duration are in quarter notes."""

    midi_pitch: int
    onset: Fraction
    duration: Fraction
    tie_start: bool = False
    tie_stop: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.midi_pitch <= 127:
            raise ValueError(f"midi_pitch {self.midi_pitch} outside 0..127")
        # A Fraction's denominator is positive: its numerator carries the sign.
        if self.onset.numerator < 0:
            raise ValueError(f"negative onset {self.onset}")
        if self.duration.numerator <= 0:
            raise ValueError(f"non-positive duration {self.duration}")


@dataclass(frozen=True)
class ChordSymbol:
    """A chord at a grid step: root pitch class plus sounding pitch classes."""

    onset_step: int
    root_pitch_class: int
    chroma: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.onset_step < 0:
            raise ValueError(f"negative chord onset_step {self.onset_step}")
        if not 0 <= self.root_pitch_class <= 11:
            raise ValueError(f"root pitch class {self.root_pitch_class} outside 0..11")
        if tuple(sorted(set(self.chroma))) != self.chroma:
            raise ValueError("chroma must be sorted and unique")
        if any(not 0 <= pc <= 11 for pc in self.chroma):
            raise ValueError("chroma entries must be pitch classes 0..11")
        if self.root_pitch_class not in self.chroma:
            raise ValueError("chord root must be contained in its chroma")

    def chroma_vector(self) -> tuple[int, ...]:
        """12-dim indicator vector of sounding pitch classes."""
        return tuple(1 if pc in self.chroma else 0 for pc in range(12))


def merge_ties(notes: Iterable) -> list[tuple[int, Any, Any]]:
    """(midi_pitch, onset, duration) of each sounding note, ties joined.

    ``notes`` are in onset order and have ``RawNote``'s fields. A note that
    starts a tie absorbs the next note when that one stops the tie, has the
    same pitch and starts where the tied note ends; a chain of ties becomes
    one note. Other tie flags are ignored. Onsets and durations may be
    ``Fraction``s or integer ticks: the comparison and the sum are exact.
    """
    merged: list[tuple[int, Any, Any]] = []
    open_tie = False
    for note in notes:
        if open_tie and note.tie_stop:
            pitch, onset, duration = merged[-1]
            if pitch == note.midi_pitch and onset + duration == note.onset:
                merged[-1] = (pitch, onset, duration + note.duration)
                open_tie = note.tie_start
                continue
        merged.append((note.midi_pitch, note.onset, note.duration))
        open_tie = note.tie_start
    return merged


def chord_from_kind(onset_step: int, root_pitch_class: int, kind: str) -> ChordSymbol:
    """Build a ChordSymbol from a chord-kind name, defaulting to a major triad."""
    intervals = CHORD_KIND_INTERVALS.get(kind, CHORD_KIND_INTERVALS["major"])
    chroma = tuple(sorted({(root_pitch_class + iv) % 12 for iv in intervals}))
    return ChordSymbol(onset_step, root_pitch_class, chroma)


@dataclass(frozen=True)
class LeadSheet:
    """A parsed piece: melody notes, chords, and notated key/time metadata.

    Notes are kept sorted by onset (ties broken by pitch). The MusicXML
    reader makes them monophonic. The type itself allows overlap, which only
    JSON input can bring; ``grid_encode`` rejects it.
    """

    id: str
    key_fifths: int
    time_signature: tuple[int, int]
    pickup: bool
    n_bars: int
    notes: tuple[RawNote, ...]
    chords: tuple[ChordSymbol, ...] = ()

    def __post_init__(self) -> None:
        if not -7 <= self.key_fifths <= 7:
            raise ValueError(f"key_fifths {self.key_fifths} outside -7..7")
        if self.n_bars < 0:
            raise ValueError("n_bars must be >= 0")
        num, den = self.time_signature
        if num <= 0 or den <= 0:
            raise ValueError(f"invalid time signature {self.time_signature}")
        for a, b in zip(self.notes, self.notes[1:]):
            # (b.onset, b.midi_pitch) < (a.onset, a.midi_pitch), with the
            # onset difference b - a scaled by both (positive) denominators.
            a_num, a_den = a.onset.as_integer_ratio()
            b_num, b_den = b.onset.as_integer_ratio()
            later = b_num * a_den - a_num * b_den
            if later < 0 or (later == 0 and b.midi_pitch < a.midi_pitch):
                raise ValueError("notes must be sorted by (onset, pitch)")
        for a, b in zip(self.chords, self.chords[1:]):
            if b.onset_step <= a.onset_step:
                raise ValueError("chords must be strictly sorted by onset_step")


def _fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


# Made once: each evaluation of ``list[int]`` builds a new alias object.
_INTS = list[int]


def _fraction(obj: dict, key: str, where: str) -> Fraction:
    """The ``[numerator, denominator]`` pair ``obj[key]`` as a Fraction."""
    try:
        numerator, denominator = require(obj, key, _INTS, where)
    except ValueError:
        raise SchemaError(f"field '{where}{key}' must be a [numerator, denominator] pair") from None
    if denominator <= 0:
        raise SchemaError(f"field '{where}{key}' has non-positive denominator")
    return Fraction(numerator, denominator)


def leadsheet_to_dict(sheet: LeadSheet) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "id": sheet.id,
        "key_fifths": sheet.key_fifths,
        "time_signature": list(sheet.time_signature),
        "pickup": sheet.pickup,
        "n_bars": sheet.n_bars,
        "notes": [
            {
                "pitch": note.midi_pitch,
                "onset": _fraction_to_json(note.onset),
                "duration": _fraction_to_json(note.duration),
                "tie_start": note.tie_start,
                "tie_stop": note.tie_stop,
            }
            for note in sheet.notes
        ],
        "chords": [chord_to_dict(chord) for chord in sheet.chords],
    }


def chord_to_dict(chord: ChordSymbol) -> dict:
    return {
        "onset_step": chord.onset_step,
        "root": chord.root_pitch_class,
        "chroma": list(chord.chroma),
    }


def chord_from_dict(entry: Any, field: str) -> ChordSymbol:
    """Parse one chord object; ``field`` names it in a SchemaError."""
    if not isinstance(entry, dict):
        raise SchemaError(f"field '{field}' must be an object")
    where = f"{field}."
    chroma = tuple(require(entry, "chroma", _INTS, where))
    try:
        return ChordSymbol(
            onset_step=require(entry, "onset_step", int, where),
            root_pitch_class=require(entry, "root", int, where),
            chroma=chroma,
        )
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"invalid chord at {field}: {exc}") from exc


def leadsheet_from_dict(obj: dict) -> LeadSheet:
    if not isinstance(obj, dict):
        raise SchemaError("lead sheet document must be a JSON object")
    expect_schema(obj, SCHEMA_VERSION)
    ts = require(obj, "time_signature", _INTS)
    if len(ts) != 2:
        raise SchemaError("field 'time_signature' must be a pair of integers")
    notes = []
    for i, entry in enumerate(require(obj, "notes", list)):
        if not isinstance(entry, dict):
            raise SchemaError(f"field 'notes[{i}]' must be an object")
        where = f"notes[{i}]."
        try:
            notes.append(
                RawNote(
                    midi_pitch=require(entry, "pitch", int, where),
                    onset=_fraction(entry, "onset", where),
                    duration=_fraction(entry, "duration", where),
                    # The tie flags are optional, False when absent.
                    tie_start="tie_start" in entry and require(entry, "tie_start", bool, where),
                    tie_stop="tie_stop" in entry and require(entry, "tie_stop", bool, where),
                )
            )
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"invalid note at notes[{i}]: {exc}") from exc
    raw_chords = require(obj, "chords", list) if "chords" in obj else []
    chords = [chord_from_dict(entry, f"chords[{i}]") for i, entry in enumerate(raw_chords)]
    try:
        return LeadSheet(
            id=require(obj, "id", str),
            key_fifths=require(obj, "key_fifths", int),
            time_signature=(ts[0], ts[1]),
            pickup=require(obj, "pickup", bool),
            n_bars=require(obj, "n_bars", int),
            notes=tuple(notes),
            chords=tuple(chords),
        )
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"invalid lead sheet: {exc}") from exc


def dumps_leadsheet(sheet: LeadSheet) -> str:
    """Serialize deterministically (sorted keys, compact separators)."""
    return json.dumps(leadsheet_to_dict(sheet), sort_keys=True, separators=(",", ":"))


def loads_leadsheet(data: str | bytes) -> LeadSheet:
    return leadsheet_from_dict(parse(data))
