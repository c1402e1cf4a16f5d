"""A narrow MusicXML (partwise) reader for monophonic 4/4 lead sheets.

Recognized elements: the first ``part``; per-measure ``attributes``
(``divisions``, ``key/fifths``, ``time``), ``note`` (``pitch``, ``duration``,
``rest``, ``chord``, ``tie``), ``harmony`` (``root``, ``kind``), and the
``backup``/``forward`` cursor moves. Grace and cue notes are skipped; every
other element is ignored.

Pieces the pipeline cannot represent are *rejected*, not errored:

    "time-signature"    any declared time signature differs from 4/4
                        (or none is declared at all)
    "weak-beat start"   the first measure is a pickup: marked implicit, or
                        its content is shorter than a full bar
    "irregular-measure" a later measure's content does not span exactly one
                        bar (so the 16-steps-per-measure invariant would fail)

Structurally broken documents raise :class:`MusicXmlParseError` instead.

Time is counted in integer ticks at one resolution per document: the lcm of
the first part's ``<divisions>`` values (1 if there are none), so that every
duration under every ``<divisions>`` is a whole number of ticks. The cursor,
measure bounds, pending notes and harmony positions are all ticks; a
``Fraction`` of quarter notes is built only when a :class:`RawNote` is made,
and ``Fraction`` otherwise appears only in the JSON cache format.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

from .encode import STEPS_PER_QUARTER, quantize_ratio
from .leadsheet import ChordSymbol, LeadSheet, RawNote, chord_from_kind, merge_ties

REJECT_TIME_SIGNATURE = "time-signature"
REJECT_WEAK_BEAT = "weak-beat start"
REJECT_IRREGULAR = "irregular-measure"

QUARTERS_PER_BAR = 4

_STEP_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


class MusicXmlParseError(Exception):
    """The document is malformed or missing required elements."""


@dataclass(frozen=True)
class Rejection:
    """A well-formed piece the pipeline deliberately does not ingest."""

    reason: str
    detail: str = ""


@dataclass
class _PendingNote:
    midi_pitch: int
    onset: int  # ticks
    duration: int  # ticks
    tie_start: bool
    tie_stop: bool


def _int_text(element: ET.Element | None, name: str) -> int:
    if element is None or element.text is None:
        raise MusicXmlParseError(f"missing {name} element")
    try:
        return int(element.text.strip())
    except ValueError as exc:
        raise MusicXmlParseError(f"{name} is not an integer: {element.text!r}") from exc


def _note_pitch(note: ET.Element) -> int:
    pitch_el = note.find("pitch")
    if pitch_el is None:
        raise MusicXmlParseError("note missing pitch element")
    step_el = pitch_el.find("step")
    if step_el is None or step_el.text is None:
        raise MusicXmlParseError("pitch missing step element")
    step = step_el.text.strip()
    if step not in _STEP_SEMITONES:
        raise MusicXmlParseError(f"pitch step {step!r} not in A..G")
    octave = _int_text(pitch_el.find("octave"), "pitch octave")
    alter_el = pitch_el.find("alter")
    alter = 0
    if alter_el is not None and alter_el.text is not None:
        try:
            alter = round(float(alter_el.text.strip()))
        except (ValueError, OverflowError) as exc:  # non-numeric, nan or inf
            raise MusicXmlParseError(
                f"pitch alter is not a finite number: {alter_el.text!r}"
            ) from exc
    midi = (octave + 1) * 12 + _STEP_SEMITONES[step] + alter
    if not 0 <= midi <= 127:
        raise MusicXmlParseError(f"pitch {step}{octave} alter {alter} outside MIDI range")
    return midi


def _note_duration(note: ET.Element, ticks_per_division: int) -> int:
    duration = _int_text(note.find("duration"), "note duration")
    if duration <= 0:
        raise MusicXmlParseError(f"note duration must be positive, got {duration}")
    return duration * ticks_per_division


def _ticks_per_quarter(part: ET.Element) -> int:
    """The lcm of the part's positive integer ``<divisions>`` values, 1 if
    there are none. Other values are skipped here: the main pass reports
    them in document order, after any rejection that comes first."""
    ticks = 1
    for element in part.iterfind("measure/attributes/divisions"):
        try:
            divisions = int(element.text.strip())
        except (AttributeError, ValueError):  # no text, or not an integer
            continue
        if divisions > 0:
            ticks = math.lcm(ticks, divisions)
    return ticks


def _collapse_same_onset(notes: list[_PendingNote]) -> list[_PendingNote]:
    """Keep one note per onset: highest pitch, ties broken by longest."""
    by_onset: dict[int, _PendingNote] = {}
    for note in notes:
        kept = by_onset.get(note.onset)
        if kept is None or (note.midi_pitch, note.duration) > (kept.midi_pitch, kept.duration):
            by_onset[note.onset] = note
    return [by_onset[onset] for onset in sorted(by_onset)]


def _truncate_overlaps(notes: list[_PendingNote]) -> list[_PendingNote]:
    out: list[_PendingNote] = []
    for cur, nxt in zip(notes, notes[1:]):
        if cur.onset + cur.duration > nxt.onset:
            cur.duration = nxt.onset - cur.onset
        if cur.duration > 0:
            out.append(cur)
    if notes:
        out.append(notes[-1])
    return out


def parse_musicxml(document: bytes | str, piece_id: str = "") -> LeadSheet | Rejection:
    """Parse one MusicXML document into a LeadSheet, or reject it.

    Returns a :class:`Rejection` for representable-but-unwanted pieces (wrong
    meter, pickup bars, irregular measures) and raises
    :class:`MusicXmlParseError` for broken documents.
    """
    if isinstance(document, str):
        document = document.encode("utf-8")
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MusicXmlParseError(
            f"malformed XML at line {line}, column {column}: {exc.msg}"
        ) from exc
    except (ValueError, LookupError) as exc:
        # The declared encoding is unknown, or multi-byte, which expat lacks.
        raise MusicXmlParseError(f"unsupported XML encoding: {exc}") from exc
    if root.tag != "score-partwise":
        raise MusicXmlParseError(f"expected score-partwise document, got {root.tag!r}")
    part = root.find("part")
    if part is None:
        raise MusicXmlParseError("document has no part element")
    measures = part.findall("measure")
    if not measures:
        return Rejection(REJECT_IRREGULAR, "part has no measures")

    ticks_per_quarter = _ticks_per_quarter(part)
    bar_ticks = QUARTERS_PER_BAR * ticks_per_quarter
    ticks_per_division = ticks_per_quarter  # <divisions> is 1 until declared
    key_fifths: int | None = None
    time_signature: tuple[int, int] | None = None
    notes: list[_PendingNote] = []
    raw_chords: list[tuple[int, int, str]] = []

    cursor = 0
    for index, measure in enumerate(measures):
        measure_start = cursor
        reached = cursor
        last_onset: int | None = None
        for element in measure:
            tag = element.tag
            if tag == "attributes":
                div_el = element.find("divisions")
                if div_el is not None:
                    divisions = _int_text(div_el, "divisions")
                    if divisions <= 0:
                        raise MusicXmlParseError("divisions must be positive")
                    ticks_per_division = ticks_per_quarter // divisions
                key_el = element.find("key/fifths")
                if key_el is not None and key_fifths is None:
                    fifths = _int_text(key_el, "key fifths")
                    if not -7 <= fifths <= 7:
                        raise MusicXmlParseError(f"key fifths {fifths} outside -7..7")
                    key_fifths = fifths
                time_el = element.find("time")
                if time_el is not None:
                    beats = _int_text(time_el.find("beats"), "time beats")
                    beat_type = _int_text(time_el.find("beat-type"), "time beat-type")
                    if (beats, beat_type) != (4, 4):
                        return Rejection(
                            REJECT_TIME_SIGNATURE,
                            f"{beats}/{beat_type} in measure {index + 1}",
                        )
                    time_signature = (beats, beat_type)
            elif tag == "note":
                if element.find("grace") is not None:
                    continue  # no sounding duration
                duration = _note_duration(element, ticks_per_division)
                if element.find("cue") is not None or element.find("rest") is not None:
                    cursor += duration
                elif element.find("chord") is not None:
                    onset = cursor if last_onset is None else last_onset
                    notes.append(
                        _PendingNote(_note_pitch(element), onset, duration, False, False)
                    )
                else:
                    ties = element.findall("tie")
                    tie_types = {tie.get("type") for tie in ties}
                    notes.append(
                        _PendingNote(
                            _note_pitch(element),
                            cursor,
                            duration,
                            "start" in tie_types,
                            "stop" in tie_types,
                        )
                    )
                    last_onset = cursor
                    cursor += duration
            elif tag == "backup":
                cursor -= _note_duration(element, ticks_per_division)
                if cursor < measure_start:
                    cursor = measure_start
            elif tag == "forward":
                cursor += _note_duration(element, ticks_per_division)
            elif tag == "harmony":
                root_el = element.find("root/root-step")
                if root_el is None or root_el.text is None:
                    continue  # bass-only or malformed harmony: ignore
                step = root_el.text.strip()
                if step not in _STEP_SEMITONES:
                    continue
                alter_el = element.find("root/root-alter")
                alter = 0
                if alter_el is not None and alter_el.text is not None:
                    try:
                        alter = round(float(alter_el.text.strip()))
                    except (ValueError, OverflowError):
                        alter = 0
                kind_el = element.find("kind")
                kind = "major"
                if kind_el is not None and kind_el.text is not None:
                    kind = kind_el.text.strip()
                pitch_class = (_STEP_SEMITONES[step] + alter) % 12
                raw_chords.append((cursor, pitch_class, kind))
            reached = max(reached, cursor)

        if time_signature is None:
            return Rejection(REJECT_TIME_SIGNATURE, "no time signature declared")
        content = reached - measure_start
        if index == 0:
            if measure.get("implicit") == "yes" or content < bar_ticks:
                return Rejection(
                    REJECT_WEAK_BEAT,
                    f"first measure spans {Fraction(content, ticks_per_quarter)}"
                    " quarter notes",
                )
        if content != bar_ticks:
            return Rejection(
                REJECT_IRREGULAR,
                f"measure {index + 1} spans {Fraction(content, ticks_per_quarter)}"
                " quarter notes",
            )
        cursor = measure_start + bar_ticks

    normalized = merge_ties(_truncate_overlaps(_collapse_same_onset(notes)))

    chords: dict[int, ChordSymbol] = {}
    for position, pitch_class, kind in raw_chords:
        step = max(0, quantize_ratio(STEPS_PER_QUARTER * position, ticks_per_quarter))
        chords[step] = chord_from_kind(step, pitch_class, kind)

    return LeadSheet(
        id=piece_id,
        key_fifths=key_fifths if key_fifths is not None else 0,
        time_signature=time_signature,
        pickup=False,
        n_bars=len(measures),
        notes=tuple(
            RawNote(pitch, Fraction(onset, ticks_per_quarter), Fraction(length, ticks_per_quarter))
            for pitch, onset, length in normalized
        ),
        chords=tuple(chords[step] for step in sorted(chords)),
    )
