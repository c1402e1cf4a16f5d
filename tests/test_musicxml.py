"""MusicXML subset parser: accepted shapes, rejections, and error context."""

import re
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings, strategies as st

from melodygen.leadsheet import LeadSheet
from melodygen.musicxml import (
    REJECT_IRREGULAR,
    REJECT_TIME_SIGNATURE,
    REJECT_WEAK_BEAT,
    MusicXmlParseError,
    Rejection,
    parse_musicxml,
)
from support.musicxml_builder import (
    attributes_xml,
    backup_xml,
    forward_xml,
    harmony_xml,
    measure_xml,
    note_xml,
    score_xml,
    simple_score,
)

FULL_BAR = attributes_xml(divisions=4, key_fifths=0, time=(4, 4))


def note_triples(sheet):
    return [(n.midi_pitch, n.onset, n.duration) for n in sheet.notes]


class TestAccepted:
    def test_basic_melody(self):
        doc = simple_score([(60, 4), (62, 4), (None, 4), (64, 4)], key_fifths=2)
        sheet = parse_musicxml(doc, "basic")
        assert sheet.id == "basic"
        assert sheet.key_fifths == 2
        assert sheet.time_signature == (4, 4)
        assert sheet.n_bars == 1
        assert not sheet.pickup
        assert note_triples(sheet) == [
            (60, Fraction(0), Fraction(1)),
            (62, Fraction(1), Fraction(1)),
            (64, Fraction(3), Fraction(1)),
        ]

    def test_fractional_durations(self):
        # divisions=6 allows triplets: three eighth-note-triplet notes.
        doc = simple_score([(60, 2), (62, 2), (64, 2), (None, 18)], divisions=6)
        sheet = parse_musicxml(doc)
        assert note_triples(sheet)[0] == (60, Fraction(0), Fraction(1, 3))
        assert note_triples(sheet)[2] == (64, Fraction(2, 3), Fraction(1, 3))

    def test_tie_across_barline_merged(self):
        doc = simple_score([(None, 8), (67, 16), (None, 8)])
        sheet = parse_musicxml(doc)
        assert note_triples(sheet) == [(67, Fraction(2), Fraction(4))]
        assert sheet.n_bars == 2

    def test_tie_chain_over_three_bars(self):
        doc = simple_score([(60, 48)])
        sheet = parse_musicxml(doc)
        assert note_triples(sheet) == [(60, Fraction(0), Fraction(12))]

    def test_tie_flags_cleared_after_merge(self):
        doc = simple_score([(60, 20), (None, 12)])
        sheet = parse_musicxml(doc)
        assert not sheet.notes[0].tie_start and not sheet.notes[0].tie_stop

    def test_multiple_measures_count(self):
        doc = simple_score([(None, 16 * 5)])
        assert parse_musicxml(doc).n_bars == 5

    def test_grace_notes_skipped(self):
        body = FULL_BAR + note_xml(72, 1, grace=True) + note_xml(60, 16)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [(60, Fraction(0), Fraction(4))]

    def test_cue_notes_advance_time_silently(self):
        body = FULL_BAR + note_xml(72, 8, cue=True) + note_xml(60, 8)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [(60, Fraction(2), Fraction(2))]

    def test_chord_marked_notes_collapse_to_highest(self):
        body = FULL_BAR + note_xml(60, 16) + note_xml(64, 16, chord=True)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [(64, Fraction(0), Fraction(4))]

    def test_second_part_ignored(self):
        other = measure_xml(FULL_BAR + note_xml(40, 16))
        doc = score_xml(
            [measure_xml(FULL_BAR + note_xml(60, 16))], extra_parts=[other]
        )
        sheet = parse_musicxml(doc)
        assert note_triples(sheet) == [(60, Fraction(0), Fraction(4))]

    def test_backup_second_voice_collapses_and_truncates(self):
        # Voice 1 fills the bar, backup returns to the start, voice 2 adds a
        # lower line. Same-onset collapse keeps the higher note at beat 0;
        # the sustained note is then truncated at the next surviving onset.
        body = (
            FULL_BAR
            + note_xml(72, 16)
            + backup_xml(16)
            + note_xml(52, 8)
            + note_xml(55, 8)
        )
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [
            (72, Fraction(0), Fraction(2)),
            (55, Fraction(2), Fraction(2)),
        ]

    def test_backup_clamped_at_measure_start(self):
        body = FULL_BAR + backup_xml(64) + note_xml(60, 16)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [(60, Fraction(0), Fraction(4))]

    def test_forward_advances_cursor(self):
        body = FULL_BAR + forward_xml(8) + note_xml(60, 8)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [(60, Fraction(2), Fraction(2))]

    def test_overlap_truncated_at_next_onset(self):
        body = FULL_BAR + note_xml(60, 16) + backup_xml(8) + note_xml(64, 8)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert note_triples(sheet) == [
            (60, Fraction(0), Fraction(2)),
            (64, Fraction(2), Fraction(2)),
        ]

    def test_flat_key_signature(self):
        doc = simple_score([(None, 16)], key_fifths=-5)
        assert parse_musicxml(doc).key_fifths == -5

    def test_missing_key_defaults_to_c(self):
        body = attributes_xml(divisions=4, time=(4, 4)) + note_xml(60, 16)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert sheet.key_fifths == 0

    def test_first_key_signature_wins(self):
        first = attributes_xml(divisions=4, key_fifths=3, time=(4, 4)) + note_xml(60, 16)
        second = attributes_xml(key_fifths=-2) + note_xml(62, 16)
        sheet = parse_musicxml(score_xml([measure_xml(first), measure_xml(second, 2)]))
        assert sheet.key_fifths == 3


class TestHarmony:
    def test_harmony_parsed_with_kind(self):
        doc = simple_score(
            [(60, 16), (62, 16)],
            harmonies={0: harmony_xml("C", "major"), 1: harmony_xml("A", "minor")},
        )
        sheet = parse_musicxml(doc)
        assert [(c.onset_step, c.root_pitch_class) for c in sheet.chords] == [
            (0, 0),
            (16, 9),
        ]
        assert sheet.chords[1].chroma == (0, 4, 9)

    def test_root_alter(self):
        doc = simple_score(
            [(60, 16)], harmonies={0: harmony_xml("B", "dominant", root_alter=-1)}
        )
        chord = parse_musicxml(doc).chords[0]
        assert chord.root_pitch_class == 10

    def test_unknown_kind_becomes_major(self):
        doc = simple_score([(60, 16)], harmonies={0: harmony_xml("D", "power")})
        assert parse_musicxml(doc).chords[0].chroma == (2, 6, 9)

    def test_malformed_harmony_ignored(self):
        doc = simple_score([(60, 16)], harmonies={0: "<harmony><kind>major</kind></harmony>"})
        assert parse_musicxml(doc).chords == ()

    def test_two_harmonies_same_step_keep_last(self):
        doc = simple_score(
            [(60, 16)],
            harmonies={0: harmony_xml("C", "major") + harmony_xml("G", "major")},
        )
        chords = parse_musicxml(doc).chords
        assert len(chords) == 1 and chords[0].root_pitch_class == 7


class TestRejections:
    def test_three_four_rejected(self):
        body = attributes_xml(divisions=4, time=(3, 4)) + note_xml(60, 12)
        result = parse_musicxml(score_xml([measure_xml(body)]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_TIME_SIGNATURE
        assert "3/4" in result.detail

    def test_missing_time_signature_rejected(self):
        body = attributes_xml(divisions=4) + note_xml(60, 16)
        result = parse_musicxml(score_xml([measure_xml(body)]))
        assert result == Rejection(REJECT_TIME_SIGNATURE, "no time signature declared")

    def test_implicit_pickup_rejected(self):
        full = measure_xml(FULL_BAR + note_xml(60, 16), implicit=True)
        result = parse_musicxml(score_xml([full]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_WEAK_BEAT

    def test_short_first_measure_rejected(self):
        short = measure_xml(FULL_BAR + note_xml(60, 4))
        result = parse_musicxml(score_xml([short]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_WEAK_BEAT

    def test_short_later_measure_rejected(self):
        first = measure_xml(FULL_BAR + note_xml(60, 16))
        second = measure_xml(note_xml(62, 8), 2)
        result = parse_musicxml(score_xml([first, second]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_IRREGULAR
        assert "measure 2" in result.detail

    def test_overfull_measure_rejected(self):
        body = FULL_BAR + note_xml(60, 20)
        result = parse_musicxml(score_xml([measure_xml(body)]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_WEAK_BEAT or result.reason == REJECT_IRREGULAR

    def test_empty_part_rejected(self):
        result = parse_musicxml(score_xml([]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_IRREGULAR

    def test_meter_change_mid_piece_rejected(self):
        first = measure_xml(FULL_BAR + note_xml(60, 16))
        second = measure_xml(attributes_xml(time=(6, 8)) + note_xml(62, 12), 2)
        result = parse_musicxml(score_xml([first, second]))
        assert isinstance(result, Rejection)
        assert result.reason == REJECT_TIME_SIGNATURE


class TestDivisionsChange:
    """``<divisions>`` may change from measure to measure; every onset,
    duration and chord step stays exact."""

    def test_four_then_six_then_eight(self):
        first = measure_xml(
            FULL_BAR
            + harmony_xml("C")
            + note_xml(60, 4) + note_xml(62, 4) + note_xml(64, 4)
            + note_xml(65, 4, tie="start"),
            1,
        )
        # Triplet eighths are 2 divisions at 6 per quarter; the harmony falls
        # after the first of them, 29/6 quarter notes in: step 58/3 -> 19.
        second = measure_xml(
            attributes_xml(divisions=6)
            + note_xml(65, 3, tie="stop")
            + note_xml(67, 2) + harmony_xml("G", "dominant") + note_xml(69, 2)
            + note_xml(71, 2) + note_xml(None, 3)
            + note_xml(72, 6) + note_xml(74, 6, tie="start"),
            2,
        )
        third = measure_xml(
            attributes_xml(divisions=8)
            + note_xml(74, 2, tie="stop") + note_xml(76, 6)
            + harmony_xml("F") + note_xml(77, 8) + note_xml(79, 16),
            3,
        )
        sheet = parse_musicxml(score_xml([first, second, third]))
        assert sheet.n_bars == 3
        assert note_triples(sheet) == [
            (60, Fraction(0), Fraction(1)),
            (62, Fraction(1), Fraction(1)),
            (64, Fraction(2), Fraction(1)),
            (65, Fraction(3), Fraction(3, 2)),  # tied across 4 -> 6
            (67, Fraction(9, 2), Fraction(1, 3)),
            (69, Fraction(29, 6), Fraction(1, 3)),
            (71, Fraction(31, 6), Fraction(1, 3)),
            (72, Fraction(6), Fraction(1)),
            (74, Fraction(7), Fraction(5, 4)),  # tied across 6 -> 8
            (76, Fraction(33, 4), Fraction(3, 4)),
            (77, Fraction(9), Fraction(1)),
            (79, Fraction(10), Fraction(2)),
        ]
        assert [(c.onset_step, c.root_pitch_class) for c in sheet.chords] == [
            (0, 0), (19, 7), (36, 5),
        ]

    @pytest.mark.parametrize("later_divisions", ["0", "-2", "x", ""])
    def test_rejection_comes_before_a_later_bad_divisions(self, later_divisions):
        first = measure_xml(attributes_xml(divisions=4, time=(3, 4)) + note_xml(60, 12), 1)
        second = measure_xml(
            f"<attributes><divisions>{later_divisions}</divisions></attributes>"
            + note_xml(62, 12),
            2,
        )
        result = parse_musicxml(score_xml([first, second]))
        assert result == Rejection(REJECT_TIME_SIGNATURE, "3/4 in measure 1")

    def test_irregular_measure_after_a_change_keeps_its_detail(self):
        first = measure_xml(FULL_BAR + note_xml(60, 16), 1)
        second = measure_xml(attributes_xml(divisions=2) + note_xml(62, 7), 2)
        result = parse_musicxml(score_xml([first, second]))
        assert result == Rejection(REJECT_IRREGULAR, "measure 2 spans 7/2 quarter notes")

    def test_short_first_measure_with_a_change_keeps_its_detail(self):
        body = FULL_BAR + note_xml(60, 4) + attributes_xml(divisions=6) + note_xml(62, 3)
        result = parse_musicxml(score_xml([measure_xml(body)]))
        assert result == Rejection(REJECT_WEAK_BEAT, "first measure spans 3/2 quarter notes")


class TestParseErrors:
    def test_malformed_xml_reports_position(self):
        with pytest.raises(MusicXmlParseError, match="line"):
            parse_musicxml("<score-partwise><part></score-partwise>")

    def test_wrong_root_element(self):
        with pytest.raises(MusicXmlParseError, match="score-partwise"):
            parse_musicxml("<score-timewise></score-timewise>")

    def test_missing_part(self):
        with pytest.raises(MusicXmlParseError, match="part"):
            parse_musicxml("<score-partwise></score-partwise>")

    def test_note_without_duration_named(self):
        body = FULL_BAR + "<note><pitch><step>C</step><octave>4</octave></pitch></note>"
        with pytest.raises(MusicXmlParseError, match="duration"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_note_without_pitch_named(self):
        body = FULL_BAR + "<note><duration>16</duration></note>"
        with pytest.raises(MusicXmlParseError, match="pitch"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_bad_step_letter(self):
        body = (
            FULL_BAR
            + "<note><pitch><step>H</step><octave>4</octave></pitch>"
            + "<duration>16</duration></note>"
        )
        with pytest.raises(MusicXmlParseError, match="H"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_non_integer_duration(self):
        body = FULL_BAR + (
            "<note><pitch><step>C</step><octave>4</octave></pitch>"
            "<duration>sixteen</duration></note>"
        )
        with pytest.raises(MusicXmlParseError, match="integer"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_zero_divisions(self):
        body = "<attributes><divisions>0</divisions></attributes>" + note_xml(60, 16)
        with pytest.raises(MusicXmlParseError, match="divisions"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_key_fifths_out_of_range(self):
        body = attributes_xml(divisions=4, key_fifths=9, time=(4, 4)) + note_xml(60, 16)
        with pytest.raises(MusicXmlParseError, match="fifths"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_pitch_outside_midi(self):
        body = FULL_BAR + (
            "<note><pitch><step>C</step><octave>11</octave></pitch>"
            "<duration>16</duration></note>"
        )
        with pytest.raises(MusicXmlParseError, match="MIDI"):
            parse_musicxml(score_xml([measure_xml(body)]))


class TestAlterSpelling:
    def test_sharp_and_flat_alters(self):
        body = FULL_BAR + (
            "<note><pitch><step>C</step><alter>1</alter><octave>4</octave></pitch>"
            "<duration>8</duration></note>"
            "<note><pitch><step>E</step><alter>-1</alter><octave>4</octave></pitch>"
            "<duration>8</duration></note>"
        )
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert [n.midi_pitch for n in sheet.notes] == [61, 63]

    def test_float_alter_rounded(self):
        body = FULL_BAR + (
            "<note><pitch><step>C</step><alter>1.0</alter><octave>4</octave></pitch>"
            "<duration>16</duration></note>"
        )
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert sheet.notes[0].midi_pitch == 61


# One bar that reaches every element the parser reads: divisions, key, time,
# a harmony, an altered and tied pitch, a chord note, a rest, backup and
# forward.
FUZZ_DOCUMENT = score_xml([
    measure_xml(
        attributes_xml(divisions=4, key_fifths=-2, time=(4, 4))
        + harmony_xml("B", "minor", root_alter=-1)
        + note_xml(61, 4, tie="start")
        + note_xml(68, 4, chord=True)
        + note_xml(61, 4, tie="stop")
        + note_xml(None, 4)
        + backup_xml(2)
        + forward_xml(2)
        + note_xml(70, 4)
    )
])
HOSTILE_TEXT = st.sampled_from(
    ["inf", "-inf", "nan", "1e400", "-1", "0", "9" * 5000, "", "H", "1.5"]
)


def parse_or_declared_error(document: bytes) -> None:
    try:
        result = parse_musicxml(document, "fuzz")
    except MusicXmlParseError:
        return
    assert isinstance(result, (LeadSheet, Rejection))


class TestArbitraryInput:
    """Any bytes parse, are rejected, or raise MusicXmlParseError; nothing else."""

    def test_fuzz_document_parses(self):
        sheet = parse_musicxml(FUZZ_DOCUMENT)
        assert isinstance(sheet, LeadSheet) and sheet.chords and sheet.notes

    @settings(max_examples=300, deadline=None)
    @given(document=st.binary(max_size=500))
    def test_arbitrary_bytes(self, document):
        parse_or_declared_error(document)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_element_text_replaced(self, data):
        spans = [m.span(1) for m in re.finditer(r">([^<]*)<", FUZZ_DOCUMENT)]
        start, end = data.draw(st.sampled_from(spans))
        text = data.draw(st.text(max_size=30) | HOSTILE_TEXT)
        parse_or_declared_error(
            (FUZZ_DOCUMENT[:start] + escape(text) + FUZZ_DOCUMENT[end:]).encode()
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_span_replaced(self, data):
        document = FUZZ_DOCUMENT.encode()
        start = data.draw(st.integers(0, len(document)))
        end = data.draw(st.integers(start, min(len(document), start + 16)))
        patch = data.draw(st.binary(max_size=16))
        parse_or_declared_error(document[:start] + patch + document[end:])

    @pytest.mark.parametrize("encoding", ["euc-jp", "no-such-codec"])
    def test_undecodable_declared_encoding(self, encoding):
        document = f'<?xml version="1.0" encoding="{encoding}"?><score-partwise/>'
        with pytest.raises(MusicXmlParseError, match="encoding"):
            parse_musicxml(document.encode("ascii"))

    def test_infinite_pitch_alter_is_a_parse_error(self):
        body = FULL_BAR + (
            "<note><pitch><step>C</step><alter>inf</alter><octave>4</octave></pitch>"
            "<duration>16</duration></note>"
        )
        with pytest.raises(MusicXmlParseError, match="alter"):
            parse_musicxml(score_xml([measure_xml(body)]))

    def test_infinite_harmony_alter_is_ignored_like_a_non_numeric_one(self):
        body = FULL_BAR + (
            "<harmony><root><root-step>D</root-step><root-alter>inf</root-alter>"
            "</root><kind>major</kind></harmony>"
        ) + note_xml(60, 16)
        sheet = parse_musicxml(score_xml([measure_xml(body)]))
        assert sheet.chords[0].root_pitch_class == 2
