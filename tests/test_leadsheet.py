"""Lead-sheet types and the JSON cache format."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from melodygen.corpus import REJECT_UNREADABLE, scan_corpus
from melodygen.leadsheet import (
    CHORD_KIND_INTERVALS,
    ChordSymbol,
    LeadSheet,
    RawNote,
    SchemaError,
    chord_from_kind,
    dumps_leadsheet,
    leadsheet_from_dict,
    leadsheet_to_dict,
    loads_leadsheet,
)


def make_sheet(notes=(), chords=(), **overrides) -> LeadSheet:
    fields = dict(
        id="t",
        key_fifths=0,
        time_signature=(4, 4),
        pickup=False,
        n_bars=2,
        notes=tuple(notes),
        chords=tuple(chords),
    )
    fields.update(overrides)
    return LeadSheet(**fields)


class TestRawNote:
    def test_fields(self):
        note = RawNote(60, Fraction(1, 2), Fraction(3, 2))
        assert (note.midi_pitch, note.onset, note.duration) == (60, Fraction(1, 2), Fraction(3, 2))
        assert not note.tie_start and not note.tie_stop

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(midi_pitch=128, onset=Fraction(0), duration=Fraction(1)),
            dict(midi_pitch=-1, onset=Fraction(0), duration=Fraction(1)),
            dict(midi_pitch=60, onset=Fraction(-1, 4), duration=Fraction(1)),
            dict(midi_pitch=60, onset=Fraction(0), duration=Fraction(0)),
            dict(midi_pitch=60, onset=Fraction(0), duration=Fraction(-1)),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RawNote(**kwargs)


class TestChordSymbol:
    def test_chroma_vector(self):
        chord = ChordSymbol(0, 7, (2, 7, 11))
        vec = chord.chroma_vector()
        assert len(vec) == 12
        assert [i for i, bit in enumerate(vec) if bit] == [2, 7, 11]

    def test_rejects_unsorted_or_duplicate_chroma(self):
        with pytest.raises(ValueError):
            ChordSymbol(0, 7, (7, 2, 11))
        with pytest.raises(ValueError):
            ChordSymbol(0, 7, (2, 7, 7, 11))

    def test_rejects_root_outside_chroma(self):
        with pytest.raises(ValueError):
            ChordSymbol(0, 5, (0, 4, 7))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ChordSymbol(-1, 0, (0,))
        with pytest.raises(ValueError):
            ChordSymbol(0, 12, (0, 12))

    def test_chord_from_kind_major_and_minor(self):
        major = chord_from_kind(0, 0, "major")
        assert major.chroma == (0, 4, 7)
        minor = chord_from_kind(4, 9, "minor")
        assert minor.chroma == (0, 4, 9)  # A C E

    def test_chord_from_kind_wraps_pitch_classes(self):
        dominant = chord_from_kind(0, 7, "dominant")  # G B D F
        assert dominant.chroma == (2, 5, 7, 11)

    def test_unknown_kind_falls_back_to_major(self):
        fancy = chord_from_kind(0, 2, "neapolitan-sixth-with-extras")
        assert fancy.chroma == chord_from_kind(0, 2, "major").chroma

    def test_all_known_kinds_build(self):
        for kind in CHORD_KIND_INTERVALS:
            chord = chord_from_kind(0, 3, kind)
            assert 3 in chord.chroma


class TestLeadSheet:
    def test_notes_must_be_sorted(self):
        a = RawNote(60, Fraction(1), Fraction(1))
        b = RawNote(62, Fraction(0), Fraction(1))
        with pytest.raises(ValueError, match="sorted"):
            make_sheet(notes=(a, b))

    def test_equal_onsets_sorted_by_pitch(self):
        a = RawNote(60, Fraction(0), Fraction(1))
        b = RawNote(64, Fraction(0), Fraction(1))
        make_sheet(notes=(a, b))  # allowed: same onset, ascending pitch
        with pytest.raises(ValueError):
            make_sheet(notes=(b, a))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_check_is_the_tuple_order(self, data):
        onsets = st.one_of(
            st.integers(0, 8).map(lambda n: Fraction(n, 4)),
            st.fractions(min_value=0, max_value=2, max_denominator=48),
        )
        keys = data.draw(st.lists(st.tuples(onsets, st.integers(58, 61)), max_size=6))
        if data.draw(st.booleans()):
            keys.sort()
            if len(keys) > 1 and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(keys) - 2))
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
        notes = tuple(RawNote(pitch, onset, Fraction(1)) for onset, pitch in keys)
        if all(a <= b for a, b in zip(keys, keys[1:])):
            assert make_sheet(notes=notes).notes == notes
        else:
            with pytest.raises(ValueError, match="sorted"):
                make_sheet(notes=notes)

    def test_chords_strictly_sorted(self):
        c1 = chord_from_kind(0, 0, "major")
        c2 = chord_from_kind(0, 7, "major")
        with pytest.raises(ValueError):
            make_sheet(chords=(c1, c2))

    def test_key_fifths_range(self):
        with pytest.raises(ValueError):
            make_sheet(key_fifths=8)
        make_sheet(key_fifths=-7)
        make_sheet(key_fifths=7)

    def test_time_signature_validated(self):
        with pytest.raises(ValueError):
            make_sheet(time_signature=(0, 4))


# (path into the document, value, field the SchemaError names): JSON booleans
# where integers belong, and tie flags that are not booleans.
NOT_INTEGERS_OR_FLAGS = [
    (("schema",), True, "schema"),
    (("n_bars",), True, "n_bars"),
    (("key_fifths",), False, "key_fifths"),
    (("time_signature",), [4, True], "time_signature"),
    (("notes", 0, "pitch"), True, "notes[0].pitch"),
    (("notes", 1, "onset"), [False, True], "notes[1].onset"),
    (("notes", 1, "duration"), [3, True], "notes[1].duration"),
    (("notes", 0, "tie_start"), "false", "notes[0].tie_start"),
    (("notes", 2, "tie_stop"), 1, "notes[2].tie_stop"),
    (("chords", 0, "chroma"), [False, 4, 7], "chords[0].chroma"),
    (("chords", 1, "onset_step"), True, "chords[1].onset_step"),
    (("chords", 0, "root"), False, "chords[0].root"),
]


class TestJson:
    def example(self) -> LeadSheet:
        return make_sheet(
            notes=(
                RawNote(62, Fraction(0), Fraction(1, 3)),
                RawNote(60, Fraction(1, 2), Fraction(3, 2), tie_start=True),
                RawNote(60, Fraction(2), Fraction(1), tie_stop=True),
            ),
            chords=(chord_from_kind(0, 0, "major"), chord_from_kind(8, 7, "dominant")),
            key_fifths=-3,
            pickup=False,
            n_bars=2,
        )

    def test_round_trip_preserves_everything(self):
        sheet = self.example()
        assert leadsheet_from_dict(leadsheet_to_dict(sheet)) == sheet
        assert loads_leadsheet(dumps_leadsheet(sheet)) == sheet

    def test_serialization_is_deterministic(self):
        sheet = self.example()
        assert dumps_leadsheet(sheet) == dumps_leadsheet(self.example())

    def test_fractions_survive_exactly(self):
        sheet = loads_leadsheet(dumps_leadsheet(self.example()))
        assert sheet.notes[0].duration == Fraction(1, 3)
        assert sheet.notes[1].onset == Fraction(1, 2)

    def test_tie_flags_survive(self):
        sheet = loads_leadsheet(dumps_leadsheet(self.example()))
        assert sheet.notes[1].tie_start and not sheet.notes[1].tie_stop
        assert sheet.notes[2].tie_stop

    def test_missing_field_is_named(self):
        obj = leadsheet_to_dict(self.example())
        del obj["key_fifths"]
        with pytest.raises(SchemaError, match="key_fifths"):
            leadsheet_from_dict(obj)

    def test_wrong_type_is_named(self):
        obj = leadsheet_to_dict(self.example())
        obj["n_bars"] = "eight"
        with pytest.raises(SchemaError, match="n_bars"):
            leadsheet_from_dict(obj)

    def test_bad_fraction_is_located(self):
        obj = leadsheet_to_dict(self.example())
        obj["notes"][1]["onset"] = [1, 0]
        with pytest.raises(SchemaError, match=r"notes\[1\].onset"):
            leadsheet_from_dict(obj)

    def test_unsupported_schema_version(self):
        obj = leadsheet_to_dict(self.example())
        obj["schema"] = 99
        with pytest.raises(SchemaError, match="schema version"):
            leadsheet_from_dict(obj)

    def test_invalid_note_is_located(self):
        obj = leadsheet_to_dict(self.example())
        obj["notes"][0]["pitch"] = 300
        with pytest.raises(SchemaError, match=r"notes\[0\]"):
            leadsheet_from_dict(obj)

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            loads_leadsheet("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            leadsheet_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "path,value,field", NOT_INTEGERS_OR_FLAGS, ids=[case[2] for case in NOT_INTEGERS_OR_FLAGS]
    )
    def test_booleans_are_not_integers_and_flags_are_booleans(
        self, tmp_path, path, value, field
    ):
        obj = leadsheet_to_dict(self.example())
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError, match=re.escape(field)):
            leadsheet_from_dict(obj)
        (tmp_path / "piece.json").write_text(json.dumps(obj))
        rejection = scan_corpus(tmp_path).manifest.rejections["piece"]
        assert rejection["reason"] == REJECT_UNREADABLE
        assert field in rejection["detail"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def loads_or_schema_error(data: bytes) -> None:
    try:
        result = loads_leadsheet(data)
    except SchemaError:
        return
    assert isinstance(result, LeadSheet)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_loads():
    section = README.read_text().split("### Lead-sheet JSON", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    sheet = loads_leadsheet(block)
    assert sheet.chords == (ChordSymbol(0, 7, (2, 7, 11)),)
    assert sheet.notes == (RawNote(67, Fraction(0), Fraction(1, 2)),)


class TestArbitraryInput:
    """Any bytes load as a lead sheet or raise SchemaError; nothing else."""

    def document(self) -> dict:
        return leadsheet_to_dict(TestJson().example())

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=500))
    def test_arbitrary_bytes(self, data):
        loads_or_schema_error(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_field_replaced_by_any_json_value(self, data):
        obj = self.document()
        target = obj
        if data.draw(st.booleans()):
            target = obj["notes"][data.draw(st.integers(0, len(obj["notes"]) - 1))]
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(JSON_VALUES)
        loads_or_schema_error(json.dumps(obj).encode())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_span_replaced(self, data):
        document = dumps_leadsheet(TestJson().example()).encode()
        start = data.draw(st.integers(0, len(document)))
        end = data.draw(st.integers(start, min(len(document), start + 16)))
        patch = data.draw(st.binary(max_size=16))
        loads_or_schema_error(document[:start] + patch + document[end:])

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"\x80", id="invalid-utf8"),
            pytest.param(b"\xff\xfe\x00", id="truncated-utf16"),
            pytest.param(b"[" * 100_000, id="nesting-deeper-than-recursion-limit"),
            pytest.param(b"1" * 5000, id="integer-over-digit-limit"),
        ],
    )
    def test_undecodable_json_is_a_schema_error(self, data):
        with pytest.raises(SchemaError, match="JSON"):
            loads_leadsheet(data)

    def test_chords_must_be_a_list(self):
        obj = self.document()
        obj["chords"] = 5
        with pytest.raises(SchemaError, match="chords"):
            leadsheet_from_dict(obj)
