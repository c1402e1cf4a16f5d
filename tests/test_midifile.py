"""MIDI writer, cross-checked by an independent reader."""

import pytest

from melodygen.midifile import (
    TICKS_PER_QUARTER,
    TICKS_PER_STEP,
    _variable_length,
    write_midi,
)
from support.midi_reader import read_midi


class TestVariableLength:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x00"),
            (0x40, b"\x40"),
            (0x7F, b"\x7f"),
            (0x80, b"\x81\x00"),
            (0x2000, b"\xc0\x00"),
            (0x3FFF, b"\xff\x7f"),
            (0x4000, b"\x81\x80\x00"),
            (0x0FFFFFFF, b"\xff\xff\xff\x7f"),
        ],
    )
    def test_reference_encodings(self, value, expected):
        # The expected bytes are the worked examples from the SMF spec table.
        assert _variable_length(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _variable_length(-1)


class TestHeader:
    def test_format_zero_single_track(self):
        parsed = read_midi(write_midi([]))
        assert parsed.format == 0
        assert parsed.n_tracks == 1
        assert parsed.division == TICKS_PER_QUARTER == 480

    def test_empty_file_still_has_tempo_and_end(self):
        parsed = read_midi(write_midi([], tempo_bpm=120))
        kinds = [kind for _, kind, _ in parsed.events]
        assert kinds == ["tempo", "end"]
        assert parsed.tempo_us == 500_000


class TestTempo:
    @pytest.mark.parametrize("bpm,expected_us", [(120, 500_000), (90, 666_666), (60, 1_000_000)])
    def test_tempo_microseconds(self, bpm, expected_us):
        assert read_midi(write_midi([], tempo_bpm=bpm)).tempo_us == expected_us

    def test_tempo_at_tick_zero(self):
        parsed = read_midi(write_midi([(60, 5, 2)], tempo_bpm=100))
        tempo_events = [t for t, kind, _ in parsed.events if kind == "tempo"]
        assert tempo_events == [0]

    def test_invalid_tempo(self):
        with pytest.raises(ValueError):
            write_midi([], tempo_bpm=0)


class TestNotes:
    def test_ticks_match_grid_steps(self):
        parsed = read_midi(write_midi([(60, 0, 4), (64, 8, 2)]))
        assert [(n.pitch, n.start_tick, n.end_tick) for n in parsed.notes] == [
            (60, 0, 4 * TICKS_PER_STEP),
            (64, 8 * TICKS_PER_STEP, 10 * TICKS_PER_STEP),
        ]
        assert TICKS_PER_STEP == 120

    def test_velocity_applied(self):
        parsed = read_midi(write_midi([(60, 0, 1)], velocity=33))
        assert parsed.notes[0].velocity == 33

    def test_adjacent_notes_off_before_on(self):
        parsed = read_midi(write_midi([(60, 0, 4), (62, 4, 4)]))
        boundary = [
            (kind, payload)
            for tick, kind, payload in parsed.events
            if tick == 4 * TICKS_PER_STEP and kind in ("on", "off")
        ]
        assert boundary[0][0] == "off" and boundary[0][1] == (60,)
        assert boundary[1][0] == "on" and boundary[1][1][0] == 62

    def test_repeated_pitch_pairs_fifo(self):
        parsed = read_midi(write_midi([(60, 0, 2), (60, 2, 2), (60, 4, 2)]))
        assert [(n.start_tick, n.end_tick) for n in parsed.notes] == [
            (0, 240),
            (240, 480),
            (480, 720),
        ]

    def test_unsorted_input_is_sorted_by_tick(self):
        parsed = read_midi(write_midi([(64, 8, 2), (60, 0, 4)]))
        assert [n.pitch for n in parsed.notes] == [60, 64]

    def test_overlapping_same_pitch_from_sustain(self):
        # Callers may pass overlapping same-pitch notes; the writer must still
        # emit parseable FIFO on/off pairs.
        parsed = read_midi(write_midi([(60, 0, 16), (60, 8, 24)]))
        assert len(parsed.notes) == 2

    @pytest.mark.parametrize(
        "note",
        [(-1, 0, 1), (128, 0, 1), (60, -1, 1), (60, 0, 0), (60, 0, -2)],
    )
    def test_invalid_notes_rejected(self, note):
        with pytest.raises(ValueError):
            write_midi([note])

    def test_invalid_velocity(self):
        with pytest.raises(ValueError):
            write_midi([(60, 0, 1)], velocity=0)
        with pytest.raises(ValueError):
            write_midi([(60, 0, 1)], velocity=128)


class TestTextEvents:
    def test_text_embedded_at_tick_zero(self):
        parsed = read_midi(write_midi([(60, 0, 1)], text_events=("run abc123", "two")))
        assert parsed.texts == ["run abc123", "two"]
        text_ticks = [t for t, kind, _ in parsed.events if kind == "text"]
        assert text_ticks == [0, 0]

    def test_long_text_uses_multibyte_length(self):
        text = "x" * 300
        parsed = read_midi(write_midi([], text_events=(text,)))
        assert parsed.texts == [text]


class TestDeterminism:
    def test_same_input_same_bytes(self):
        notes = [(60, 0, 4), (65, 4, 4), (60, 8, 8)]
        assert write_midi(notes, 97, text_events=("s",)) == write_midi(
            notes, 97, text_events=("s",)
        )

    def test_track_length_field_consistent(self):
        data = write_midi([(60, 0, 4)])
        track_len = int.from_bytes(data[18:22], "big")
        assert len(data) == 22 + track_len
