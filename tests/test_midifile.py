"""MIDI writer, cross-checked by an independent reader."""

import pytest
from hypothesis import given, settings, strategies as st

from melodygen.midifile import (
    MAX_TEMPO_BPM,
    MIN_TEMPO_BPM,
    TICKS_PER_QUARTER,
    TICKS_PER_STEP,
    VELOCITY,
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

    @pytest.mark.parametrize("bpm", [-1, MIN_TEMPO_BPM - 1, MAX_TEMPO_BPM + 1])
    def test_tempo_the_event_cannot_hold_is_rejected(self, bpm):
        # Below 4 bpm a quarter lasts more than 0xFFFFFF microseconds, which
        # the 3-byte set-tempo field would silently truncate.
        with pytest.raises(ValueError, match="tempo"):
            write_midi([], tempo_bpm=bpm)

    @pytest.mark.parametrize(
        "bpm,expected_us", [(MIN_TEMPO_BPM, 15_000_000), (MAX_TEMPO_BPM, 1)]
    )
    def test_extreme_tempos_round_trip(self, bpm, expected_us):
        assert read_midi(write_midi([], tempo_bpm=bpm)).tempo_us == expected_us


class TestNotes:
    def test_ticks_match_grid_steps(self):
        parsed = read_midi(write_midi([(60, 0, 4), (64, 8, 2)]))
        assert [(n.pitch, n.start_tick, n.end_tick) for n in parsed.notes] == [
            (60, 0, 4 * TICKS_PER_STEP),
            (64, 8 * TICKS_PER_STEP, 10 * TICKS_PER_STEP),
        ]
        assert TICKS_PER_STEP == 120

    def test_velocity_applied(self):
        parsed = read_midi(write_midi([(60, 0, 1), (62, 1, 1)]))
        assert [note.velocity for note in parsed.notes] == [90, 90]

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


def _overlaps_same_pitch(notes) -> bool:
    spans = sorted((pitch, on, on + dur) for pitch, on, dur in notes)
    return any(
        a[0] == b[0] and b[1] < a[2] for a, b in zip(spans, spans[1:])
    )


class TestRoundTrip:
    """Whatever write_midi writes, the independent reader reads back."""

    @settings(max_examples=200, deadline=None)
    @given(
        notes=st.lists(
            st.tuples(st.integers(0, 127), st.integers(0, 5000), st.integers(1, 64)),
            max_size=30,
        ),
        tempo=st.integers(MIN_TEMPO_BPM, MAX_TEMPO_BPM),
        texts=st.lists(st.text(max_size=200), max_size=3),
    )
    def test_notes_ticks_velocity_and_text(self, notes, tempo, texts):
        parsed = read_midi(write_midi(notes, tempo, text_events=texts))
        assert (parsed.format, parsed.n_tracks, parsed.division) == (0, 1, TICKS_PER_QUARTER)
        assert parsed.tempo_us == 60_000_000 // tempo
        assert parsed.texts == texts
        ticks = [tick for tick, _, _ in parsed.events]
        assert ticks == sorted(ticks) and ticks[-1] == max(
            [0] + [(on + dur) * TICKS_PER_STEP for _, on, dur in notes]
        )
        ons = sorted((tick, p[0]) for tick, kind, p in parsed.events if kind == "on")
        offs = sorted((tick, p[0]) for tick, kind, p in parsed.events if kind == "off")
        assert ons == sorted((on * TICKS_PER_STEP, pitch) for pitch, on, _ in notes)
        assert offs == sorted(
            ((on + dur) * TICKS_PER_STEP, pitch) for pitch, on, dur in notes
        )
        assert all(note.velocity == VELOCITY for note in parsed.notes)
        # Same-pitch overlaps pair first-in first-out, so only notes that do
        # not overlap one of their own pitch come back whole.
        if not _overlaps_same_pitch(notes):
            assert sorted(
                (n.pitch, n.start_tick, n.end_tick) for n in parsed.notes
            ) == sorted(
                (pitch, on * TICKS_PER_STEP, (on + dur) * TICKS_PER_STEP)
                for pitch, on, dur in notes
            )
