"""The 38-event melody grid: transposition, quantization, round trips."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melodygen.encode import (
    ALPHABET_SIZE,
    MAX_BARS,
    NO_EVENT,
    NOTE_OFF,
    N_PITCHES,
    PITCH_MAX,
    PITCH_MIN,
    STEPS_PER_BAR,
    MelodyGrid,
    fold_octaves,
    grid_decode,
    grid_encode,
    normalize_sheet,
    one_hot_matrix,
    quantize_ratio,
    sustain_extend,
    transposition_shift,
    tonic_pitch_class,
)
from melodygen.leadsheet import (
    CHORD_KIND_INTERVALS,
    LeadSheet,
    RawNote,
    chord_from_kind,
    loads_leadsheet,
)
from melodygen.midifile import write_midi
from melodygen.musicxml import parse_musicxml
from support.midi_reader import read_midi
from support.musicxml_builder import attributes_xml, measure_xml, note_xml, score_xml
from support.quantize_oracle import reference_grid_encode, reference_quantize


@st.composite
def valid_grids(draw) -> MelodyGrid:
    """1-4 bars of note-ons, holds, and note-offs only after a sounding note."""
    n_bars = draw(st.integers(1, 4))
    events, sounding = [], False
    for _ in range(n_bars * STEPS_PER_BAR):
        kinds = ["on", "hold", "off"] if sounding else ["on", "hold"]
        kind = draw(st.sampled_from(kinds))
        if kind == "on":
            events.append(draw(st.integers(0, N_PITCHES - 1)))
        else:
            events.append(NOTE_OFF if kind == "off" else NO_EVENT)
        sounding = kind == "on" or (sounding and kind == "hold")
    return MelodyGrid(tuple(events))


@st.composite
def rational_sheets(draw) -> LeadSheet:
    """1-2 bars of up to 6 notes at any pitch, with rational onsets and
    durations of denominator up to 48: overlapping notes, notes that collide
    or vanish under quantization and notes past the last bar included."""
    n_bars = draw(st.integers(1, 2))
    notes = []
    for _ in range(draw(st.integers(0, 6))):
        onset_den, duration_den = draw(st.integers(1, 48)), draw(st.integers(1, 48))
        onset = Fraction(draw(st.integers(0, 4 * n_bars * onset_den)), onset_den)
        duration = Fraction(draw(st.integers(1, 2 * duration_den)), duration_den)
        notes.append(RawNote(draw(st.integers(0, 127)), onset, duration))
    notes.sort(key=lambda note: (note.onset, note.midi_pitch))
    return LeadSheet("q", 0, (4, 4), False, n_bars, tuple(notes))


def sheet_from_steps(step_notes, n_bars, key_fifths=0, chords=()):
    """Build a LeadSheet from (pitch, onset_step, duration_steps) triples."""
    notes = tuple(
        RawNote(pitch, Fraction(on, 4), Fraction(dur, 4))
        for pitch, on, dur in sorted(step_notes, key=lambda n: (n[1], n[0]))
    )
    return LeadSheet(
        id="t",
        key_fifths=key_fifths,
        time_signature=(4, 4),
        pickup=False,
        n_bars=n_bars,
        notes=notes,
        chords=tuple(chords),
    )


class TestConstants:
    def test_alphabet_layout(self):
        assert N_PITCHES == 36
        assert NOTE_OFF == 36
        assert NO_EVENT == 37
        assert ALPHABET_SIZE == 38
        assert PITCH_MAX - PITCH_MIN + 1 == N_PITCHES


class TestMelodyGrid:
    def test_length_must_be_whole_bars(self):
        with pytest.raises(ValueError, match="multiple"):
            MelodyGrid(tuple([NO_EVENT] * 15))
        grid = MelodyGrid(tuple([NO_EVENT] * 32))
        assert grid.n_bars == 2 and len(grid) == 32

    @pytest.mark.parametrize("bars", [0, MAX_BARS + 1])
    def test_bar_count_outside_the_bound_rejected(self, bars):
        with pytest.raises(ValueError, match=f"a grid holds 1 to {MAX_BARS} bars, not {bars}$"):
            MelodyGrid((NO_EVENT,) * STEPS_PER_BAR * bars)
        MelodyGrid((NO_EVENT,) * STEPS_PER_BAR * MAX_BARS)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="1 to"):
            MelodyGrid(())

    def test_event_range_checked(self):
        with pytest.raises(ValueError, match="alphabet"):
            MelodyGrid(tuple([38] + [NO_EVENT] * 15))

    def test_note_off_requires_sounding_note(self):
        with pytest.raises(ValueError, match="note-off"):
            MelodyGrid(tuple([NOTE_OFF] + [NO_EVENT] * 15))

    def test_note_off_after_hold_is_fine(self):
        events = [0] + [NO_EVENT] * 5 + [NOTE_OFF] + [NO_EVENT] * 9
        MelodyGrid(tuple(events))

    def test_double_note_off_rejected(self):
        events = [0, NOTE_OFF, NOTE_OFF] + [NO_EVENT] * 13
        with pytest.raises(ValueError):
            MelodyGrid(tuple(events))

    def test_to_array(self):
        grid = MelodyGrid(tuple([5] + [NO_EVENT] * 15))
        arr = grid.to_array()
        assert arr.dtype == np.int64 and arr[0] == 5


class TestTransposition:
    # Key signature (count of sharps, negative for flats) -> semitone shift
    # moving the major tonic to C by the smallest motion; ties fall downward.
    EXPECTED_SHIFTS = {
        -7: 1, -6: -6, -5: -1, -4: 4, -3: -3, -2: 2, -1: -5,
        0: 0, 1: 5, 2: -2, 3: 3, 4: -4, 5: 1, 6: -6, 7: -1,
    }

    def test_tonic_pitch_classes(self):
        assert tonic_pitch_class(0) == 0  # C
        assert tonic_pitch_class(1) == 7  # G
        assert tonic_pitch_class(-1) == 5  # F
        assert tonic_pitch_class(2) == 2  # D
        assert tonic_pitch_class(-3) == 3  # E flat

    def test_shift_table(self):
        for fifths, expected in self.EXPECTED_SHIFTS.items():
            assert transposition_shift(fifths) == expected, fifths

    def test_shift_lands_tonic_on_c_minimally(self):
        for fifths in range(-7, 8):
            shift = transposition_shift(fifths)
            assert (tonic_pitch_class(fifths) + shift) % 12 == 0
            assert -6 <= shift <= 5

    def test_transpose_g_major_up(self):
        sheet = sheet_from_steps([(55, 0, 4), (62, 4, 4)], 1, key_fifths=1)
        out = normalize_sheet(sheet)
        assert out.key_fifths == 0
        assert [n.midi_pitch for n in out.notes] == [60, 67]

    def test_transpose_f_major_down(self):
        sheet = sheet_from_steps([(65, 0, 4)], 1, key_fifths=-1)
        assert normalize_sheet(sheet).notes[0].midi_pitch == 60

    def test_c_major_untouched(self):
        sheet = sheet_from_steps([(60, 0, 4)], 1, key_fifths=0)
        assert normalize_sheet(sheet) is sheet

    def test_chords_shift_with_melody(self):
        chord = chord_from_kind(0, 7, "major")  # G: {7, 11, 2}
        sheet = sheet_from_steps([(67, 0, 4)], 1, key_fifths=1, chords=(chord,))
        moved = normalize_sheet(sheet).chords[0]
        assert moved.root_pitch_class == 0
        assert moved.chroma == (0, 4, 7)

    def test_chroma_vector_rotates(self):
        chord = chord_from_kind(0, 9, "minor-seventh")
        sheet = sheet_from_steps([(60, 0, 4)], 1, key_fifths=3, chords=(chord,))
        shift = transposition_shift(3)
        before = chord.chroma_vector()
        after = normalize_sheet(sheet).chords[0].chroma_vector()
        assert all(
            after[(pc + shift) % 12] == before[pc] for pc in range(12)
        )

    def test_onsets_and_durations_unchanged(self):
        sheet = sheet_from_steps([(67, 3, 5)], 1, key_fifths=1)
        out = normalize_sheet(sheet)
        assert out.notes[0].onset == Fraction(3, 4)
        assert out.notes[0].duration == Fraction(5, 4)


class TestFoldOctaves:
    @pytest.mark.parametrize(
        "pitch,expected",
        [(36, 36), (71, 71), (35, 47), (72, 60), (0, 36), (127, 67), (53, 53)],
    )
    def test_folding(self, pitch, expected):
        folded = fold_octaves(pitch)
        assert folded == expected
        assert PITCH_MIN <= folded <= PITCH_MAX
        assert folded % 12 == pitch % 12

    def test_folds_the_shifted_extremes(self):
        # Shifts of -6..+5 take MIDI pitches 0..127 to -6..132; any integer folds.
        assert fold_octaves(-6) == 42
        assert fold_octaves(132) == 60
        assert fold_octaves(133) == 61


class TestNormalizeSheet:
    def test_transposes_then_folds(self):
        # D5 in G major: up 5 to G5 (79), then folded down to G4 (67).
        sheet = sheet_from_steps([(74, 0, 4)], 1, key_fifths=1)
        assert normalize_sheet(sheet).notes[0].midi_pitch == 67

    def test_folding_past_a_note_at_the_same_onset_keeps_the_sheet_sorted(self):
        # 30 folds up to 42, past the 40 that shares its onset.
        sheet = sheet_from_steps([(30, 0, 4), (40, 0, 8)], 1)
        normalized = normalize_sheet(sheet)
        assert [(n.midi_pitch, n.duration) for n in normalized.notes] == [
            (40, Fraction(2)),
            (42, Fraction(1)),
        ]
        assert grid_encode(normalized) == grid_encode(sheet)

    def test_wrapping_at_the_top_of_midi_range_keeps_the_sheet_sorted(self):
        # B-flat major shifts up 2, past the MIDI range: 129 folds to 69,
        # above the 127 that shares its onset and folds to 67.
        sheet = sheet_from_steps([(125, 0, 4), (127, 0, 8)], 1, key_fifths=-2)
        assert [n.midi_pitch for n in normalize_sheet(sheet).notes] == [67, 69]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_pass_moves_every_note_and_chord_by_the_shift(self, data):
        key_fifths = data.draw(st.integers(-7, 7))
        shift = transposition_shift(key_fifths)
        # Onsets on four steps, so notes share them, at any MIDI pitch.
        notes = data.draw(st.lists(
            st.builds(
                RawNote,
                midi_pitch=st.integers(0, 127) | st.sampled_from([0, 5, 6, 122, 127]),
                onset=st.integers(0, 3).map(lambda step: Fraction(step, 4)),
                duration=st.integers(1, 8).map(lambda steps: Fraction(steps, 4)),
                tie_start=st.booleans(),
                tie_stop=st.booleans(),
            ),
            max_size=8,
        ))
        notes.sort(key=lambda note: (note.onset, note.midi_pitch))
        steps = data.draw(st.lists(st.integers(0, 15), unique=True, max_size=3))
        chords = tuple(
            chord_from_kind(step, data.draw(st.integers(0, 11)),
                            data.draw(st.sampled_from(sorted(CHORD_KIND_INTERVALS))))
            for step in sorted(steps)
        )
        sheet = LeadSheet("p", key_fifths, (4, 4), False, 1, tuple(notes), chords)

        out = normalize_sheet(sheet)

        assert out.key_fifths == 0
        assert (out.id, out.time_signature, out.pickup, out.n_bars) == ("p", (4, 4), False, 1)
        assert list(out.notes) == sorted(out.notes, key=lambda n: (n.onset, n.midi_pitch))
        got = [(n.midi_pitch, n.onset, n.duration, n.tie_start, n.tie_stop) for n in out.notes]
        want = [(fold_octaves(n.midi_pitch + shift), n.onset, n.duration, n.tie_start, n.tie_stop)
                for n in notes]
        assert sorted(got) == sorted(want)
        assert [(c.onset_step, c.root_pitch_class, c.chroma) for c in out.chords] == [
            (c.onset_step, (c.root_pitch_class + shift) % 12,
             tuple(sorted((pc + shift) % 12 for pc in c.chroma)))
            for c in chords
        ]


class TestQuantize:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(0), 0),
            (Fraction(1, 2), 0),  # exact halves resolve to the earlier step
            (Fraction(3, 2), 1),
            (Fraction(5, 2), 2),
            (Fraction(1, 3), 0),
            (Fraction(2, 3), 1),
            (Fraction(7, 10), 1),
            (Fraction(3, 10), 0),
            (7, 7),
        ],
    )
    def test_values(self, value, expected):
        assert quantize_ratio(value.numerator, value.denominator) == expected

    def test_monotone(self):
        values = [Fraction(n, 12) for n in range(0, 60)]
        quantized = [quantize_ratio(v.numerator, v.denominator) for v in values]
        assert quantized == sorted(quantized)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.integers(-10**6, 10**6),
            st.fractions(),
            st.integers(-10**6, 10**6).map(lambda n: Fraction(2 * n + 1, 2)),
        )
    )
    def test_matches_the_fraction_formula(self, value):
        quantized = quantize_ratio(value.numerator, value.denominator)
        assert quantized == reference_quantize(value)
        assert type(quantized) is int


class TestGridEncode:
    @settings(max_examples=400, deadline=None)
    @given(rational_sheets())
    def test_matches_the_fraction_reference(self, sheet):
        try:
            expected = reference_grid_encode(sheet)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                grid_encode(sheet)
            assert str(raised.value) == str(exc)
        else:
            assert grid_encode(sheet) == expected

    def test_simple_bar(self):
        sheet = sheet_from_steps([(60, 0, 4), (62, 4, 2), (64, 8, 8)], 1)
        grid = grid_encode(sheet)
        expected = [NO_EVENT] * 16
        expected[0] = 60 - PITCH_MIN
        expected[4] = 62 - PITCH_MIN
        expected[6] = NOTE_OFF
        expected[8] = 64 - PITCH_MIN
        assert list(grid.events) == expected

    def test_adjacent_notes_need_no_note_off(self):
        sheet = sheet_from_steps([(60, 0, 4), (62, 4, 12)], 1)
        events = grid_encode(sheet).events
        assert events[4] == 62 - PITCH_MIN
        assert NOTE_OFF not in events

    def test_trailing_note_runs_to_grid_end(self):
        sheet = sheet_from_steps([(60, 0, 16)], 1)
        assert NOTE_OFF not in grid_encode(sheet).events

    def test_note_off_never_overwrites_next_onset(self):
        sheet = sheet_from_steps([(60, 0, 8), (62, 8, 8)], 1)
        events = grid_encode(sheet).events
        assert events[8] == 62 - PITCH_MIN

    def test_requires_common_time(self):
        sheet = LeadSheet("t", 0, (3, 4), False, 1, ())
        with pytest.raises(ValueError, match="4/4"):
            grid_encode(sheet)

    def test_quantization_ties_round_earlier(self):
        # Onset 1/8 quarter = step 0.5 -> step 0; end 9/8 quarter = 4.5 -> 4.
        sheet = LeadSheet(
            "t", 0, (4, 4), False, 1,
            (RawNote(60, Fraction(1, 8), Fraction(1)),),
        )
        events = grid_encode(sheet).events
        assert events[0] == 60 - PITCH_MIN
        assert events[4] == NOTE_OFF

    def test_zero_length_note_dropped(self):
        # Onset 0.4 steps and end 0.44 steps both quantize to step 0.
        sheet = LeadSheet(
            "t", 0, (4, 4), False, 1,
            (RawNote(60, Fraction(1, 10), Fraction(1, 100)),),
        )
        assert set(grid_encode(sheet).events) == {NO_EVENT}

    def test_same_onset_keeps_longest_then_highest(self):
        sheet = sheet_from_steps([(60, 0, 8), (64, 0, 4)], 1)
        events = grid_encode(sheet).events
        assert events[0] == 60 - PITCH_MIN  # longer wins over higher
        sheet = sheet_from_steps([(60, 0, 4), (64, 0, 4)], 1)
        assert grid_encode(sheet).events[0] == 64 - PITCH_MIN  # tie: higher

    def test_overlap_raises(self):
        sheet = sheet_from_steps([(60, 0, 8), (62, 4, 4)], 1)
        with pytest.raises(ValueError, match="not monophonic"):
            grid_encode(sheet)

    def test_note_past_final_bar_raises(self):
        sheet = sheet_from_steps([(60, 12, 8)], 1)
        with pytest.raises(ValueError, match="final bar"):
            grid_encode(sheet)

    def test_out_of_range_pitches_folded(self):
        sheet = sheet_from_steps([(24, 0, 4), (84, 8, 4)], 1)
        events = grid_encode(sheet).events
        assert events[0] == 36 - PITCH_MIN
        assert events[8] == 60 - PITCH_MIN


@st.composite
def tied_bars(draw) -> list[list[tuple]]:
    """1-3 bars of (pitch or None for a rest, 16th steps, tie_start,
    tie_stop) notes that fill each bar; two pitches, so that ties often join."""
    bars = []
    for _ in range(draw(st.integers(1, 3))):
        bar, filled = [], 0
        while filled < STEPS_PER_BAR:
            steps = min(draw(st.sampled_from((1, 2, 3, 4, 8))), STEPS_PER_BAR - filled)
            pitch = draw(st.sampled_from((None, 60, 62)))
            bar.append((pitch, steps, draw(st.booleans()), draw(st.booleans())))
            filled += steps
        bars.append(bar)
    return bars


TIE_TYPES = {(True, False): "start", (False, True): "stop", (True, True): "both"}


def tied_documents(bars) -> tuple[str, str]:
    """The same piece as a MusicXML document and as lead-sheet JSON."""
    measures, notes, onset = [], [], 0
    for index, bar in enumerate(bars):
        body = attributes_xml(divisions=4, key_fifths=0, time=(4, 4)) if index == 0 else ""
        for pitch, steps, start, stop in bar:
            if pitch is None:
                body += note_xml(None, steps)
            else:
                body += note_xml(pitch, steps, tie=TIE_TYPES.get((start, stop)))
                notes.append({"pitch": pitch, "onset": [onset, 4], "duration": [steps, 4],
                              "tie_start": start, "tie_stop": stop})
            onset += steps
        measures.append(measure_xml(body, index + 1))
    doc = {"schema": 1, "id": "tied", "key_fifths": 0, "time_signature": [4, 4],
           "pickup": False, "n_bars": len(bars), "notes": notes, "chords": []}
    return score_xml(measures), json.dumps(doc)


def encoded_events(sheet) -> tuple[int, ...]:
    assert isinstance(sheet, LeadSheet)
    return grid_encode(normalize_sheet(sheet)).events


class TestTies:
    """MusicXML ties and JSON tie flags encode by one rule."""

    def test_half_tied_to_half_is_one_attack_in_either_format(self):
        xml, doc = tied_documents([[(60, 8, True, False), (60, 8, False, True)]])
        expected = (60 - PITCH_MIN,) + (NO_EVENT,) * 15
        assert encoded_events(parse_musicxml(xml)) == expected
        assert encoded_events(loads_leadsheet(doc)) == expected

    def test_flags_that_join_nothing_keep_both_attacks(self):
        # Another pitch, a gap, and a stop with no start before it.
        for bar in ([(60, 8, True, False), (62, 8, False, True)],
                    [(60, 4, True, False), (None, 4, False, False), (60, 8, False, True)],
                    [(60, 8, False, False), (60, 8, False, True)]):
            xml, doc = tied_documents([bar])
            events = encoded_events(loads_leadsheet(doc))
            assert events == encoded_events(parse_musicxml(xml))
            assert sum(event < N_PITCHES for event in events) == 2

    @settings(max_examples=200, deadline=None)
    @given(tied_bars())
    def test_json_encodes_like_musicxml(self, bars):
        xml, doc = tied_documents(bars)
        assert encoded_events(loads_leadsheet(doc)) == encoded_events(parse_musicxml(xml))


class TestGridDecode:
    def test_decode_matches_hand_expectation(self):
        events = [NO_EVENT] * 16
        events[0] = 60 - PITCH_MIN
        events[4] = 62 - PITCH_MIN
        events[6] = NOTE_OFF
        events[8] = 64 - PITCH_MIN
        notes = grid_decode(MelodyGrid(tuple(events)))
        assert notes == [(60, 0, 4), (62, 4, 2), (64, 8, 8)]

    def test_empty_grid(self):
        assert grid_decode(MelodyGrid(tuple([NO_EVENT] * 16))) == []

    def test_round_trip_random_melodies(self):
        rng = random.Random(1234)
        for trial in range(60):
            n_bars = rng.randint(1, 4)
            total = n_bars * STEPS_PER_BAR
            notes, step = [], 0
            while step < total:
                if rng.random() < 0.3:
                    step += rng.randint(1, 3)  # rest
                    continue
                duration = rng.randint(1, min(8, total - step))
                notes.append((rng.randint(PITCH_MIN, PITCH_MAX), step, duration))
                step += duration + (rng.randint(1, 2) if rng.random() < 0.4 else 0)
            sheet = sheet_from_steps(notes, n_bars)
            decoded = grid_decode(grid_encode(sheet))
            assert decoded == sorted(notes, key=lambda n: n[1]), f"trial {trial}"

    @settings(max_examples=300, deadline=None)
    @given(valid_grids())
    def test_every_valid_grid_survives_decode_and_encode(self, grid):
        sheet = sheet_from_steps(grid_decode(grid), grid.n_bars)
        assert grid_encode(sheet) == grid


class TestOneHot:
    def test_one_hot_matrix(self):
        mat = one_hot_matrix([0, 37, 5], ALPHABET_SIZE)
        assert mat.shape == (3, ALPHABET_SIZE)
        assert mat.sum() == 3.0
        assert mat[1, 37] == 1.0

    def test_one_hot_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot_matrix([0, 38], ALPHABET_SIZE)

    def test_one_hot_matrix_empty(self):
        assert one_hot_matrix([], 10).shape == (0, 10)


class TestSustainExtend:
    def test_extends_to_bar_end(self):
        assert sustain_extend([(60, 0, 4)]) == [(60, 0, 16)]

    def test_note_at_bar_end_unchanged(self):
        assert sustain_extend([(60, 0, 16)]) == [(60, 0, 16)]
        assert sustain_extend([(60, 12, 4)]) == [(60, 12, 4)]

    def test_note_crossing_barline_extends_to_second_bar(self):
        assert sustain_extend([(60, 14, 4)]) == [(60, 14, 18)]

    def test_never_shortens(self):
        rng = random.Random(7)
        for _ in range(100):
            on = rng.randint(0, 63)
            dur = rng.randint(1, 32)
            [(pitch, out_on, out_dur)] = sustain_extend([(70, on, dur)])
            assert out_on == on and out_dur >= dur
            assert (out_on + out_dur) % STEPS_PER_BAR == 0

    def test_repeated_pitch_released_before_it_sounds_again(self):
        extended = sustain_extend([(60, 0, 2), (60, 4, 2)])
        assert extended == [(60, 0, 4), (60, 4, 12)]
        first, second = read_midi(write_midi(extended)).notes
        assert first.end_tick <= second.start_tick

    def test_non_overlapping_notes_stay_non_overlapping(self):
        rng = random.Random(11)
        for _ in range(100):
            notes, on = [], rng.randint(0, 20)
            while on < 64:
                dur = rng.randint(1, 6)
                notes.append((rng.choice([60, 60, 62]), on, dur))
                on += dur + rng.choice([0, 0, 3, 17])
            extended = sustain_extend(notes)
            for (_, on, dur), (_, next_on, _) in zip(extended, extended[1:]):
                assert on + dur <= next_on
            for (_, on, dur), (_, out_on, out_dur) in zip(notes, extended):
                assert out_on == on and out_dur >= dur
