"""Feature layout for the three generator levels.

The input vector layout is a frozen contract (models trained against it are
serialized with a layout version), so these tests nail down exact dimensions
and block placement, not just shapes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from melodygen.encode import (
    ALPHABET_SIZE,
    N_PITCHES,
    NO_EVENT,
    NOTE_OFF,
    MelodyGrid,
    grid_encode,
)
from melodygen.hrnn.datasets import (
    TrainingSequence,
    build_datasets,
    pad_batch,
    piece_level_sequences,
)
from melodygen.hrnn.specs import (
    VARIANTS,
    LayerSpec,
    build_layer_inputs,
    chord_chroma_by_beat,
    fan_out,
    layer_features,
    layer_specs,
    variant_specs,
)
from melodygen.leadsheet import CHORD_KIND_INTERVALS, chord_from_kind
from melodygen.profiles import (
    BAR_WIDTH,
    BEAT_WIDTH,
    ProfileCodebook,
    binarize,
    build_codebook,
    cut_clips,
    profile_sequences,
)
from melodygen.synthetic import synthetic_corpus
from support.feature_oracle import reference_input_row, reference_lookback


def note_spec(**overrides):
    base = dict(
        level="note",
        alphabet_size=ALPHABET_SIZE,
        bar_condition=0,
        beat_condition=0,
        chroma=False,
        lookback_distances=(16, 32),
        position_bits=4,
    )
    base.update(overrides)
    return LayerSpec(**base)


def lookback_at(history, position, spec):
    """The builder's lookback block at one position of one history."""
    row = layer_features(spec, np.asarray(history)[None], position, position + 1)[0, 0]
    return row[spec.alphabet_size + spec.condition_dim :]


def position_counter_bits(position, n_bits):
    """The builder's position counter at one position."""
    spec = note_spec(alphabet_size=2, lookback_distances=(1, 2), position_bits=n_bits)
    history = np.zeros((1, position + 1), dtype=np.int64)
    return layer_features(spec, history, position, position + 1)[0, 0, spec.input_dim - n_bits :]


class TestLayerSpecs:
    def test_full_stack_dimensions(self):
        specs = layer_specs("3L", beat_k=8, bar_k=16)
        assert set(specs) == {"bar", "beat", "note"}
        # bar: 16 one-hot + (2*16 lookback one-hots + 2 flags + 0 bits)
        assert specs["bar"].input_dim == 50
        # beat: 8 one-hot + 16 bar condition + (16 + 2 + 2)
        assert specs["beat"].input_dim == 44
        # note: 38 + 16 + 8 + (76 + 2 + 4)
        assert specs["note"].input_dim == 144

    def test_only_the_note_level_holds_grid_events(self):
        rules = {level: (spec.grid_events, spec.no_event_index)
                 for level, spec in layer_specs("3L").items()}
        assert rules == {"bar": (False, None), "beat": (False, None), "note": (True, NO_EVENT)}

    def test_chord_conditioning_adds_chroma_to_beat_and_note(self):
        specs = layer_specs("3L", chords=True, beat_k=8, bar_k=16)
        assert specs["bar"].input_dim == 50  # bar level never sees chords
        assert specs["beat"].input_dim == 44 + 12
        assert specs["note"].input_dim == 144 + 12

    def test_two_level_variant(self):
        specs = layer_specs("2L", beat_k=8)
        assert set(specs) == {"beat", "note"}
        assert specs["beat"].bar_condition == 0
        assert specs["beat"].input_dim == 8 + (16 + 2 + 2)
        assert specs["note"].input_dim == 38 + 8 + (76 + 2 + 4)

    def test_single_level_variant(self):
        specs = layer_specs("1L")
        assert set(specs) == {"note"}
        assert specs["note"].condition_dim == 0
        assert specs["note"].input_dim == 120

    def test_single_level_with_chords(self):
        specs = layer_specs("1L", chords=True)
        assert specs["note"].input_dim == 132

    def test_codebook_sizes_flow_into_dims(self):
        specs = layer_specs("3L", beat_k=5, bar_k=9)
        assert specs["bar"].alphabet_size == 9
        assert specs["beat"].alphabet_size == 5
        assert specs["beat"].bar_condition == 9
        assert specs["note"].bar_condition == 9
        assert specs["note"].beat_condition == 5

    # Every level of every variant at beat_k=5 and bar_k=9: alphabet, bar and
    # beat condition, chroma when chord-conditioned, lookback, position bits.
    PINNED = {
        "1L": [("note", 38, 0, 0, True, [16, 32], 4)],
        "2L": [("beat", 5, 0, 0, True, [4, 8], 2), ("note", 38, 0, 5, True, [16, 32], 4)],
        "3L": [
            ("bar", 9, 0, 0, False, [2, 4], 0),
            ("beat", 5, 9, 0, True, [4, 8], 2),
            ("note", 38, 9, 5, True, [16, 32], 4),
        ],
    }

    @pytest.mark.parametrize("chords", [False, True])
    @pytest.mark.parametrize("variant", ["1L", "2L", "3L"])
    def test_every_variant_pinned(self, variant, chords):
        specs = layer_specs(variant, chords=chords, beat_k=5, bar_k=9)
        assert [spec.to_dict() for spec in specs.values()] == [
            {"level": level, "alphabet_size": alphabet, "bar_condition": bar,
             "beat_condition": beat, "chroma": chords and chroma,
             "lookback_distances": lookback, "position_bits": bits}
            for level, alphabet, bar, beat, chroma, lookback, bits in self.PINNED[variant]
        ]
        assert list(specs) == [spec.level for spec in specs.values()]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            layer_specs("4L")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            note_spec(level="chorus")


class TestPositionBits:
    def test_little_endian_counter(self):
        assert position_counter_bits(5, 4).tolist() == [1.0, 0.0, 1.0, 0.0]
        assert position_counter_bits(0, 4).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert position_counter_bits(15, 4).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_wraps_at_cycle_length(self):
        assert np.array_equal(position_counter_bits(16, 4), position_counter_bits(0, 4))
        assert np.array_equal(position_counter_bits(21, 2), position_counter_bits(1, 2))

    def test_zero_bits_is_empty(self):
        assert position_counter_bits(7, 0).shape == (0,)


class TestLookback:
    def test_position_zero_is_all_zero(self):
        spec = note_spec()
        history = np.arange(40) % ALPHABET_SIZE
        assert not lookback_at(history, 0, spec).any()

    def test_lookback_one_hot_placement(self):
        spec = note_spec()
        history = np.full(40, NO_EVENT, dtype=np.int64)
        history[0] = 7
        history[16] = 9
        feat = lookback_at(history, 32, spec)
        # distance 16 block first: one-hot of history[16] == 9
        assert feat[9] == 1.0 and feat[:38].sum() == 1.0
        # distance 32 block second: one-hot of history[0] == 7
        assert feat[38 + 7] == 1.0 and feat[38:76].sum() == 1.0

    def test_repeat_flag_turns_on_when_in_range(self):
        spec = note_spec(lookback_distances=(2, 4), position_bits=0)
        # flag j at position p compares history[p-1] with history[p-1-d]
        history = np.array([5, 1, 5, 2, 9], dtype=np.int64)
        feat = lookback_at(history, 3, spec)
        flags = feat[2 * ALPHABET_SIZE : 2 * ALPHABET_SIZE + 2]
        assert flags.tolist() == [1.0, 0.0]  # history[2]==history[0], d=4 o.o.r.

    def test_repeat_flag_zero_before_range(self):
        spec = note_spec(lookback_distances=(2, 4), position_bits=0)
        history = np.array([5, 5, 5, 5, 5], dtype=np.int64)
        feat = lookback_at(history, 2, spec)  # p-1-2 = -1: out of range
        flags = feat[2 * ALPHABET_SIZE : 2 * ALPHABET_SIZE + 2]
        assert flags.tolist() == [0.0, 0.0]

    def test_matrix_agrees_with_single_positions(self):
        rng = np.random.default_rng(3)
        for spec in (
            note_spec(),
            note_spec(level="beat", alphabet_size=8, lookback_distances=(4, 8), position_bits=2),
            note_spec(level="bar", alphabet_size=16, lookback_distances=(2, 4), position_bits=0),
        ):
            events = rng.integers(0, spec.alphabet_size, size=48)
            matrix = layer_features(spec, events[None], 0, 48)[0, :, spec.alphabet_size :]
            assert matrix.shape == (48, spec.lookback_dim)
            for position in range(48):
                expected = reference_lookback(events, position, spec)
                assert np.array_equal(matrix[position], expected), position
                assert np.array_equal(lookback_at(events, position, spec), expected), position

    def test_never_reads_at_or_after_position(self):
        spec = note_spec()
        events = np.zeros(40, dtype=np.int64)
        a = lookback_at(events, 20, spec)
        events[20:] = 11  # mutate the "future"
        b = lookback_at(events, 20, spec)
        assert np.array_equal(a, b)


class TestPreviousEvents:
    def test_shifted_one_hot(self):
        spec = note_spec(level="bar", alphabet_size=4, lookback_distances=(2, 4), position_bits=0)
        out = layer_features(spec, np.array([[2, 0, 1]]), 0, 3)[0, :, :4]
        assert out.tolist() == [
            [0, 0, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
        ]


class TestFanOut:
    def test_one_bar_profile_covers_sixteen_steps(self):
        out = fan_out(np.array([3, 1]), 16)
        assert out.shape == (32,)
        assert set(out[:16]) == {3} and set(out[16:]) == {1}

    def test_one_beat_profile_covers_four_steps(self):
        out = fan_out(np.array([2]), 4)
        assert out.tolist() == [2, 2, 2, 2]


def scanned_chroma_by_beat(chords, n_beats):
    """Reference for ``chord_chroma_by_beat``: the chords, stably sorted by
    onset, scanned once as the beats advance."""
    out = np.zeros((n_beats, 12))
    ordered = sorted(chords, key=lambda chord: chord.onset_step)
    active = -1
    for beat in range(n_beats):
        while active + 1 < len(ordered) and ordered[active + 1].onset_step <= 4 * beat:
            active += 1
        if active >= 0:
            out[beat] = ordered[active].chroma_vector()
    return out


class TestChordChroma:
    def test_beats_before_first_chord_are_zero(self):
        chords = (chord_from_kind(8, 0, "major"),)  # enters at beat 2
        out = chord_chroma_by_beat(chords, 4)
        assert not out[:2].any()
        assert out[2].sum() == 3 and np.array_equal(out[2], out[3])

    def test_latest_chord_at_or_before_beat_wins(self):
        chords = (
            chord_from_kind(0, 0, "major"),
            chord_from_kind(4, 7, "major"),
        )
        out = chord_chroma_by_beat(chords, 3)
        c_major = chords[0].chroma_vector()
        g_major = chords[1].chroma_vector()
        assert np.array_equal(out[0], c_major)
        assert np.array_equal(out[1], g_major)
        assert np.array_equal(out[2], g_major)

    def test_unsorted_chords_are_sorted_first(self):
        chords = (
            chord_from_kind(4, 7, "major"),
            chord_from_kind(0, 0, "major"),
        )
        out = chord_chroma_by_beat(chords, 2)
        assert np.array_equal(out[0], chords[1].chroma_vector())

    def test_no_chords_gives_zeros(self):
        assert not chord_chroma_by_beat((), 8).any()

    @settings(max_examples=200, deadline=None)
    @given(
        n_beats=st.integers(0, 12),
        chords=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 11),
                      st.sampled_from(sorted(CHORD_KIND_INTERVALS))),
            max_size=8,
        ),
    )
    @example(n_beats=0, chords=[(0, 0, "major")])
    @example(n_beats=4,
             chords=[(4, 0, "major"), (4, 7, "minor"), (0, 2, "major"), (99, 5, "major")])
    def test_equals_a_scan_of_the_chords_in_onset_order(self, n_beats, chords):
        # Unsorted tracks, repeated onsets and onsets past the last beat.
        track = [chord_from_kind(*chord) for chord in chords]
        out = chord_chroma_by_beat(track, n_beats)
        assert out.dtype == np.float64
        assert np.array_equal(out, scanned_chroma_by_beat(track, n_beats))


class TestBuildLayerInputs:
    def spec(self):
        return note_spec(bar_condition=3, beat_condition=5, chroma=True)

    def test_blocks_land_in_declared_slices(self):
        spec = self.spec()
        events = np.array([0, NO_EVENT] * 16, dtype=np.int64)  # 2 bars
        bar_idx = np.array([2, 0])
        beat_idx = np.array([4, 0, 1, 2, 3, 0, 1, 2])
        chroma = np.tile(np.eye(12)[0], (8, 1))
        inputs = build_layer_inputs(
            spec, events, profiles={"bar": bar_idx, "beat": beat_idx}, chroma_by_beat=chroma
        )
        assert inputs.shape == (32, spec.input_dim)
        a = spec.alphabet_size
        # previous-event block
        assert inputs[0, :a].sum() == 0
        assert inputs[1, 0] == 1.0
        # bar condition: first 16 rows one-hot index 2, next 16 index 0
        bar_block = inputs[:, a : a + 3]
        assert bar_block[:16, 2].all() and bar_block[16:, 0].all()
        # beat condition fans out 4 steps per beat
        beat_block = inputs[:, a + 3 : a + 8]
        assert beat_block[:4, 4].all() and beat_block[4:8, 0].all()
        # chroma block repeats per step within the beat
        chroma_block = inputs[:, a + 8 : a + 20]
        assert chroma_block[:, 0].all() and chroma_block[:, 1:].sum() == 0
        # lookback block occupies the tail
        tail = inputs[:, a + 20 :]
        expected = [reference_lookback(events, position, spec) for position in range(32)]
        assert np.array_equal(tail, np.array(expected))

    def test_missing_conditions_rejected(self):
        spec = self.spec()
        events = np.zeros(32, dtype=np.int64)
        with pytest.raises(ValueError, match="bar profile"):
            build_layer_inputs(spec, events, profiles={"beat": np.zeros(8, dtype=int)})
        with pytest.raises(ValueError, match="beat profile"):
            build_layer_inputs(spec, events, profiles={"bar": np.zeros(2, dtype=int)})

    def test_wrong_length_conditions_rejected(self):
        spec = self.spec()
        events = np.zeros(32, dtype=np.int64)
        with pytest.raises(ValueError, match="positions"):
            build_layer_inputs(
                spec,
                events,
                profiles={
                    "bar": np.zeros(3, dtype=int),  # needs 2
                    "beat": np.zeros(8, dtype=int),
                },
                chroma_by_beat=np.zeros((8, 12)),
            )

    def test_beat_level_chroma_is_not_expanded(self):
        spec = note_spec(
            level="beat",
            alphabet_size=8,
            beat_condition=0,
            chroma=True,
            lookback_distances=(4, 8),
            position_bits=2,
        )
        events = np.zeros(8, dtype=np.int64)
        chroma = np.arange(96, dtype=np.float64).reshape(8, 12)
        inputs = build_layer_inputs(spec, events, profiles={}, chroma_by_beat=chroma)
        assert np.array_equal(inputs[:, 8:20], chroma)

    def test_events_outside_alphabet_rejected(self):
        spec = note_spec()
        events = np.zeros(16, dtype=np.int64)
        events[5] = ALPHABET_SIZE
        with pytest.raises(ValueError, match="outside alphabet"):
            build_layer_inputs(spec, events, profiles={})


class TestBuilderMatchesOracle:
    """Any range of positions of W histories equals the scalar oracle row by row."""

    @settings(max_examples=150, deadline=None)
    @given(
        level=st.sampled_from(["bar", "beat", "note"]),
        chords=st.booleans(),
        rows=st.integers(1, 6),
        length=st.integers(1, 48),
        data=st.data(),
    )
    def test_rows_equal_oracle(self, level, chords, rows, length, data):
        spec = layer_specs("3L", chords=chords, beat_k=3, bar_k=4)[level]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        start = data.draw(st.integers(0, length - 1), label="start")
        stop = data.draw(st.integers(start + 1, length), label="stop")
        rng = np.random.default_rng(seed)
        # Few distinct symbols, so that repeat flags fire.
        symbols = rng.integers(0, spec.alphabet_size, size=2)
        histories = symbols[rng.integers(0, 2, size=(rows, length))]
        conditions = None
        if spec.condition_dim:
            conditions = (rng.random((length, spec.condition_dim)) < 0.3).astype(np.float64)
        out = layer_features(spec, histories, start, stop, conditions)
        assert out.shape == (rows, stop - start, spec.input_dim)
        for w in range(rows):
            for position in range(start, stop):
                condition = None if conditions is None else conditions[position]
                expected = reference_input_row(spec, histories[w], position, condition)
                assert np.array_equal(out[w, position - start], expected), (w, position)


def corpus_grids(n=6, **kwargs):
    sheets = synthetic_corpus(n, seed=11, n_bars=4, **kwargs)
    return sheets, [grid_encode(sheet) for sheet in sheets]


def corpus_codebooks(grids):
    binaries = [binarize(grid) for grid in grids]
    beat_clips = np.vstack([cut_clips(binary, 4) for binary in binaries])
    bar_clips = np.vstack([cut_clips(binary, 16) for binary in binaries])
    beat = build_codebook(beat_clips, "beat", 4, seed=5)
    bar = build_codebook(bar_clips, "bar", 3, seed=5)
    return beat, bar


class TestDatasets:
    def test_per_level_shapes(self):
        sheets, grids = corpus_grids()
        beat, bar = corpus_codebooks(grids)
        datasets = build_datasets(
            grids, "3L", beat_codebook=beat, bar_codebook=bar,
            piece_ids=[sheet.id for sheet in sheets],
        )
        assert set(datasets) == {"bar", "beat", "note"}
        first = grids[0]
        assert len(datasets["bar"][0].targets) == first.n_bars
        assert len(datasets["beat"][0].targets) == first.n_bars * 4
        assert len(datasets["note"][0].targets) == first.n_bars * 16
        specs = layer_specs("3L", beat_k=beat.k, bar_k=bar.k)
        for level in specs:
            assert datasets[level][0].inputs.shape[1] == specs[level].input_dim
            assert datasets[level][0].piece_id == sheets[0].id

    def test_note_targets_are_the_grid(self):
        _, grids = corpus_grids()
        beat, bar = corpus_codebooks(grids)
        datasets = build_datasets(grids, "3L", beat_codebook=beat, bar_codebook=bar)
        assert np.array_equal(datasets["note"][2].targets, grids[2].to_array())

    def test_profile_targets_match_assignments(self):
        _, grids = corpus_grids()
        beat, bar = corpus_codebooks(grids)
        datasets = build_datasets(grids, "3L", beat_codebook=beat, bar_codebook=bar)
        profiles = profile_sequences(grids[1], {"bar": bar, "beat": beat})
        assert np.array_equal(datasets["bar"][1].targets, profiles["bar"])
        assert np.array_equal(datasets["beat"][1].targets, profiles["beat"])

    def test_single_level_needs_no_codebooks(self):
        _, grids = corpus_grids()
        datasets = build_datasets(grids, "1L")
        assert set(datasets) == {"note"}
        assert datasets["note"][0].inputs.shape[1] == 120

    def test_missing_codebook_rejected(self):
        _, grids = corpus_grids()
        beat, bar = corpus_codebooks(grids)
        with pytest.raises(ValueError, match="beat codebook"):
            build_datasets(grids, "3L", bar_codebook=bar)
        with pytest.raises(ValueError, match="bar codebook"):
            build_datasets(grids, "3L", beat_codebook=beat)

    def test_chord_conditioning_consumes_tracks(self):
        sheets, grids = corpus_grids(with_chords=True)
        beat, bar = corpus_codebooks(grids)
        with_chords = build_datasets(
            grids, "3L", beat_codebook=beat, bar_codebook=bar,
            chords=True,
            chord_tracks=[sheet.chords for sheet in sheets],
        )
        without = build_datasets(grids, "3L", beat_codebook=beat, bar_codebook=bar)
        base = 38 + bar.k + beat.k + 82
        assert with_chords["note"][0].inputs.shape[1] == base + 12
        assert without["note"][0].inputs.shape[1] == base
        # chroma block is live, not all-zero, when chords are provided
        start = 38 + bar.k + beat.k
        chroma_block = with_chords["note"][0].inputs[:, start : start + 12]
        assert chroma_block.any()

    def test_deterministic(self):
        _, grids = corpus_grids()
        beat, bar = corpus_codebooks(grids)
        a = build_datasets(grids, "3L", beat_codebook=beat, bar_codebook=bar)
        b = build_datasets(grids, "3L", beat_codebook=beat, bar_codebook=bar)
        for level in a:
            assert np.array_equal(a[level][0].inputs, b[level][0].inputs)


class TestTrainingSequenceAndPadding:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            TrainingSequence(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TrainingSequence(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_pad_batch_layout(self):
        seqs = [
            TrainingSequence(np.ones((2, 3)), np.array([1, 2])),
            TrainingSequence(np.ones((4, 3)), np.array([3, 4, 5, 6])),
        ]
        inputs, targets, mask = pad_batch(seqs)
        assert inputs.shape == (4, 2, 3)
        assert targets.shape == (4, 2) and mask.shape == (4, 2)
        assert mask[:, 0].tolist() == [1, 1, 0, 0]
        assert mask[:, 1].tolist() == [1, 1, 1, 1]
        assert not inputs[2:, 0].any()
        assert targets[2:, 0].tolist() == [0, 0]
        assert targets[:, 1].tolist() == [3, 4, 5, 6]

    def test_pad_batch_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pad_batch([])

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 200),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        dtype=st.sampled_from([np.uint8, np.int64, np.float64, np.bool_]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=1, lengths=[1], dtype=np.float64, seed=0)
    @example(width=8, lengths=[3, 3], dtype=np.uint8, seed=1)
    @example(width=200, lengths=[40, 1, 40], dtype=np.bool_, seed=2)
    def test_stored_rows_round_trip_and_pad_as_the_dense_rows(self, width, lengths, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = [(rng.random((n, width)) < rng.random()).astype(dtype) for n in lengths]
        sequences = [TrainingSequence(r, rng.integers(0, 9, size=len(r))) for r in rows]
        for r, s in zip(rows, sequences):
            assert s.inputs.dtype == np.uint8 and s.inputs.shape == r.shape
            assert np.array_equal(s.inputs, r)
        longest = max(lengths)
        dense = np.zeros((longest, len(rows), width), dtype=np.uint8)
        dense_targets = np.zeros((longest, len(rows)), dtype=np.int64)
        dense_mask = np.zeros((longest, len(rows)))
        for j, (r, s) in enumerate(zip(rows, sequences)):
            dense[: len(r), j] = r
            dense_targets[: len(r), j] = s.targets
            dense_mask[: len(r), j] = 1.0
        # A workspace that held a longer batch of ones: every padded entry is rewritten.
        ones = TrainingSequence(np.ones((longest + 1, width)), np.ones(longest + 1, np.int64))
        workspace = {}
        pad_batch([ones] * (len(rows) + 1), workspace=workspace)
        for padded in (pad_batch(sequences), pad_batch(sequences, workspace=workspace)):
            inputs, targets, mask = padded
            assert inputs.dtype == np.uint8 and np.array_equal(inputs, dense)
            assert targets.dtype == np.int64 and np.array_equal(targets, dense_targets)
            assert mask.dtype == np.float64 and np.array_equal(mask, dense_mask)

    @pytest.mark.parametrize("inputs, message", [
        (np.array([[0.0, 2.0]]), "all 0s and 1s"),
        (np.array([[0.5, 1.0]]), "all 0s and 1s"),
        (np.array([[-1, 0]]), "all 0s and 1s"),
        (np.array([[np.nan, 1.0]]), "all 0s and 1s"),
        (np.zeros(3), r"\(T, D\), not 1-D"),
        (np.zeros((2, 3, 4)), r"\(T, D\), not 3-D"),
    ])
    def test_inputs_that_are_not_rows_of_0s_and_1s_are_rejected(self, inputs, message):
        with pytest.raises(ValueError, match=rf"training sequence 'p7': inputs must be {message}"):
            TrainingSequence(inputs, np.zeros(len(inputs), dtype=np.int64), "p7")

    def test_pad_batch_rejects_mixed_input_widths(self):
        seqs = [
            TrainingSequence(np.ones((2, 5)), np.array([1, 2])),
            TrainingSequence(np.ones((2, 3)), np.array([3, 4])),
        ]
        with pytest.raises(ValueError, match=r"input widths \[3, 5\] into one batch"):
            pad_batch(seqs)


def random_grid(rng, n_bars):
    """A valid grid over two pitches, so that lookback repeats fire."""
    pitches = rng.integers(0, N_PITCHES, size=2)
    events, sounding = [], False
    for _ in range(n_bars * 16):
        kind = rng.integers(0, 3 if sounding else 2)
        if kind == 0:
            events.append(int(rng.choice(pitches)))
        else:
            events.append(NO_EVENT if kind == 1 else NOTE_OFF)
        sounding = kind == 0 or (sounding and kind == 1)
    return MelodyGrid(tuple(events))


def random_chord_track(rng, n_steps):
    """Up to four chords in any order, some starting past the melody's end."""
    kinds = sorted(CHORD_KIND_INTERVALS)
    return tuple(
        chord_from_kind(int(rng.integers(0, n_steps + 8)), int(rng.integers(0, 12)),
                        kinds[rng.integers(0, len(kinds))])
        for _ in range(rng.integers(0, 5))
    )


def random_codebook(rng, kind, width):
    rows = np.unique(rng.integers(0, 2, size=(int(rng.integers(1, 6)), width)), axis=0)
    return ProfileCodebook(kind, rows.astype(np.float64), seed=0, iterations=0, wcss=0.0)


# Positions of each level per bar and per beat, written out apart from specs.
LEVEL_POSITIONS_PER = {"bar": (1, 1), "beat": (4, 1), "note": (16, 4)}


def oracle_condition(spec, position, bar_idx, beat_idx, chroma):
    """The condition row at one position, from per-bar and per-beat values."""
    per_bar, per_beat = LEVEL_POSITIONS_PER[spec.level]
    parts = []
    if spec.bar_condition:
        parts.append(np.eye(spec.bar_condition)[bar_idx[position // per_bar]])
    if spec.beat_condition:
        parts.append(np.eye(spec.beat_condition)[beat_idx[position // per_beat]])
    if spec.chroma:
        parts.append(chroma[position // per_beat])
    return np.concatenate(parts) if parts else None


class TestStoredInputs:
    """Datasets hold every input as one bit and pad into uint8 batches."""

    # Bytes a stored sequence may hold besides its packed rows and targets:
    # its object and two array headers, about 800 bytes with CPython 3.11.
    SEQUENCE_OVERHEAD = 2048

    def test_datasets_hold_a_bit_per_input(self):
        sheets = synthetic_corpus(6, seed=5, n_bars=4)
        grids = [grid_encode(sheet) for sheet in sheets]
        rng = np.random.default_rng(5)
        books = {"beat": random_codebook(rng, "beat", BEAT_WIDTH),
                 "bar": random_codebook(rng, "bar", BAR_WIDTH)}

        def build():
            return build_datasets(grids, "3L", beat_codebook=books["beat"],
                                  bar_codebook=books["bar"],
                                  chord_tracks=[sheet.chords for sheet in sheets], chords=True)

        build()  # fills any cache the builders keep
        tracemalloc.start()
        try:
            datasets = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        specs = variant_specs("3L", chords=True, codebooks=books)
        allowed = sum(
            len(s.targets) * -(-specs[level].input_dim // 8) + s.targets.nbytes
            + self.SEQUENCE_OVERHEAD
            for level, sequences in datasets.items() for s in sequences
        )
        assert held <= allowed, (held, allowed)

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        chords=st.booleans(),
        n_pieces=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_the_float_rows(self, variant, chords, n_pieces, seed):
        rng = np.random.default_rng(seed)
        grids = [random_grid(rng, int(rng.integers(1, 4))) for _ in range(n_pieces)]
        tracks = [random_chord_track(rng, len(grid)) for grid in grids]
        beat = random_codebook(rng, "beat", BEAT_WIDTH)
        bar = random_codebook(rng, "bar", BAR_WIDTH)
        datasets = build_datasets(
            grids, variant, beat_codebook=beat, bar_codebook=bar,
            chord_tracks=tracks, chords=chords,
        )
        specs = variant_specs(variant, chords=chords, codebooks={"bar": bar, "beat": beat})
        for level, sequences in datasets.items():
            spec = specs[level]
            rows = []
            for grid, track, stored in zip(grids, tracks, sequences):
                profiles = profile_sequences(grid, {"bar": bar, "beat": beat})
                bar_idx, beat_idx = profiles["bar"], profiles["beat"]
                chroma = chord_chroma_by_beat(track if chords else (), grid.n_bars * 4)
                events = {**profiles, "note": grid.to_array()}[level]
                expected = build_layer_inputs(
                    spec,
                    events,
                    profiles=profiles,
                    chroma_by_beat=chroma if spec.chroma else None,
                )
                assert stored.inputs.dtype == np.uint8
                assert expected.dtype == np.float64
                assert np.array_equal(stored.inputs, expected)
                for position in range(len(events)):
                    condition = oracle_condition(spec, position, bar_idx, beat_idx, chroma)
                    oracle = reference_input_row(spec, events, position, condition)
                    assert np.array_equal(stored.inputs[position], oracle), (level, position)
                rows.append(expected)
            padded = pad_batch(sequences)
            from_floats = pad_batch(
                [TrainingSequence(row, s.targets) for row, s in zip(rows, sequences)]
            )
            # Inputs pad as uint8 from stored float rows too; targets and mask
            # keep their dtypes.
            assert padded[0].dtype == from_floats[0].dtype == np.uint8
            for got, want in zip(padded, from_floats):
                assert np.array_equal(got, want)
            for got, want in zip(padded[1:], from_floats[1:]):
                assert got.dtype == want.dtype
