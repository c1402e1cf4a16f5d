"""Hierarchical decoding: plans, modes, fixed profiles, determinism."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from melodygen.encode import ALPHABET_SIZE, MAX_BARS, NO_EVENT, NOTE_OFF, N_PITCHES, MelodyGrid
from melodygen.hrnn import generation
from melodygen.hrnn.generation import GenerationPlan, generate, tile_profiles
from melodygen.hrnn.specs import layer_specs
from melodygen.leadsheet import chord_from_kind
from melodygen.neural import DEFAULT_INIT_SCALE, init_params, lstm_step
from melodygen.synthetic import synthetic_corpus
from support import beam_oracle
from support.beam_oracle import reference_beam_decode
from support.sample_oracle import reference_sample_decode

BEAT_K = 4
BAR_K = 3


def make_model(variant="3L", *, chords=False, hidden=16, seed=9):
    """Random (untrained) layers; structure tests don't need training."""
    specs = layer_specs(variant, chords=chords, beat_k=BEAT_K, bar_k=BAR_K)
    params = {
        level: init_params(
            spec.input_dim, hidden, spec.alphabet_size, n_layers=1, seed=seed + i
        )
        for i, (level, spec) in enumerate(sorted(specs.items()))
    }
    return params, specs


def scaled_params(specs, hidden, layers, seed, init_scale):
    """Random layers whose weights, not biases, are uniform in +-init_scale,
    so that large scales saturate the gates while the forget bias stays 1.0."""
    params = {}
    for i, (level, spec) in enumerate(sorted(specs.items())):
        params[level] = init_params(
            spec.input_dim, hidden, spec.alphabet_size, n_layers=layers, seed=(seed + i) % 2**32
        )
        for name, arr in params[level].named_arrays():
            if "w_" in name:
                arr *= init_scale / DEFAULT_INIT_SCALE
    return params


PRIMERS = {"bar": (0,), "beat": (0,), "note": (0, NO_EVENT, NO_EVENT, NO_EVENT)}
NOTE_PRIMER = {"note": PRIMERS["note"]}


def make_plan(**overrides):
    base = dict(bars=2, mode="sample", temperature=1.0, seed=5, primers=dict(PRIMERS))
    base.update(overrides)
    return GenerationPlan(**base)


class TestPlanValidation:
    def test_bad_bars(self):
        with pytest.raises(ValueError, match="bars"):
            make_plan(bars=0)

    @pytest.mark.parametrize("bars", [MAX_BARS + 1, 10**9])
    def test_bars_above_the_grid_bound(self, bars):
        with pytest.raises(ValueError, match=f"bars must be <= {MAX_BARS}, got {bars}"):
            make_plan(bars=bars)
        assert make_plan(bars=MAX_BARS).bars == MAX_BARS

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            make_plan(mode="viterbi")

    def test_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            make_plan(temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            make_plan(temperature=temperature)

    def test_bad_beam_width(self):
        with pytest.raises(ValueError, match="beam width"):
            make_plan(beam_width=0)

    def test_primer_must_cover_one_beat(self):
        with pytest.raises(ValueError, match=r"primer must cover one beat \(4 events\), got 2"):
            make_plan(primers={**PRIMERS, "note": (0, 1)})

    @pytest.mark.parametrize("level", ["bar", "beat"])
    def test_profile_primer_must_be_one_profile(self, level):
        with pytest.raises(ValueError, match=f"{level} primer must be one profile, got 2"):
            make_plan(primers={**PRIMERS, level: (0, 1)})

    def test_fixed_bar_profiles_length(self):
        with pytest.raises(ValueError, match="fixed bar profiles must cover 2 bars, got 1"):
            make_plan(fixed_profiles={"bar": (0,)})

    def test_fixed_beat_profiles_length(self):
        with pytest.raises(ValueError, match="fixed beat profiles must cover 8 beats, got 3"):
            make_plan(fixed_profiles={"beat": (0, 1, 2)})

    @pytest.mark.parametrize("key", ["chord", "Bar", "notes"])
    def test_primer_for_an_unknown_level_rejected(self, key):
        with pytest.raises(ValueError, match=f"primers for '{key}'"):
            make_plan(primers={**PRIMERS, key: (0,)})

    @pytest.mark.parametrize("key", ["note", "chord", "bars"])
    def test_fixed_profiles_only_for_profile_levels(self, key):
        with pytest.raises(ValueError, match=f"fixed profiles for '{key}'"):
            make_plan(fixed_profiles={key: (0,) * 32})

    def test_a_checked_plan_cannot_change(self):
        primers = {"note": [0, 37, 37, 37]}
        plan = GenerationPlan(bars=1, primers=primers, fixed_profiles={})
        with pytest.raises(TypeError):
            plan.primers["note"] = (0,)
        with pytest.raises(TypeError):
            plan.fixed_profiles["bar"] = (0,)
        with pytest.raises(AttributeError):
            plan.primers = {"note": (0,)}
        primers["note"].pop()
        assert plan.primers == {"note": (0, 37, 37, 37)}
        params, specs = make_model("1L")
        result = generate(params, specs, plan)
        assert result.trace["levels"]["note"]["primer_length"] == 4


class TestTileProfiles:
    def test_cycles_pattern(self):
        assert tile_profiles((1, 2), 5) == (1, 2, 1, 2, 1)

    def test_exact_length_passthrough(self):
        assert tile_profiles([7], 3) == (7, 7, 7)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tile_profiles((), 4)


class TestGenerateStructure:
    def test_lengths_and_ranges(self):
        params, specs = make_model()
        result = generate(params, specs, make_plan(bars=3))
        assert len(result.grid.events) == 3 * 16
        bars, beats = result.profiles["bar"], result.profiles["beat"]
        assert len(bars) == 3
        assert len(beats) == 12
        assert 0 <= bars.min() and bars.max() < BAR_K
        assert 0 <= beats.min() and beats.max() < BEAT_K

    def test_primer_survives_in_output(self):
        params, specs = make_model()
        primer = (5, NO_EVENT, NOTE_OFF, 9)
        result = generate(params, specs, make_plan(primers={**PRIMERS, "note": primer}))
        assert result.grid.events[:4] == primer
        assert result.profiles["bar"][0] == 0
        assert result.profiles["beat"][0] == 0

    def test_every_sampled_grid_is_structurally_valid(self):
        # The MelodyGrid constructor rejects orphan note-offs, so surviving
        # construction at high temperature exercises the decoding constraint.
        params, specs = make_model()
        for seed in range(8):
            plan = make_plan(seed=seed, temperature=1.8)
            result = generate(params, specs, plan)
            assert isinstance(result.grid, MelodyGrid)
            sounding = False
            for event in result.grid.events:
                if event == NOTE_OFF:
                    assert sounding
                    sounding = False
                elif event < N_PITCHES:
                    sounding = True

    def test_trace_contents(self):
        params, specs = make_model()
        plan = make_plan()
        result = generate(params, specs, plan)
        assert result.trace["plan"]["bars"] == 2
        assert result.trace["plan"]["seed"] == 5
        assert set(result.trace["levels"]) == {"bar", "beat", "note"}
        note_trace = result.trace["levels"]["note"]
        assert note_trace["primer_length"] == 4
        assert note_trace["events"] == list(result.grid.events)
        assert note_trace["log_probs"][:4] == [None] * 4
        assert all(lp is not None for lp in note_trace["log_probs"][4:])

    def test_single_level_variant(self):
        params, specs = make_model("1L")
        plan = make_plan(primers=NOTE_PRIMER)
        result = generate(params, specs, plan)
        assert result.profiles == {}
        assert len(result.grid.events) == 32


class TestDeterminismAndModes:
    def test_same_seed_same_melody(self):
        params, specs = make_model()
        a = generate(params, specs, make_plan(seed=123))
        b = generate(params, specs, make_plan(seed=123))
        assert a.grid.events == b.grid.events
        assert np.array_equal(a.profiles["bar"], b.profiles["bar"])
        assert a.trace == b.trace

    def test_different_seeds_diverge(self):
        params, specs = make_model()
        melodies = {
            generate(params, specs, make_plan(seed=seed)).grid.events
            for seed in range(6)
        }
        assert len(melodies) > 1

    def test_temperature_zero_is_greedy_and_seed_free(self):
        params, specs = make_model()
        a = generate(params, specs, make_plan(temperature=0.0, seed=1))
        b = generate(params, specs, make_plan(temperature=0.0, seed=999))
        assert a.grid.events == b.grid.events

    def test_beam_width_one_equals_greedy(self):
        params, specs = make_model()
        greedy = generate(params, specs, make_plan(temperature=0.0))
        beam = generate(params, specs, make_plan(mode="beam", beam_width=1))
        assert beam.grid.events == greedy.grid.events
        assert beam.profiles.keys() == greedy.profiles.keys() == {"bar", "beat"}
        for level, indices in greedy.profiles.items():
            assert np.array_equal(beam.profiles[level], indices)

    def test_wider_beam_never_scores_worse(self):
        params, specs = make_model("1L")
        plan = dict(primers=NOTE_PRIMER)

        def total_logprob(result):
            return sum(
                lp
                for lp in result.trace["levels"]["note"]["log_probs"]
                if lp is not None
            )

        narrow = generate(
            params, specs, make_plan(mode="beam", beam_width=1, **plan)
        )
        wide = generate(params, specs, make_plan(mode="beam", beam_width=4, **plan))
        assert total_logprob(wide) >= total_logprob(narrow) - 1e-12

    def test_beam_is_deterministic(self):
        params, specs = make_model()
        a = generate(params, specs, make_plan(mode="beam", beam_width=3))
        b = generate(params, specs, make_plan(mode="beam", beam_width=3))
        assert a.grid.events == b.grid.events


def generate_with_reference_beam(params, specs, plan):
    """``generate`` with every beam layer decoded by the per-hypothesis oracle."""
    assert plan.mode == "beam"

    def decode(params, spec, primer, length, conditions, *, beam_width, **_):
        return reference_beam_decode(params, spec, primer, length, conditions, beam_width)

    with mock.patch.object(generation, "_decode_sequence", decode):
        return generate(params, specs, plan)


def generate_with_reference_sample(params, specs, plan):
    """``generate`` with every sampled layer decoded by the single-row oracle."""
    assert plan.mode == "sample"

    def decode(params, spec, primer, length, conditions, *, temperature, rng, **_):
        return reference_sample_decode(params, spec, primer, length, conditions, temperature, rng)

    with mock.patch.object(generation, "_decode_sequence", decode):
        return generate(params, specs, plan)


def assert_same_beam(batched, reference):
    """Equal events on every level; log-probs within 1e-12 relative."""
    assert batched.trace["levels"].keys() == reference.trace["levels"].keys()
    for level, ref in reference.trace["levels"].items():
        got = batched.trace["levels"][level]
        assert got["events"] == ref["events"], level
        got_lp, ref_lp = (
            np.array([np.nan if lp is None else lp for lp in trace["log_probs"]])
            for trace in (got, ref)
        )
        np.testing.assert_allclose(got_lp, ref_lp, rtol=1e-12, atol=0, err_msg=level)


def record_inputs(module):
    """A patch of ``module.lstm_step`` that records every input row it is given."""
    rows = []

    def spy(params, x, state=None, **kwargs):
        rows.append(np.atleast_2d(x).copy())
        return lstm_step(params, x, state, **kwargs)

    return rows, mock.patch.object(module, "lstm_step", spy)


class TestBatchedBeamMatchesReference:
    """One (W, D) step per position against one single-row step per hypothesis."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 6),
        layers=st.sampled_from([1, 2]),
        hidden=st.integers(2, 12),
        init_scale=st.sampled_from([0.08, 0.5, 2.0]),
        chords=st.booleans(),
        bars=st.integers(1, 2),
    )
    @example(seed=0, width=BAR_K + 2, layers=2, hidden=8, init_scale=0.5, chords=False,
             bars=2)
    def test_events_and_log_probs_match(
        self, seed, width, layers, hidden, init_scale, chords, bars
    ):
        specs = layer_specs("3L", chords=chords, beat_k=BEAT_K, bar_k=BAR_K)
        params = scaled_params(specs, hidden, layers, seed, init_scale)
        chord_track = tuple(
            chord_from_kind(bar * 16, (seed + 7 * bar) % 12, "minor") for bar in range(bars)
        )
        plan = make_plan(
            mode="beam", beam_width=width, bars=bars, chords=chord_track if chords else ()
        )
        assert_same_beam(
            generate(params, specs, plan), generate_with_reference_beam(params, specs, plan)
        )

    @pytest.mark.parametrize("width", [2, 5, ALPHABET_SIZE + 2])
    @pytest.mark.parametrize("primer", [(0, NO_EVENT, NO_EVENT, NO_EVENT), (NO_EVENT,) * 4])
    def test_exact_ties_keep_parent_then_symbol_order(self, width, primer):
        # With zero output weights every logit is equal, so the candidates of
        # hypotheses in the same sounding state tie exactly and the survivors
        # are decided by (parent, symbol) order alone. The survivors show in
        # the input rows of the next step, so every row the batched beam
        # feeds the LSTM must equal the reference's single-row inputs, in
        # rank order.
        params, specs = make_model("1L")
        params["note"].w_out[:] = 0.0
        params["note"].b_out[:] = 0.0
        plan = make_plan(
            mode="beam", beam_width=width, primers={"note": primer}
        )
        rows, spy = record_inputs(generation)
        with spy:
            batched = generate(params, specs, plan)
        reference_rows, reference_spy = record_inputs(beam_oracle)
        with reference_spy:
            reference = generate_with_reference_beam(params, specs, plan)
        assert_same_beam(batched, reference)
        assert np.array_equal(np.concatenate(rows), np.concatenate(reference_rows))


class TestSamplingMatchesReference:
    """The one decode loop, keeping one row, against the single-row oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        temperature=st.sampled_from([0.0, 0.7, 1.0]),
        variant=st.sampled_from(["1L", "2L", "3L"]),
        chords=st.booleans(),
        fix_bars=st.booleans(),
        fix_beats=st.booleans(),
        layers=st.sampled_from([1, 2]),
        hidden=st.integers(2, 12),
        bars=st.integers(1, 2),
    )
    @example(seed=3, temperature=0.7, variant="3L", chords=True, fix_bars=False,
             fix_beats=False, layers=2, hidden=8, bars=2)
    def test_events_and_log_probs_equal(
        self, seed, temperature, variant, chords, fix_bars, fix_beats, layers, hidden, bars
    ):
        specs = layer_specs(variant, chords=chords, beat_k=BEAT_K, bar_k=BAR_K)
        params = scaled_params(specs, hidden, layers, seed, 0.5)
        chord_track = tuple(
            chord_from_kind(bar * 16, (seed + 5 * bar) % 12, "major") for bar in range(bars)
        )
        fixed = {}
        if fix_bars and "bar" in specs:
            fixed["bar"] = tile_profiles((seed % BAR_K, 1), bars)
        if fix_beats and "beat" in specs:
            fixed["beat"] = tile_profiles((2, seed % BEAT_K, 0), 4 * bars)
        plan = make_plan(
            temperature=temperature, seed=seed % 2**31, bars=bars,
            chords=chord_track if chords else (), fixed_profiles=fixed,
        )
        merged = generate(params, specs, plan)
        reference = generate_with_reference_sample(params, specs, plan)
        assert merged.trace == reference.trace
        assert merged.grid == reference.grid


class TestFixedProfiles:
    def test_fixed_bars_bypass_the_bar_layer(self):
        params, specs = make_model()
        del params["bar"]  # no bar parameters at all
        plan = make_plan(fixed_profiles={"bar": (2, 1)})
        result = generate(params, specs, plan)
        assert result.profiles["bar"].tolist() == [2, 1]
        assert result.trace["levels"]["bar"] == {"fixed": [2, 1]}

    def test_fixed_beats_bypass_the_beat_layer(self):
        params, specs = make_model()
        del params["beat"]
        fixed = tile_profiles((0, 1, 2, 3), 8)
        result = generate(params, specs, make_plan(fixed_profiles={"beat": fixed}))
        assert tuple(result.profiles["beat"]) == fixed
        assert result.trace["levels"]["beat"] == {"fixed": list(fixed)}

    def test_fully_fixed_needs_only_the_note_layer(self):
        params, specs = make_model()
        params = {"note": params["note"]}
        plan = make_plan(fixed_profiles={"bar": (0, 1), "beat": tile_profiles((1, 0), 8)})
        result = generate(params, specs, plan)
        assert len(result.grid.events) == 32

    def test_missing_layer_without_fixed_profiles_rejected(self):
        params, specs = make_model()
        del params["bar"]
        with pytest.raises(ValueError, match="no parameters for the bar layer"):
            generate(params, specs, make_plan())

    def test_fixed_profile_outside_codebook_rejected(self):
        params, specs = make_model()
        with pytest.raises(ValueError, match="outside the codebook"):
            generate(params, specs, make_plan(fixed_profiles={"bar": (0, BAR_K)}))

    def test_fixing_profiles_on_variant_without_that_level_rejected(self):
        params, specs = make_model("1L")
        plan = make_plan(primers=NOTE_PRIMER, fixed_profiles={"bar": (0, 0)})
        with pytest.raises(ValueError, match="no bar level"):
            generate(params, specs, plan)
        plan = make_plan(primers=NOTE_PRIMER, fixed_profiles={"beat": tile_profiles((0,), 8)})
        with pytest.raises(ValueError, match="no beat level"):
            generate(params, specs, plan)

    def test_missing_primer_profile_rejected(self):
        params, specs = make_model()
        with pytest.raises(ValueError, match="bar layer needs a primer"):
            generate(params, specs, make_plan(primers={"beat": (0,), **NOTE_PRIMER}))
        with pytest.raises(ValueError, match="beat layer needs a primer"):
            generate(params, specs, make_plan(primers={"bar": (0,), **NOTE_PRIMER}))

    def test_missing_note_primer_rejected(self):
        params, specs = make_model()
        with pytest.raises(ValueError, match="one-beat primer"):
            generate(params, specs, make_plan(primers={"bar": (0,), "beat": (0,)}))

    @pytest.mark.parametrize("level, primer", [
        ("bar", (BAR_K,)),
        ("beat", (-1,)),
        ("note", (ALPHABET_SIZE, NO_EVENT, NO_EVENT, NO_EVENT)),
    ])
    def test_primer_symbol_outside_the_alphabet_rejected(self, level, primer):
        params, specs = make_model()
        with pytest.raises(ValueError, match="primer event outside the layer alphabet"):
            generate(params, specs, make_plan(primers={**PRIMERS, level: primer}))


class TestChordConditioning:
    def test_chords_flow_into_generation(self):
        params, specs = make_model(chords=True)
        chords = tuple(
            chord_from_kind(bar * 16, (bar * 5) % 12, "major") for bar in range(2)
        )
        with_chords = generate(params, specs, make_plan(chords=chords))
        without = generate(params, specs, make_plan())
        assert len(with_chords.grid.events) == 32
        # Same seed, different conditioning: the melodies should differ.
        assert with_chords.grid.events != without.grid.events

    def test_chordless_plan_on_chord_model_is_allowed(self):
        params, specs = make_model(chords=True)
        result = generate(params, specs, make_plan())
        assert len(result.grid.events) == 32
