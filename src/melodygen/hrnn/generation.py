"""Hierarchical generation: profiles first, then notes, coarse to fine.

Each present layer decodes its whole sequence autoregressively; its output
is fanned out as the condition of the layer below (one bar profile covers 16
steps, one beat profile 4 steps). A layer is bypassed entirely when the plan
fixes its output ("fixed profile" generation). Primers occupy the start of
each decoded sequence: one profile for the bar and beat layers, one beat (4
events) for the note layer.

Two decoding modes:

    sample  draw each symbol from softmax(logits / temperature);
            temperature 0 short-circuits to argmax (greedy)
    beam    deterministic beam search per layer; width 1 equals greedy

Both build each step's input rows with the builder training uses,
:func:`specs.layer_features`, over the (W, length) event histories, with the
conditions fanned out once per layer by :func:`specs.condition_block`.

Both are deterministic given the plan's seed. Beam search advances all live
hypotheses as one batched LSTM step per position and breaks ties on
(-score, parent, symbol). A multi-row step sums its products in a different
order than single-row steps, so beam log-probabilities can differ from a
per-hypothesis search in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..encode import N_PITCHES, NOTE_OFF, MelodyGrid
from ..leadsheet import ChordSymbol
from ..neural import GeneratorParams, LstmState, log_softmax, lstm_step
from .specs import (
    BEATS_PER_BAR,
    STEPS_PER_BAR,
    STEPS_PER_BEAT,
    LayerSpec,
    chord_chroma_by_beat,
    condition_block,
    layer_features,
)


@dataclass
class GenerationPlan:
    """Everything one melody generation depends on."""

    bars: int
    mode: str = "sample"  # "sample" or "beam"
    temperature: float = 1.0
    beam_width: int = 3
    seed: int = 0
    primer_events: tuple[int, ...] | None = None  # first beat: 4 note events
    primer_bar_profile: int | None = None
    primer_beat_profile: int | None = None
    fixed_bar_profiles: tuple[int, ...] | None = None
    fixed_beat_profiles: tuple[int, ...] | None = None
    chords: tuple[ChordSymbol, ...] = ()

    def __post_init__(self) -> None:
        if self.bars < 1:
            raise ValueError("bars must be >= 1")
        if self.mode not in ("sample", "beam"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if self.primer_events is not None and len(self.primer_events) != STEPS_PER_BEAT:
            raise ValueError(
                f"primer must cover one beat ({STEPS_PER_BEAT} events), "
                f"got {len(self.primer_events)}"
            )
        if self.fixed_bar_profiles is not None and len(self.fixed_bar_profiles) != self.bars:
            raise ValueError(
                f"fixed bar profiles must cover {self.bars} bars, "
                f"got {len(self.fixed_bar_profiles)}"
            )
        expected_beats = self.bars * BEATS_PER_BAR
        if (
            self.fixed_beat_profiles is not None
            and len(self.fixed_beat_profiles) != expected_beats
        ):
            raise ValueError(
                f"fixed beat profiles must cover {expected_beats} beats, "
                f"got {len(self.fixed_beat_profiles)}"
            )


@dataclass
class GenerationResult:
    grid: MelodyGrid
    bar_profiles: np.ndarray | None
    beat_profiles: np.ndarray | None
    trace: dict


def tile_profiles(pattern: tuple[int, ...] | list[int], length: int) -> tuple[int, ...]:
    """Cycle a short profile pattern out to the requested length."""
    if not pattern:
        raise ValueError("cannot tile an empty profile pattern")
    return tuple(pattern[i % len(pattern)] for i in range(length))


def _sounding_after(sounding, event, is_note_level: bool):
    """Whether a note is sounding after emitting ``event``; elementwise on arrays."""
    if not is_note_level:
        return sounding
    return (event < N_PITCHES) | ((event != NOTE_OFF) & sounding)


def _forbid_silent_note_off(logits: np.ndarray, sounding) -> None:
    """Mask the note-off logit, in place, in every row where nothing sounds."""
    logits[..., NOTE_OFF] = np.where(sounding, logits[..., NOTE_OFF], -np.inf)


def _decode_sequence(
    params: GeneratorParams,
    spec: LayerSpec,
    primer: list[int],
    length: int,
    conditions: np.ndarray | None,
    *,
    mode: str,
    temperature: float,
    beam_width: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """Decode one layer's event sequence of ``length`` symbols.

    ``conditions`` is the condition block already fanned out per position
    ((length, condition_dim)), or None. Returns the events and the chosen
    symbols' log-probabilities (NaN over the primer).

    Note-level decoding is constrained: while nothing is sounding, the
    note-off symbol's logit is masked out before normalization, so every
    decoded sequence is a structurally valid melody grid by construction.
    """
    if not 0 < len(primer) <= length:
        raise ValueError("primer must be non-empty and no longer than the sequence")
    if any(not 0 <= e < spec.alphabet_size for e in primer):
        raise ValueError("primer event outside the layer alphabet")
    if mode == "beam":
        return _beam_decode(params, spec, primer, length, conditions, beam_width)

    is_note = spec.level == "note"
    greedy = temperature == 0.0
    events = np.zeros((1, length), dtype=np.int64)
    events[0, : len(primer)] = primer
    logprobs: list[float] = [math.nan] * len(primer)
    state: LstmState | None = None
    sounding = False
    for position in range(length):
        x = layer_features(spec, events, position, position + 1, conditions)[:, 0]
        state, logits = lstm_step(params, x, state)
        logits = logits[0]
        if position < len(primer):
            sounding = _sounding_after(sounding, int(events[0, position]), is_note)
            continue
        if is_note:
            _forbid_silent_note_off(logits, sounding)
        logp = log_softmax(logits)
        if greedy:
            choice = int(logp.argmax())
        else:
            scaled = log_softmax(logits / temperature)
            choice = int(rng.choice(spec.alphabet_size, p=np.exp(scaled)))
        events[0, position] = choice
        logprobs.append(float(logp[choice]))
        sounding = _sounding_after(sounding, choice, is_note)
    return events[0], logprobs


def _beam_decode(
    params: GeneratorParams,
    spec: LayerSpec,
    primer: list[int],
    length: int,
    conditions: np.ndarray | None,
    beam_width: int,
) -> tuple[np.ndarray, list[float]]:
    """Deterministic beam search with all live hypotheses advanced as one batch.

    The W hypotheses are rows of arrays: histories (W, length), the stacked
    LSTM state (L, W, H), scores (W,), per-step log-probs and sounding flags.
    Each position runs one (W, D) ``lstm_step``; the next W are the best
    finite (parent, symbol) totals, ties broken to the earlier parent, then
    the earlier symbol, by a stable sort over the flattened (W, K) totals.
    """
    is_note = spec.level == "note"
    n_primer = len(primer)
    histories = np.zeros((1, length), dtype=np.int64)
    histories[0, :n_primer] = primer
    state: LstmState | None = None
    sounding = np.zeros(1, dtype=bool)
    for position in range(n_primer):
        x = layer_features(spec, histories, position, position + 1, conditions)[:, 0]
        state, _ = lstm_step(params, x, state)
        sounding = _sounding_after(sounding, histories[:, position], is_note)

    scores = np.zeros(1)
    steps = np.empty((1, length - n_primer))
    for position in range(n_primer, length):
        x = layer_features(spec, histories, position, position + 1, conditions)[:, 0]
        state, logits = lstm_step(params, x, state)
        if is_note:
            _forbid_silent_note_off(logits, sounding)
        logp = log_softmax(logits)
        totals = (scores[:, None] + logp).ravel()
        finite = np.flatnonzero(np.isfinite(totals))
        chosen = finite[np.argsort(-totals[finite], kind="stable")[:beam_width]]
        parents, symbols = np.divmod(chosen, spec.alphabet_size)
        histories = histories[parents]
        histories[:, position] = symbols
        state = LstmState(state.c[:, parents], state.m[:, parents])
        steps = steps[parents]
        steps[:, position - n_primer] = logp.ravel()[chosen]
        scores = totals[chosen]
        sounding = _sounding_after(sounding[parents], symbols, is_note)
    return histories[0], [math.nan] * n_primer + steps[0].tolist()


def generate(
    level_params: dict[str, GeneratorParams],
    specs: dict[str, LayerSpec],
    plan: GenerationPlan,
) -> GenerationResult:
    """Run the hierarchy for one melody.

    ``level_params`` holds the trained layers; a layer may be absent when the
    plan fixes its output. The note layer is always required.
    """
    rng_streams = {
        level: np.random.default_rng(seed)
        for level, seed in zip(
            ("bar", "beat", "note"),
            np.random.SeedSequence(plan.seed).generate_state(3),
        )
    }
    n_beats = plan.bars * BEATS_PER_BAR
    n_steps = plan.bars * STEPS_PER_BAR
    trace: dict = {
        "plan": {
            "bars": plan.bars,
            "mode": plan.mode,
            "temperature": plan.temperature,
            "beam_width": plan.beam_width,
            "seed": plan.seed,
        },
        "levels": {},
    }

    def decode(level: str, primer: list[int], length: int, conditions):
        spec = specs[level]
        if level not in level_params:
            raise ValueError(
                f"no parameters for the {level} layer and no fixed profiles given"
            )
        events, logprobs = _decode_sequence(
            level_params[level],
            spec,
            primer,
            length,
            conditions,
            mode=plan.mode,
            temperature=plan.temperature,
            beam_width=plan.beam_width,
            rng=rng_streams[level],
        )
        trace["levels"][level] = {
            "primer_length": len(primer),
            "events": [int(e) for e in events],
            "log_probs": [None if math.isnan(lp) else lp for lp in logprobs],
        }
        return events

    chroma_beats = None
    if any(spec.chroma for spec in specs.values()):
        chroma_beats = chord_chroma_by_beat(plan.chords, n_beats)

    # Bar level.
    bar_profiles: np.ndarray | None = None
    if "bar" in specs:
        if plan.fixed_bar_profiles is not None:
            bar_profiles = np.asarray(plan.fixed_bar_profiles, dtype=np.int64)
            trace["levels"]["bar"] = {"fixed": [int(v) for v in bar_profiles]}
        else:
            if plan.primer_bar_profile is None:
                raise ValueError("bar layer needs a primer profile or fixed profiles")
            bar_profiles = decode("bar", [plan.primer_bar_profile], plan.bars, None)
        if bar_profiles.min() < 0 or bar_profiles.max() >= specs["bar"].alphabet_size:
            raise ValueError("bar profile index outside the codebook")
    elif plan.fixed_bar_profiles is not None:
        raise ValueError("this variant has no bar level to fix profiles for")

    # Beat level.
    beat_profiles: np.ndarray | None = None
    if "beat" in specs:
        spec = specs["beat"]
        if plan.fixed_beat_profiles is not None:
            beat_profiles = np.asarray(plan.fixed_beat_profiles, dtype=np.int64)
            trace["levels"]["beat"] = {"fixed": [int(v) for v in beat_profiles]}
        else:
            conditions = condition_block(
                spec, n_beats, bar_profiles=bar_profiles, chroma_by_beat=chroma_beats
            )
            if plan.primer_beat_profile is None:
                raise ValueError("beat layer needs a primer profile or fixed profiles")
            beat_profiles = decode(
                "beat", [plan.primer_beat_profile], n_beats, conditions
            )
        if beat_profiles.min() < 0 or beat_profiles.max() >= spec.alphabet_size:
            raise ValueError("beat profile index outside the codebook")
    elif plan.fixed_beat_profiles is not None:
        raise ValueError("this variant has no beat level to fix profiles for")

    # Note level.
    note_spec = specs["note"]
    conditions = condition_block(
        note_spec,
        n_steps,
        bar_profiles=bar_profiles,
        beat_profiles=beat_profiles,
        chroma_by_beat=chroma_beats,
    )
    primer = list(plan.primer_events) if plan.primer_events is not None else None
    if primer is None:
        raise ValueError("a one-beat primer (4 note events) is required")
    events = decode("note", primer, n_steps, conditions)

    grid = MelodyGrid(tuple(int(e) for e in events))
    return GenerationResult(
        grid=grid,
        bar_profiles=bar_profiles,
        beat_profiles=beat_profiles,
        trace=trace,
    )
