"""Hierarchical generation: profiles first, then notes, coarse to fine.

:func:`generate` walks the levels bar, beat, note once. Each present level
either takes the plan's fixed profiles ("fixed profile" generation, which
bypasses the layer entirely) or decodes its whole sequence autoregressively
from its primer; its output is fanned out as the condition of the levels
below (one bar profile covers 16 steps, one beat profile 4 steps). Primers
occupy the start of each decoded sequence: one profile for the bar and beat
layers, one beat (4 events) for the note layer. The plan holds the primers
and the fixed profiles, and the result the profiles, each as a mapping keyed
by level.

One loop, :func:`_decode_sequence`, decodes every level in both modes:

    sample  draw each symbol from softmax(logits / temperature);
            temperature 0 short-circuits to argmax (greedy)
    beam    deterministic beam search per layer; width 1 equals greedy

It keeps the live hypotheses as rows of arrays: sampling keeps one row, beam
search W. Each position builds the rows' inputs with the builder training
uses, :func:`specs.layer_features`, runs one batched LSTM step, and masks
note-off in every silent row; only the choice of the next symbols depends
on the mode. Beam search then gathers its rows by parent; sampling's one
row is its own parent and stays in place. The conditions are fanned out
once per level by :func:`specs.condition_block`.

Both modes are deterministic given the plan's seed, and a plan cannot change
after it is checked. Beam search breaks ties on (-score, parent, symbol). A
multi-row step sums its products in a different order than single-row
steps, so beam log-probabilities can differ from a per-hypothesis search in
the last bits. The same seed gives the same bytes within a build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..encode import MAX_BARS, N_PITCHES, NOTE_OFF, MelodyGrid
from ..leadsheet import ChordSymbol
from ..neural import GeneratorParams, LstmState, log_softmax, lstm_step
from .specs import (
    HIERARCHY,
    LEVELS,
    PROFILE_LEVELS,
    LayerSpec,
    chord_chroma_by_beat,
    condition_block,
    layer_features,
)


@dataclass(frozen=True)
class GenerationPlan:
    """Everything one melody generation depends on.

    ``primers`` maps a level to the start of its sequence: one profile for
    "bar" and "beat", one beat (4 events) for "note". ``fixed_profiles`` maps
    a profile level to its whole sequence, one index per bar or per beat.

    A plan is checked once, when it is made, so it cannot change afterwards:
    it is frozen, and it keeps both mappings as read-only copies with tuple
    values.
    """

    bars: int
    mode: str = "sample"  # "sample" or "beam"
    temperature: float = 1.0
    beam_width: int = 3
    seed: int = 0
    primers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    fixed_profiles: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    chords: tuple[ChordSymbol, ...] = ()

    def __post_init__(self) -> None:
        for name in ("primers", "fixed_profiles"):
            given = getattr(self, name)
            frozen = MappingProxyType({level: tuple(v) for level, v in given.items()})
            object.__setattr__(self, name, frozen)
        if self.bars < 1:
            raise ValueError("bars must be >= 1")
        if self.bars > MAX_BARS:
            raise ValueError(f"bars must be <= {MAX_BARS}, got {self.bars}")
        if self.mode not in ("sample", "beam"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        for what, given, levels in (
            ("primers", self.primers, LEVELS),
            ("fixed profiles", self.fixed_profiles, PROFILE_LEVELS),
        ):
            for level in given:
                if level not in levels:
                    raise ValueError(f"{what} for {level!r}, which is not one of {levels}")
        for level in LEVELS:
            primer, fixed = self.primers.get(level), self.fixed_profiles.get(level)
            length = HIERARCHY[level].primer_length
            if primer is not None and len(primer) != length:
                wrong_length = (
                    f"{level} primer must be one profile" if level in PROFILE_LEVELS
                    else f"primer must cover one beat ({length} events)"
                )
                raise ValueError(f"{wrong_length}, got {len(primer)}")
            count = HIERARCHY[level].positions(self.bars)
            if fixed is not None and len(fixed) != count:
                raise ValueError(
                    f"fixed {level} profiles must cover {count} {level}s, got {len(fixed)}"
                )


@dataclass
class GenerationResult:
    grid: MelodyGrid
    profiles: dict[str, np.ndarray]  # the bar and beat sequences the variant has
    trace: dict


def tile_profiles(pattern: tuple[int, ...] | list[int], length: int) -> tuple[int, ...]:
    """Cycle a short profile pattern out to the requested length."""
    if not pattern:
        raise ValueError("cannot tile an empty profile pattern")
    return tuple(pattern[i % len(pattern)] for i in range(length))


def _sounding_after(sounding: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Per row, whether a note is sounding after emitting ``events``."""
    return (events < N_PITCHES) | ((events != NOTE_OFF) & sounding)


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

    The live hypotheses are rows of arrays: histories (W, length), the
    stacked LSTM state (L, W, H), scores (W,), per-step log-probs and
    sounding flags. Sampling keeps W = 1; beam search up to ``beam_width``.
    Each position runs one (W, D) ``lstm_step``, then picks (parent, symbol)
    pairs of the flattened (W, K) log-probs:

    - beam: the best finite totals, ties broken to the earlier parent, then
      the earlier symbol, by a stable sort;
    - temperature 0: the argmax of the one row;
    - sampling: one draw from softmax(logits / temperature) of the one row.

    Beam search then gathers every row array by parent; sampling writes its
    one row in place.

    Note-level decoding is constrained: while nothing is sounding, the
    note-off symbol's logit is masked out before normalization, so every
    decoded sequence is a structurally valid melody grid by construction.
    """
    if any(not 0 <= e < spec.alphabet_size for e in primer):
        raise ValueError("primer event outside the layer alphabet")
    n_primer = len(primer)
    histories = np.zeros((1, length), dtype=np.int64)
    histories[0, :n_primer] = primer
    state: LstmState | None = None
    sounding = np.zeros(1, dtype=bool)
    scores = np.zeros(1)
    steps = np.empty((1, length - n_primer))
    for position in range(length):
        x = layer_features(spec, histories, position, position + 1, conditions)[:, 0]
        state, logits = lstm_step(params, x, state)
        if position < n_primer:
            sounding = _sounding_after(sounding, histories[:, position])
            continue
        if spec.grid_events:
            logits[~sounding, NOTE_OFF] = -np.inf
        logp = log_softmax(logits)
        if mode == "beam":
            totals = (scores[:, None] + logp).ravel()
            finite = np.flatnonzero(np.isfinite(totals))
            chosen = finite[np.argsort(-totals[finite], kind="stable")[:beam_width]]
            scores = totals[chosen]
            parents, symbols = np.divmod(chosen, spec.alphabet_size)
            histories = histories.take(parents, axis=0)
            state = LstmState(state.c.take(parents, axis=1), state.m.take(parents, axis=1))
            steps = steps.take(parents, axis=0)
            sounding = sounding.take(parents)
        else:
            # The one row is its own parent, and its symbol is the flat index.
            if temperature == 0.0:
                symbols = logp[0].argmax(keepdims=True)
            else:
                scaled = log_softmax(logits[0] / temperature)
                symbols = np.array([rng.choice(spec.alphabet_size, p=np.exp(scaled))])
            chosen = symbols
        histories[:, position] = symbols
        steps[:, position - n_primer] = logp.take(chosen)
        sounding = _sounding_after(sounding, symbols)
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
    seeds = np.random.SeedSequence(plan.seed).generate_state(len(LEVELS))
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
    chroma_beats = None
    if any(spec.chroma for spec in specs.values()):
        chroma_beats = chord_chroma_by_beat(plan.chords, HIERARCHY["beat"].positions(plan.bars))

    outputs: dict[str, np.ndarray] = {}
    for level, seed in zip(LEVELS, seeds):
        fixed = plan.fixed_profiles.get(level)
        if level not in specs:
            if fixed is not None:
                raise ValueError(f"this variant has no {level} level to fix profiles for")
            continue
        spec = specs[level]
        if fixed is not None:
            events = np.asarray(fixed, dtype=np.int64)
            if events.min() < 0 or events.max() >= spec.alphabet_size:
                raise ValueError(f"{level} profile index outside the codebook")
            trace["levels"][level] = {"fixed": [int(v) for v in events]}
        else:
            if level not in plan.primers:
                raise ValueError(
                    f"{level} layer needs a primer profile or fixed profiles"
                    if level in PROFILE_LEVELS
                    else f"a one-beat primer ({HIERARCHY[level].primer_length} note events)"
                    " is required"
                )
            primer = list(plan.primers[level])
            if level not in level_params:
                raise ValueError(
                    f"no parameters for the {level} layer and no fixed profiles given"
                )
            length = HIERARCHY[level].positions(plan.bars)
            conditions = condition_block(
                spec, length, profiles=outputs, chroma_by_beat=chroma_beats
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
                rng=np.random.default_rng(seed),
            )
            trace["levels"][level] = {
                "primer_length": len(primer),
                "events": [int(e) for e in events],
                "log_probs": [None if math.isnan(lp) else lp for lp in logprobs],
            }
        outputs[level] = events

    note = outputs.pop("note")
    return GenerationResult(
        grid=MelodyGrid(tuple(int(e) for e in note)), profiles=outputs, trace=trace
    )
