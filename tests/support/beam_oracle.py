"""Per-hypothesis beam search reference: one single-row ``lstm_step`` per
live hypothesis per position, candidates as Python tuples sorted on
(-score, parent, symbol). It builds each input row with the scalar
``feature_oracle``, and shares no decoding or feature code with
melodygen.hrnn. A test swaps it in for ``generation._decode_sequence``
under ``generate`` for beam plans."""

from __future__ import annotations

import math

import numpy as np

from melodygen.encode import N_PITCHES, NOTE_OFF
from melodygen.neural import LstmState, log_softmax, lstm_step

from .feature_oracle import reference_input_row


def sounding_after(sounding: bool, event: int, is_note: bool) -> bool:
    if not is_note:
        return sounding
    if event < N_PITCHES:
        return True
    if event == NOTE_OFF:
        return False
    return sounding


def reference_beam_decode(params, spec, primer, length, conditions, beam_width):
    """Events (length,) and log-probs (NaN over the primer) of the best beam."""
    is_note = spec.level == "note"

    def input_at(history: np.ndarray, position: int) -> np.ndarray:
        condition = None if conditions is None else conditions[position]
        return reference_input_row(spec, history, position, condition)

    def masked(logits: np.ndarray, sounding: bool) -> np.ndarray:
        if is_note and not sounding:
            logits = logits.copy()
            logits[NOTE_OFF] = -np.inf
        return logits

    events = np.zeros(length, dtype=np.int64)
    events[: len(primer)] = primer
    state = None
    sounding = False
    for position in range(len(primer)):
        state, _ = lstm_step(params, input_at(events, position), state)
        sounding = sounding_after(sounding, int(events[position]), is_note)

    # Hypothesis: (score, history array, state, per-step logprobs, sounding).
    hypotheses = [(0.0, events[: len(primer)].copy(), state, [], sounding)]
    for position in range(len(primer), length):
        candidates = []
        for h_index, (score, history, h_state, _, h_sounding) in enumerate(hypotheses):
            padded = np.zeros(length, dtype=np.int64)
            padded[: len(history)] = history
            new_state, logits = lstm_step(params, input_at(padded, position), h_state)
            logp = log_softmax(masked(logits, h_sounding))
            for symbol in range(spec.alphabet_size):
                if not np.isfinite(logp[symbol]):
                    continue
                candidates.append(
                    (score + float(logp[symbol]), h_index, symbol, new_state, float(logp[symbol]))
                )
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_hypotheses = []
        for total, h_index, symbol, new_state, step_logp in candidates[:beam_width]:
            _, history, _, steps, h_sounding = hypotheses[h_index]
            next_hypotheses.append(
                (
                    total,
                    np.append(history, symbol),
                    LstmState(new_state.c.copy(), new_state.m.copy()),
                    steps + [step_logp],
                    sounding_after(h_sounding, symbol, is_note),
                )
            )
        hypotheses = next_hypotheses
    _, best_history, _, best_steps, _ = hypotheses[0]
    return best_history, [math.nan] * len(primer) + best_steps
