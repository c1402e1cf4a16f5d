"""Single-row sampling reference: one position at a time, each input row
built with the scalar ``feature_oracle`` and run through one single-row
``lstm_step``, the symbol drawn from softmax(logits / temperature), or the
argmax at temperature 0. It shares no decoding or feature code with
melodygen.hrnn."""

from __future__ import annotations

import math

import numpy as np

from melodygen.encode import NOTE_OFF
from melodygen.neural import log_softmax, lstm_step

from .beam_oracle import sounding_after
from .feature_oracle import reference_input_row


def reference_sample_decode(params, spec, primer, length, conditions, temperature, rng):
    """Events (length,) and log-probs (NaN over the primer) of one sequence."""
    is_note = spec.level == "note"
    events = np.zeros(length, dtype=np.int64)
    events[: len(primer)] = primer
    logprobs = [math.nan] * len(primer)
    state = None
    sounding = False
    for position in range(length):
        condition = None if conditions is None else conditions[position]
        x = reference_input_row(spec, events, position, condition)
        state, logits = lstm_step(params, x, state)
        if position < len(primer):
            sounding = sounding_after(sounding, int(events[position]), is_note)
            continue
        if is_note and not sounding:
            logits[NOTE_OFF] = -np.inf
        logp = log_softmax(logits)
        if temperature == 0.0:
            choice = int(logp.argmax())
        else:
            p = np.exp(log_softmax(logits / temperature))
            choice = int(rng.choice(spec.alphabet_size, p=p))
        events[position] = choice
        logprobs.append(float(logp[choice]))
        sounding = sounding_after(sounding, choice, is_note)
    return events, logprobs
