"""Reference grid quantizers in ``Fraction`` arithmetic.

``reference_quantize`` rounds a value to the nearest integer, exact halves
earlier, in ``Fraction`` arithmetic; ``encode.quantize_ratio`` is its integer
``divmod`` form. ``reference_grid_encode`` is
``encode.grid_encode`` as it was before it quantized from integer
numerator/denominator pairs: every onset and end is a ``Fraction``. The
property tests compare the integer forms with these.
"""

from __future__ import annotations

from fractions import Fraction

from melodygen.encode import (
    NO_EVENT,
    NOTE_OFF,
    PITCH_MIN,
    STEPS_PER_BAR,
    STEPS_PER_QUARTER,
    MelodyGrid,
    fold_octaves,
)
from melodygen.leadsheet import LeadSheet


def reference_quantize(value: Fraction | int) -> int:
    value = Fraction(value)
    floor = value.numerator // value.denominator
    if value - floor == Fraction(1, 2):
        return floor
    half_up = value + Fraction(1, 2)
    return half_up.numerator // half_up.denominator


def reference_grid_encode(sheet: LeadSheet) -> MelodyGrid:
    if sheet.time_signature != (4, 4):
        raise ValueError(f"grid encoding requires 4/4, got {sheet.time_signature}")
    n_steps = sheet.n_bars * STEPS_PER_BAR
    quantized = []
    for note in sheet.notes:
        on = reference_quantize(note.onset * STEPS_PER_QUARTER)
        off = reference_quantize((note.onset + note.duration) * STEPS_PER_QUARTER)
        if off <= on:
            continue
        quantized.append((fold_octaves(note.midi_pitch), on, off - on))

    by_onset = {}
    for pitch, on, dur in quantized:
        kept = by_onset.get(on)
        if kept is None or (dur, pitch) > (kept[2], kept[0]):
            by_onset[on] = (pitch, on, dur)
    ordered = [by_onset[on] for on in sorted(by_onset)]

    for (_, on_a, dur_a), (_, on_b, _) in zip(ordered, ordered[1:]):
        if on_a + dur_a > on_b:
            raise ValueError(
                f"notes overlap after quantization at steps {on_a}..{on_a + dur_a}"
                f" and {on_b}; melody is not monophonic"
            )
    if ordered and ordered[-1][1] + ordered[-1][2] > n_steps:
        raise ValueError("note extends past the final bar")

    events = [NO_EVENT] * n_steps
    for pitch, on, _ in ordered:
        events[on] = pitch - PITCH_MIN
    for _, on, dur in ordered:
        end = on + dur
        if end < n_steps and events[end] == NO_EVENT:
            events[end] = NOTE_OFF
    return MelodyGrid(tuple(events))
