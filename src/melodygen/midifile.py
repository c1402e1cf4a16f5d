"""Minimal standard MIDI file writer (format 0, single track).

The grid's 16th steps map to a fixed 120 ticks (480 ticks per quarter note).
Notes are written as note-on/note-off pairs on channel 0 with a fixed
velocity; the tempo is a single set-tempo meta event at tick 0. When two
notes are adjacent, the first one's note-off lands on the same tick as the
second one's note-on and is written first.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

TICKS_PER_QUARTER = 480
TICKS_PER_STEP = TICKS_PER_QUARTER // 4  # 120
VELOCITY = 90
CHANNEL = 0
# Set-tempo stores microseconds per quarter in 3 bytes, from 1 to 0xFFFFFF.
MIN_TEMPO_BPM = 60_000_000 // 0xFFFFFF + 1  # 4
MAX_TEMPO_BPM = 60_000_000
DEFAULT_TEMPO_BPM = 120


def _variable_length(value: int) -> bytes:
    """Encode a non-negative integer as a MIDI variable-length quantity."""
    if value < 0:
        raise ValueError("delta time must be non-negative")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def write_midi(
    notes: Iterable[Sequence[int]],
    tempo_bpm: int = DEFAULT_TEMPO_BPM,
    *,
    text_events: Sequence[str] = (),
) -> bytes:
    """Render (pitch, onset_step, duration_steps) notes to MIDI file bytes.

    ``text_events`` are embedded as text meta events at tick 0 (used to stamp
    outputs with the producing configuration). An empty note list still
    produces a valid file containing only the tempo event.
    """
    if not MIN_TEMPO_BPM <= tempo_bpm <= MAX_TEMPO_BPM:
        raise ValueError(
            f"tempo {tempo_bpm} bpm outside {MIN_TEMPO_BPM}..{MAX_TEMPO_BPM}"
        )

    # Sort key (tick, order, sequence, message): note-offs (order 0) precede
    # note-ons (order 1) at the same tick; equal-order notes sort by message
    # bytes (so by pitch); text events keep their caller-given sequence.
    events: list[tuple[int, int, int, bytes]] = []
    microseconds = 60_000_000 // tempo_bpm
    events.append(
        (0, -2, 0, bytes([0xFF, 0x51, 0x03]) + struct.pack(">I", microseconds)[1:])
    )
    for sequence, text in enumerate(text_events):
        payload = text.encode("utf-8")
        events.append(
            (0, -1, sequence, bytes([0xFF, 0x01]) + _variable_length(len(payload)) + payload)
        )
    for pitch, onset_step, duration_steps in notes:
        if not 0 <= pitch <= 127:
            raise ValueError(f"pitch {pitch} outside MIDI range")
        if onset_step < 0:
            raise ValueError(f"negative onset step {onset_step}")
        if duration_steps <= 0:
            raise ValueError(f"note duration must be positive, got {duration_steps}")
        on_tick = onset_step * TICKS_PER_STEP
        off_tick = (onset_step + duration_steps) * TICKS_PER_STEP
        events.append((on_tick, 1, 0, bytes([0x90 | CHANNEL, pitch, VELOCITY])))
        events.append((off_tick, 0, 0, bytes([0x80 | CHANNEL, pitch, 0])))

    events.sort(key=lambda item: (item[0], item[1], item[2], item[3]))

    track = bytearray()
    previous_tick = 0
    for tick, _, _, message in events:
        track += _variable_length(tick - previous_tick)
        track += message
        previous_tick = tick
    track += _variable_length(0) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)
