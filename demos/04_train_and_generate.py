"""
Training the three-layer hierarchy and generating a melody
==========================================================

End to end: synthesize a small corpus of lead sheets, learn rhythm
profiles, train the three recurrent layers (bar profiles -> beat profiles
-> note events), and then run the hierarchy forward to produce a new
melody -- sampled, and again with beam search. The result is drawn as a
piano roll and rendered to standard MIDI file bytes.
"""

import tempfile
from pathlib import Path

from melodygen.encode import NO_EVENT, PITCH_MIN, grid_decode, grid_encode, normalize_sheet
from melodygen.hrnn import (
    GenerationPlan,
    build_datasets,
    generate,
    layer_config,
    layer_specs,
    train_layer,
)
from melodygen.midifile import write_midi
from melodygen.neural import TrainConfig
from melodygen.profiles import build_codebook, binarize, cut_clips
from melodygen.synthetic import synthetic_corpus

import numpy as np

NOTE_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


def pitch_name(midi):
    return f"{NOTE_NAMES[midi % 12]}{midi // 12 - 1}"


def piano_roll(grid):
    notes = grid_decode(grid)
    for pitch in sorted({p for p, _, _ in notes}, reverse=True):
        row = [" "] * len(grid)
        for note_pitch, onset, duration in notes:
            if note_pitch == pitch:
                row[onset] = "#"
                for step in range(onset + 1, onset + duration):
                    row[step] = "="
        print(f"  {pitch_name(pitch):>3} |{''.join(row)}|")


# ---------------------------------------------------------------------------
# Corpus and codebooks. 20 four-bar pieces; rhythm clustered into 6 beat
# profiles and 5 bar profiles.
# ---------------------------------------------------------------------------
pieces = synthetic_corpus(20, seed=42, n_bars=4)
grids = [grid_encode(normalize_sheet(piece)) for piece in pieces]
beat_clips = np.vstack([cut_clips(binarize(g), 4) for g in grids])
bar_clips = np.vstack([cut_clips(binarize(g), 16) for g in grids])
beat_codebook = build_codebook(beat_clips, "beat", k=6, seed=1)
bar_codebook = build_codebook(bar_clips, "bar", k=5, seed=1)
print(f"corpus: {len(grids)} pieces; codebooks: beat k={beat_codebook.k}, "
      f"bar k={bar_codebook.k}")

# ---------------------------------------------------------------------------
# Datasets. The "3L" variant trains all three levels; the last two pieces
# are held out for validation. Each level sees its own input layout:
# previous symbol, conditioning profiles, and lookback features.
# ---------------------------------------------------------------------------
datasets = build_datasets(
    grids, "3L", beat_codebook=beat_codebook, bar_codebook=bar_codebook
)
train_sets = {level: seqs[:-2] for level, seqs in datasets.items()}
val_sets = {level: seqs[-2:] for level, seqs in datasets.items()}
specs = layer_specs("3L", beat_k=beat_codebook.k, bar_k=bar_codebook.k)
for level, spec in specs.items():
    print(f"  {level:>4} layer: input dim {spec.input_dim}, "
          f"alphabet {spec.alphabet_size}")

# ---------------------------------------------------------------------------
# Train each layer. One base config; layer_config gives every level its
# own seed stream so the layers do not share initialization.
# ---------------------------------------------------------------------------
base = TrainConfig(
    hidden_size=48,
    n_lstm_layers=1,
    learning_rate=0.005,
    dropout=0.0,
    batch_size=8,
    max_iterations=800,
    eval_every=100,
    seed=7,
)
level_params = {}
for level in ("bar", "beat", "note"):
    result = train_layer(
        specs[level], train_sets[level], val_sets[level], layer_config(base, level)
    )
    level_params[level] = result.params
    last = result.curves[-1]
    extra = ""
    if level == "note":
        # Exact-event accuracy is capped by the corpus's random-walk pitch
        # choices; where a note happens is the learnable part.
        extra = f", val rhythm accuracy {last['val_no_event_accuracy']:.3f}"
    print(f"trained {level:>4}: stop={result.stop_reason}, "
          f"train loss {result.final_train_loss:.3f}, "
          f"val accuracy {last['val_combined_accuracy']:.3f}{extra}")

# ---------------------------------------------------------------------------
# Generate. The plan primes the first beat with a single C4 and lets the
# hierarchy invent the rest: the bar layer writes 4 profile symbols, the
# beat layer 16, the note layer 64 grid events.
# ---------------------------------------------------------------------------
plan = GenerationPlan(
    bars=4,
    mode="sample",
    temperature=1.0,
    seed=2,
    primers={"bar": (0,), "beat": (0,), "note": (60 - PITCH_MIN, NO_EVENT, NO_EVENT, NO_EVENT)},
)
result = generate(level_params, specs, plan)
print(f"\nsampled melody (seed {plan.seed}):")
print(f"  bar profiles:  {result.profiles['bar'].tolist()}")
print(f"  beat profiles: {result.profiles['beat'].tolist()}")
piano_roll(result.grid)

# ---------------------------------------------------------------------------
# Beam search instead of sampling: deterministic, and it keeps the 3 most
# probable partial melodies at every step instead of rolling dice.
# ---------------------------------------------------------------------------
beam_plan = GenerationPlan(
    bars=4,
    mode="beam",
    beam_width=3,
    primers=plan.primers,
)
beam_result = generate(level_params, specs, beam_plan)
print("\nbeam-searched melody (width 3):")
piano_roll(beam_result.grid)

# ---------------------------------------------------------------------------
# Render the sampled melody to a format-0 standard MIDI file.
# ---------------------------------------------------------------------------
midi = write_midi(grid_decode(result.grid), tempo_bpm=100, text_events=["demo"])
path = Path(tempfile.gettempdir()) / "melodygen_demo.mid"
path.write_bytes(midi)
print(f"\nwrote {len(midi)} MIDI bytes to {path}")
print("header:", midi[:14].hex(" "))
