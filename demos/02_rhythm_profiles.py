"""
Clustering onset patterns into a rhythm-profile codebook
========================================================

A melody's rhythm, stripped of pitch, is a binary vector: one bit per
16th-note step, 1 where a note starts. Cutting those vectors into
bar-sized (16-step) and beat-sized (4-step) clips and running K-Means on
the clips yields a small vocabulary of recurring rhythmic shapes -- the
"profiles" the hierarchical generator later predicts before it picks any
pitches. This script builds the clips from a synthetic corpus, fits a
codebook, draws the centroids, and tabulates the elbow curve for k.
"""

import numpy as np

from melodygen.encode import grid_encode, normalize_sheet
from melodygen.profiles import (
    assign_many,
    binarize,
    build_codebook,
    cut_clips,
    elbow_report,
    profile_sequences,
)
from melodygen.synthetic import synthetic_corpus

# ---------------------------------------------------------------------------
# A reproducible corpus: 24 eight-bar pieces that reuse a handful of
# per-beat rhythm figures, which is exactly the structure clustering
# should recover.
# ---------------------------------------------------------------------------
pieces = synthetic_corpus(24, seed=11, n_bars=8)
grids = [grid_encode(normalize_sheet(piece)) for piece in pieces]
print(f"corpus: {len(grids)} pieces, {sum(g.n_bars for g in grids)} bars total")

# ---------------------------------------------------------------------------
# Binarize one grid and show the onset pattern of its first two bars.
# ---------------------------------------------------------------------------
binary = binarize(grids[0])
print("\nonset bits of piece 0, bars 1-2:")
for bar in range(2):
    bits = binary[bar * 16 : (bar + 1) * 16]
    print(f"  |{''.join('#' if b else '.' for b in bits)}|")

# ---------------------------------------------------------------------------
# Cut every piece into clips: 16-step bar clips and 4-step beat clips.
# ---------------------------------------------------------------------------
bar_clips = np.vstack([cut_clips(binarize(g), 16) for g in grids])
beat_clips = np.vstack([cut_clips(binarize(g), 4) for g in grids])
print(f"\nclips: {len(bar_clips)} bars x 16 steps, {len(beat_clips)} beats x 4 steps")
print(f"distinct beat patterns in the corpus: {len(np.unique(beat_clips, axis=0))}")

# ---------------------------------------------------------------------------
# Fit the beat codebook. K-Means++ seeding plus several restarts makes the
# fit deterministic for a given seed; centroids are means of binary clips,
# so each value is the probability of an onset at that step within the
# cluster.
# ---------------------------------------------------------------------------
beat_codebook = build_codebook(beat_clips, "beat", k=8, seed=3)
print(f"\nbeat codebook: k={beat_codebook.k}, wcss={beat_codebook.wcss:.3f}, "
      f"{beat_codebook.iterations} Lloyd iterations")
counts = np.bincount(assign_many(beat_clips, beat_codebook), minlength=beat_codebook.k)
print("profile  pattern          members")
for index, centroid in enumerate(beat_codebook.centroids):
    cells = " ".join(f"{v:.2f}" for v in centroid)
    print(f"   {index}     [{cells}]  {counts[index]:5d}")

# ---------------------------------------------------------------------------
# The same for bars, drawn as a density strip: ' ' empty, '·' sometimes,
# '#' nearly always an onset.
# ---------------------------------------------------------------------------
bar_codebook = build_codebook(bar_clips, "bar", k=6, seed=3)
print(f"\nbar codebook: k={bar_codebook.k}, wcss={bar_codebook.wcss:.3f}")
counts = np.bincount(assign_many(bar_clips, bar_codebook), minlength=bar_codebook.k)
for index, centroid in enumerate(bar_codebook.centroids):
    strip = "".join("#" if v > 0.8 else "·" if v > 0.2 else " " for v in centroid)
    print(f"  profile {index}: |{strip}|  ({counts[index]} bars)")

# ---------------------------------------------------------------------------
# A piece is now describable as one profile index per bar and per beat --
# the conditioning sequences the upper layers of the generator train on.
# ---------------------------------------------------------------------------
profiles = profile_sequences(grids[0], {"bar": bar_codebook, "beat": beat_codebook})
print("\npiece 0 as profile sequences:")
print("  bars: ", profiles["bar"].tolist())
print("  beats:", profiles["beat"].tolist())

# ---------------------------------------------------------------------------
# How big should k be? The elbow table: within-cluster sum of squares for
# a range of k, warm-started so the curve is non-increasing. The corpus
# reuses exactly 8 beat figures, so the curve should fall to 0 at k=8 --
# that corner is the elbow.
# ---------------------------------------------------------------------------
print("\nelbow for the beat clips:")
print("   k   wcss")
for row in elbow_report(beat_clips, range(1, 9), seed=3):
    print(f"  {row['k']:2d}   {row['wcss']:9.3f}")
