"""Rhythm profiles: binarized grid clips clustered with K-Means.

A grid step is *eventful* (1) if it carries a note-on or a note-off, else 0.
Cutting the binarized sequence into widths of 4 gives beat clips, widths of
16 bar clips. Clip collections are clustered (k-means++ seeding, restarted
Lloyd iterations, deterministic under a seed) into a ProfileCodebook whose
centroid indices are the profile vocabulary used to condition generation.

Clips repeat heavily (a corpus has few distinct beat rhythms), so Lloyd
computes distances once per iteration on the distinct clips only and forms
centroids from per-cluster counts of each distinct clip. Labels, empty-cluster
repairs and the objective stay per clip, which keeps every fit identical to
clustering the clips one by one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .encode import NO_EVENT, MelodyGrid, STEPS_PER_BAR

BEAT_WIDTH = 4
BAR_WIDTH = 16
DEFAULT_BEAT_K = 8
DEFAULT_BAR_K = 16
DEFAULT_RESTARTS = 10

CODEBOOK_SCHEMA = 1

# Float slack for the per-iteration objective monotonicity check; Lloyd
# iterations cannot increase the objective in exact arithmetic.
_MONOTONE_SLACK = 1e-10


def binarize(grid: MelodyGrid | Sequence[int]) -> np.ndarray:
    """1 where the grid carries any event (note-on or note-off), else 0."""
    events = grid.to_array() if isinstance(grid, MelodyGrid) else np.asarray(grid)
    return (events != NO_EVENT).astype(np.int8)


def cut_clips(binary: np.ndarray, width: int) -> np.ndarray:
    """Cut a binarized sequence into consecutive (n, width) clips."""
    binary = np.asarray(binary)
    if binary.ndim != 1:
        raise ValueError("expected a 1-D binary sequence")
    if len(binary) % width != 0:
        raise ValueError(f"length {len(binary)} is not a multiple of width {width}")
    return binary.reshape(-1, width).astype(np.float64)


@dataclass
class KMeansFit:
    """One converged clustering: centroids, labels, and its objective."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    wcss: float
    iterations: int
    wcss_history: list[float] = field(default_factory=list)


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_plus_plus(
    distinct: np.ndarray, inverse: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    # Draws are over clips, so duplicates weigh in as often as they occur.
    n = len(inverse)
    centroids = np.empty((k, distinct.shape[1]), dtype=np.float64)
    centroids[0] = distinct[inverse[int(rng.integers(n))]]
    diff = distinct - centroids[0]
    closest = np.einsum("nd,nd->n", diff, diff)[inverse]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining mass sits on already-chosen centroids; distinct
            # points were verified up front, so spread over unseen points.
            candidates = np.flatnonzero(closest == 0.0)
            pick = int(candidates[rng.integers(len(candidates))])
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = distinct[inverse[pick]]
        diff = distinct - centroids[j]
        closest = np.minimum(closest, np.einsum("nd,nd->n", diff, diff)[inverse])
    return centroids


def _lloyd(
    distinct: np.ndarray,
    inverse: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
) -> KMeansFit:
    """Lloyd iterations over clips ``distinct[inverse]``.

    Distances are computed once per iteration, on the distinct rows only;
    labels, repairs and the objective stay per clip, in clip order.
    """
    k, u = len(centroids), len(distinct)
    labels = np.full(len(inverse), -1, dtype=np.int64)
    previous_wcss = np.inf
    history: list[float] = []
    iterations = 0
    # Distances of each distinct row to the current centroids: the start's,
    # then those computed for the objective after each update.
    d2 = _squared_distances(distinct, centroids)
    for iterations in range(1, max_iter + 1):
        new_labels = d2.argmin(axis=1)[inverse]

        # Repair empty clusters: each takes the clip currently farthest from
        # its assigned centroid (deterministic: first max, lowest cluster id).
        # Stealing a singleton's clip can empty another cluster, so loop
        # until none are empty; repaired clips get distance 0 and stay put.
        assigned_d2 = d2[inverse, new_labels]
        counts = np.bincount(new_labels, minlength=k)
        while np.any(counts == 0):
            cluster = int(np.flatnonzero(counts == 0)[0])
            farthest = int(assigned_d2.argmax())
            counts[new_labels[farthest]] -= 1
            counts[cluster] += 1
            new_labels[farthest] = cluster
            assigned_d2[farthest] = 0.0

        # members[c, r]: how many clips of distinct row r cluster c holds.
        members = np.bincount(new_labels * u + inverse, minlength=k * u).reshape(k, u)
        centroids = members @ distinct / counts[:, None]

        d2 = _squared_distances(distinct, centroids)
        wcss = float(d2[inverse, new_labels].sum())
        if wcss > previous_wcss + _MONOTONE_SLACK:
            raise AssertionError(
                f"objective increased ({previous_wcss} -> {wcss}); "
                "Lloyd iteration is broken"
            )
        history.append(wcss)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        previous_wcss = wcss
        if converged:
            break
    return KMeansFit(centroids, labels, previous_wcss, iterations, history)


def kmeans(
    clips: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = 100,
    initial_centroids: np.ndarray | None = None,
) -> KMeansFit:
    """Cluster clips into k centroids, keeping the best of seeded restarts.

    Requires at least k distinct clips. ``initial_centroids`` adds one extra
    deterministic warm-started candidate to the restart pool.

    Each centroid is computed as its members' per-row counts times the
    distinct rows, divided by its size. For 0/1 clips, which is all the
    program clusters, member sums are exact and this equals the members'
    plain mean bit for bit; for other float input a centroid may differ from
    that mean in the last bit.
    """
    points = np.asarray(clips, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("clips must be a non-empty 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    if len(distinct) < k:
        raise ValueError(
            f"cannot form {k} clusters from {len(distinct)} distinct clips; "
            "lower k or enlarge the corpus"
        )
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best: KMeansFit | None = None
    starts: list[np.ndarray] = []
    if initial_centroids is not None:
        starts.append(np.array(initial_centroids, dtype=np.float64))
    for child in seeds:
        rng = np.random.Generator(np.random.PCG64(child))
        starts.append(_kmeans_plus_plus(distinct, inverse, k, rng))
    for start in starts:
        fit = _lloyd(distinct, inverse, start, max_iter)
        if best is None or fit.wcss < best.wcss - 1e-15:
            best = fit
    assert best is not None
    return best


@dataclass
class ProfileCodebook:
    """A clustering result frozen for reuse: the profile vocabulary."""

    kind: str  # "beat" or "bar"
    centroids: np.ndarray  # (k, width)
    seed: int
    iterations: int
    wcss: float

    def __post_init__(self) -> None:
        if self.kind not in ("beat", "bar"):
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        expected = BEAT_WIDTH if self.kind == "beat" else BAR_WIDTH
        if self.centroids.ndim != 2 or self.centroids.shape[1] != expected:
            raise ValueError(
                f"{self.kind} codebook centroids must be (k, {expected})"
            )
        if len(np.unique(self.centroids, axis=0)) != len(self.centroids):
            raise ValueError("codebook centroids must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def width(self) -> int:
        return self.centroids.shape[1]

    def to_dict(self) -> dict:
        return {
            "schema": CODEBOOK_SCHEMA,
            "kind": self.kind,
            "k": self.k,
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "seed": self.seed,
            "iterations": self.iterations,
            "wcss": self.wcss,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ProfileCodebook":
        if obj.get("schema") != CODEBOOK_SCHEMA:
            raise ValueError(f"unsupported codebook schema {obj.get('schema')}")
        return cls(
            kind=obj["kind"],
            centroids=np.array(obj["centroids"], dtype=np.float64),
            seed=obj["seed"],
            iterations=obj["iterations"],
            wcss=obj["wcss"],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ProfileCodebook":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def build_codebook(
    clips: np.ndarray,
    kind: str,
    k: int | None = None,
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = 100,
) -> ProfileCodebook:
    """Cluster clips of one kind ("beat" or "bar") into a codebook."""
    if kind not in ("beat", "bar"):
        raise ValueError(f"unknown codebook kind {kind!r}")
    if k is None:
        k = DEFAULT_BEAT_K if kind == "beat" else DEFAULT_BAR_K
    fit = kmeans(clips, k, seed=seed, restarts=restarts, max_iter=max_iter)
    return ProfileCodebook(
        kind=kind,
        centroids=fit.centroids,
        seed=seed,
        iterations=fit.iterations,
        wcss=fit.wcss,
    )


def assign_many(clips: np.ndarray, codebook: ProfileCodebook) -> np.ndarray:
    """Index of each clip's nearest centroid (ties resolve to the lowest index)."""
    clips = np.asarray(clips, dtype=np.float64)
    if clips.ndim != 2 or clips.shape[1] != codebook.width:
        raise ValueError(f"clips must be (n, {codebook.width})")
    return _squared_distances(clips, codebook.centroids).argmin(axis=1)


def profile_sequences(
    grid: MelodyGrid,
    beat_codebook: ProfileCodebook | None,
    bar_codebook: ProfileCodebook | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-bar and per-beat profile indices for one melody grid."""
    binary = binarize(grid)
    bar_indices = None
    beat_indices = None
    if bar_codebook is not None:
        bar_indices = assign_many(cut_clips(binary, BAR_WIDTH), bar_codebook)
    if beat_codebook is not None:
        beat_indices = assign_many(cut_clips(binary, BEAT_WIDTH), beat_codebook)
    return bar_indices, beat_indices


def elbow_report(
    clips: np.ndarray,
    k_values: Sequence[int],
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = 100,
) -> list[dict]:
    """WCSS for a range of k, for choosing the codebook size by elbow.

    Each k is additionally warm-started from the previous k's solution (best
    centroids plus the farthest point), which makes the reported curve
    non-increasing in k.
    """
    points = np.asarray(clips, dtype=np.float64)
    rows: list[dict] = []
    previous: KMeansFit | None = None
    for k in sorted(k_values):
        warm = None
        if previous is not None and len(previous.centroids) == k - 1:
            d2 = _squared_distances(points, previous.centroids).min(axis=1)
            warm = np.vstack([previous.centroids, points[int(d2.argmax())]])
        fit = kmeans(
            points,
            k,
            seed=seed + k,
            restarts=restarts,
            max_iter=max_iter,
            initial_centroids=warm,
        )
        rows.append({"k": k, "wcss": fit.wcss})
        previous = fit
    return rows
