"""Rhythm profiles: binarized grid clips clustered with K-Means.

A grid step is *eventful* (1) if it carries a note-on or a note-off, else 0.
Cutting the binarized sequence into widths of 4 gives beat clips, widths of
16 bar clips: the profile levels, :data:`PROFILE_WIDTHS`, are those coarser
than a note. Clip collections are clustered (k-means++ seeding, restarted
Lloyd iterations, deterministic under a seed) into a ProfileCodebook whose
centroid indices are the profile vocabulary used to condition generation.

Clips repeat heavily (a corpus has few distinct beat rhythms), so Lloyd
works on the distinct clips and forms centroids from per-cluster counts of
each distinct clip. Every start of one ``kmeans`` call (the seeded k-means++
starts plus an optional warm start) iterates in lockstep as one (R, k, d)
batch, and a start leaves the batch when its labels stop changing.

Each iteration labels the distinct clips of every start with one GEMM screen
of |c|^2 - 2x.c. The screen has an a-priori rounding bound, so a clip whose
screened minimum beats every other cluster by more than the bound has a
certified nearest centroid. Any other clip (a near or exact tie) is labelled
by the per-element distance |x - c|^2 itself. Labels, empty-cluster repairs
and the objective stay per start and per clip, which keeps every fit
identical to clustering the clips one by one, one start at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .artifacts import expect_schema, parse, require, write
from .encode import LEVEL_STEPS, NO_EVENT, MelodyGrid

# Each profile level, a codebook's kind, and the width of its clips.
PROFILE_WIDTHS = MappingProxyType({level: n for level, n in LEVEL_STEPS.items() if n > 1})
BEAT_WIDTH = PROFILE_WIDTHS["beat"]
BAR_WIDTH = PROFILE_WIDTHS["bar"]
DEFAULT_RESTARTS = 10
# Lloyd iterations per start; a start that has not converged by then stops.
MAX_ITERATIONS = 100

CODEBOOK_SCHEMA = 1

# Float slack for the per-iteration objective monotonicity check; Lloyd
# iterations cannot increase the objective in exact arithmetic.
_MONOTONE_SLACK = 1e-10


def binarize(grid: MelodyGrid) -> np.ndarray:
    """1 where the grid carries any event (note-on or note-off), else 0."""
    return (grid.to_array() != NO_EVENT).astype(np.int8)


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


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(points, axis=0, return_inverse=True)`` by one stable lexsort.

    Rows come out in the same (lexicographic) order with the same inverse.
    As in ``np.unique``, -0.0 equals 0.0, so a group's representative row may
    carry either sign of zero.
    """
    order = np.lexsort(points.T[::-1])
    ordered = points[order]
    starts_group = np.empty(len(points), dtype=bool)
    starts_group[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts_group[1:])
    inverse = np.empty(len(points), dtype=np.int64)
    inverse[order] = np.cumsum(starts_group) - 1
    return ordered[starts_group], inverse


# Screen rounding bound (see _screen). u = _EPS / 2 is the unit roundoff and
# gamma_m = m*u / (1 - m*u) the bound of an m-term dot product. Per cluster,
# the screen |c|^2 - 2x.c is within gamma_(d+1) * (|x|^2 + 2|c|^2) of exact,
# and the reference's diff-form distance within gamma_(d+2) * 2(|x|^2 + |c|^2).
# Comparing two clusters therefore errs by at most
# 8 * gamma_(d+2) * S ~ 4(d+2) * eps * S, where S = |x|^2 + max |c|^2, and
# forming min + bound costs up to another eps * S. A bound of
# 4(d+3) * eps * S covers both. The _TINY term covers underflow, whose
# absolute error is below d times half the smallest subnormal per dot product.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Uncertain (start, row) pairs per diff-form block of ``_nearest``: its
# (pairs, k, d) temporaries stay this size however many rows tie.
TIE_BLOCK = 1024


def _screen(
    points: np.ndarray, norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Certified nearest centroids per start: (u, d) points, (A, k, d) centroids.

    ``norms`` holds each point's |x|^2. One GEMM screens |c|^2 - 2x.c for
    every start and cluster; a cluster is a candidate when its screen lies
    within the rounding bound of the row's minimum. Returns (A, u) labels and
    an (A, u) mask of uncertain rows: those with more than one candidate (a
    near or exact tie) or too large for the bound. Every other label equals
    ``_squared_distances(points, centroids[a]).argmin(axis=1)``.
    """
    n_starts, k, d = centroids.shape
    # Cluster-major rows, so every reduction below runs over the leading axis.
    by_cluster = centroids.transpose(1, 0, 2).reshape(k * n_starts, d)
    centroid_norms = np.einsum("md,md->m", by_cluster, by_cluster)
    screen = (-2.0 * by_cluster) @ points.T
    screen += centroid_norms[:, None]
    screen = screen.reshape(k, n_starts, len(points))
    low = screen.min(axis=0)
    scale = norms + centroid_norms.reshape(k, n_starts).max(axis=0)[:, None]
    bound = 4 * (d + 3) * (_EPS * scale + _TINY)
    candidates = np.less_equal(screen, low + bound, out=np.empty_like(screen))
    # One small exact GEMM: each row's candidate count and candidate index sum.
    count_and_index = np.stack([np.ones(k), np.arange(k, dtype=np.float64)])
    count, index = (count_and_index @ candidates.reshape(k, -1)).reshape(2, n_starts, -1)
    return index.astype(np.int64), (count != 1) | ~np.isfinite(4 * scale)


def _nearest(points: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``_screen``'s labels, with uncertain rows labelled by diff-form distances.

    The result equals ``_squared_distances(points, centroids[a]).argmin(axis=1)``
    for every start a, first minimum first.
    """
    labels, uncertain = _screen(points, norms, centroids)
    starts, rows = np.nonzero(uncertain)
    for block in range(0, len(rows), TIE_BLOCK):
        a, r = starts[block : block + TIE_BLOCK], rows[block : block + TIE_BLOCK]
        diff = points[r][:, None, :] - centroids[a]
        labels[a, r] = np.einsum("nkd,nkd->nk", diff, diff).argmin(axis=1)
    return labels


def _own_distances(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its labelled centroid, per start.

    (m, d) points, (A, k, d) centroids and (A, m) labels give (A, m), with
    the same per-element arithmetic as ``_squared_distances``.
    """
    n_starts, k, d = centroids.shape
    flat = labels + k * np.arange(n_starts)[:, None]
    diff = points - np.take(centroids.reshape(n_starts * k, d), flat, axis=0)
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


@dataclass
class LloydRuns:
    """The fit of every start of one ``kmeans`` call, in start order."""

    fits: list[KMeansFit]

    @property
    def iterations(self) -> int:
        """Lloyd iterations summed over the starts."""
        return sum(fit.iterations for fit in self.fits)


def _lloyd(
    distinct: np.ndarray,
    inverse: np.ndarray,
    starts: np.ndarray,
    max_iter: int,
) -> LloydRuns:
    """Lloyd iterations over clips ``distinct[inverse]`` from (R, k, d) starts.

    The starts advance in lockstep, and each leaves the batch when its labels
    stop changing. Labels, repairs, the objective and the stopping rule stay
    per start and per clip, so each fit equals running its start alone.
    """
    n_starts, k, _ = starts.shape
    u = len(distinct)
    norms = np.einsum("ud,ud->u", distinct, distinct)
    multiplicity = np.bincount(inverse, minlength=u).astype(np.float64)
    centroids = np.array(starts, dtype=np.float64)
    labels = np.full((n_starts, len(inverse)), -1, dtype=np.int64)
    wcss = np.full(n_starts, np.inf)
    iterations = np.zeros(n_starts, dtype=np.int64)
    active = np.arange(n_starts)
    for _ in range(max_iter):
        if len(active) == 0:
            break
        n_active = len(active)
        batch = centroids[active]
        row_labels = _nearest(distinct, norms, batch)
        new_labels = row_labels[:, inverse]
        # members[a*k + c, r]: how many clips of distinct row r cluster c of
        # start a holds; _repair moves single clips between clusters.
        slots = (row_labels + k * np.arange(n_active)[:, None]).ravel()
        weights = np.tile(multiplicity, n_active)
        members = np.bincount(
            slots * u + np.tile(np.arange(u), n_active), weights, n_active * k * u
        ).reshape(n_active * k, u)
        counts = np.bincount(slots, weights, n_active * k).astype(np.int64).reshape(n_active, k)
        repaired = {
            a: _repair(distinct, inverse, batch[a], row_labels[a], new_labels[a],
                       counts[a], members[a * k:(a + 1) * k])
            for a in np.flatnonzero((counts == 0).any(axis=1))
        }
        updated = (members @ distinct).reshape(batch.shape) / counts[:, :, None]
        row_d2 = _own_distances(distinct, updated, row_labels)
        converged = np.zeros(n_active, dtype=bool)
        for a, start in enumerate(active):
            clip_d2 = row_d2[a, inverse]
            clips = repaired.get(a)
            if clips is not None:
                clip_d2[clips] = _own_distances(
                    distinct[inverse[clips]], updated[a:a + 1], new_labels[a:a + 1, clips]
                )[0]
            # Summed per start as a 1-D array, in clip order, like the reference.
            value = float(clip_d2.sum())
            if value > wcss[start] + _MONOTONE_SLACK:
                raise AssertionError(
                    f"objective increased ({wcss[start]} -> {value}); "
                    "Lloyd iteration is broken"
                )
            wcss[start] = value
            converged[a] = np.array_equal(new_labels[a], labels[start])
        iterations[active] += 1
        labels[active] = new_labels
        centroids[active] = updated
        active = active[~converged]
    return LloydRuns([
        KMeansFit(centroids[r].copy(), labels[r].copy(), float(wcss[r]), int(iterations[r]))
        for r in range(n_starts)
    ])


def _repair(
    distinct: np.ndarray,
    inverse: np.ndarray,
    centroids: np.ndarray,
    row_labels: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    members: np.ndarray,
) -> np.ndarray:
    """Refill one start's empty clusters in place; returns the moved clips.

    Each empty cluster takes the clip currently farthest from its assigned
    centroid (deterministic: first max, lowest cluster id). Stealing a
    singleton's clip can empty another cluster, so this loops until none are
    empty; moved clips get distance 0 and stay put.
    """
    assigned_d2 = _own_distances(distinct, centroids[None], row_labels[None])[0][inverse]
    moved = []
    while np.any(counts == 0):
        cluster = int(np.flatnonzero(counts == 0)[0])
        farthest = int(assigned_d2.argmax())
        old, row = labels[farthest], inverse[farthest]
        counts[old] -= 1
        counts[cluster] += 1
        members[old, row] -= 1
        members[cluster, row] += 1
        labels[farthest] = cluster
        assigned_d2[farthest] = 0.0
        moved.append(farthest)
    return np.array(moved, dtype=np.int64)


def kmeans(
    clips: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
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
    distinct, inverse = _distinct_rows(points)
    if len(distinct) < k:
        raise ValueError(
            f"cannot form {k} clusters from {len(distinct)} distinct clips; "
            "lower k or enlarge the corpus"
        )
    starts: list[np.ndarray] = []
    if initial_centroids is not None:
        starts.append(np.array(initial_centroids, dtype=np.float64))
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.Generator(np.random.PCG64(child))
        starts.append(_kmeans_plus_plus(distinct, inverse, k, rng))
    best: KMeansFit | None = None
    for fit in _lloyd(distinct, inverse, np.stack(starts), MAX_ITERATIONS).fits:
        if best is None or fit.wcss < best.wcss - 1e-15:
            best = fit
    assert best is not None
    return best


@dataclass
class ProfileCodebook:
    """A clustering result frozen for reuse: the profile vocabulary."""

    kind: str  # a profile level, "bar" or "beat"
    centroids: np.ndarray  # (k, width)
    seed: int
    iterations: int
    wcss: float

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_WIDTHS:
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        expected = PROFILE_WIDTHS[self.kind]
        if self.centroids.ndim != 2 or self.centroids.shape[1] != expected:
            raise ValueError(
                f"{self.kind} codebook centroids must be (k, {expected})"
            )
        # Centroids are means of 0/1 clips; a NaN fails both comparisons.
        if not ((self.centroids >= 0) & (self.centroids <= 1)).all():
            raise ValueError(f"{self.kind} codebook centroids must lie in [0, 1]")
        if len(np.unique(self.centroids, axis=0)) != len(self.centroids):
            raise ValueError("codebook centroids must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.centroids)

    def expect_kind(self, kind: str) -> None:
        """Reject this codebook unless it holds ``kind`` profiles."""
        if self.kind != kind:
            raise ValueError(f"the {kind} codebook holds {self.kind} profiles")

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
        expect_schema(obj, CODEBOOK_SCHEMA)
        k = require(obj, "k", int)
        centroids = require(obj, "centroids", list[list[int | float]])
        codebook = cls(
            kind=require(obj, "kind", str),
            centroids=np.array(centroids, dtype=np.float64),
            seed=require(obj, "seed", int),
            iterations=require(obj, "iterations", int),
            wcss=require(obj, "wcss", int | float),
        )
        if k != codebook.k:
            raise ValueError(f"k is {k}, but the codebook holds {codebook.k} centroids")
        return codebook

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path: str | Path) -> None:
        write(Path(path), (self.dumps() + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, kind: str) -> "ProfileCodebook":
        """The codebook saved at ``path``, which must hold ``kind`` profiles."""
        codebook = cls.from_dict(parse(Path(path).read_bytes()))
        codebook.expect_kind(kind)
        return codebook


def build_codebook(
    clips: np.ndarray,
    kind: str,
    k: int,
    *,
    seed: int = 0,
) -> ProfileCodebook:
    """Cluster clips of one kind ("beat" or "bar") into a codebook."""
    fit = kmeans(clips, k, seed=seed)
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
    codebooks: Mapping[str, ProfileCodebook],
) -> dict[str, np.ndarray]:
    """Profile indices of one melody grid under each codebook, keyed by its
    level: one per bar under a bar codebook, one per beat under a beat one."""
    binary = binarize(grid)
    return {
        level: assign_many(cut_clips(binary, book.width), book)
        for level, book in codebooks.items()
    }


def elbow_report(
    clips: np.ndarray,
    k_values: Sequence[int],
    *,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
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
        fit = kmeans(points, k, seed=seed + k, restarts=restarts, initial_centroids=warm)
        rows.append({"k": k, "wcss": fit.wcss})
        previous = fit
    return rows
