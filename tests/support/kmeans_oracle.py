"""K-Means oracles.

``brute_force_wcss`` gives the globally optimal WCSS by enumerating every
assignment of n points to k clusters (k**n of them). ``reference_kmeans`` and
``reference_elbow_report`` are the straightforward per-clip K-Means that
``melodygen.profiles`` must match bit for bit on 0/1 clips: k-means++
seeding over every clip, then Lloyd iterations that compute distances to
every clip twice per iteration (before and after the centroid update) and
take each centroid as the boolean-mask mean of its members. Each fit keeps
its objective after every iteration. They share no code with
``melodygen.profiles``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_MONOTONE_SLACK = 1e-10


def brute_force_wcss(points: np.ndarray, k: int) -> float:
    """Minimal within-cluster sum of squares over all assignments.

    Uses the identity  sum_c sum_{x in c} ||x - mean_c||^2
                     = sum ||x||^2 - sum_c ||sum_c x||^2 / n_c,
    vectorized over all k**n assignment vectors. Feasible for n <= ~10.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    if k >= n:
        return 0.0
    assignments = np.array(
        list(itertools.product(range(k), repeat=n)), dtype=np.int64
    )  # (M, n)
    one_hot = np.zeros((len(assignments), n, k))
    rows = np.arange(n)
    one_hot[np.arange(len(assignments))[:, None], rows, assignments] = 1.0
    counts = one_hot.sum(axis=1)  # (M, k)
    sums = np.einsum("mnk,nd->mkd", one_hot, points)  # (M, k, d)
    sq_norm = (sums * sums).sum(axis=2)  # (M, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_cluster = np.where(counts > 0, sq_norm / counts, 0.0)
    wcss = float((points * points).sum()) - per_cluster.sum(axis=1)
    return float(wcss.min())


def direct_wcss(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """WCSS of a given clustering, computed the naive way."""
    total = 0.0
    for point, label in zip(points, labels):
        diff = point - centroids[label]
        total += float(diff @ diff)
    return total


@dataclass
class ReferenceFit:
    """One clustering and its objective after each Lloyd iteration."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    wcss: float
    iterations: int
    wcss_history: list[float]


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.einsum("nd,nd->n", points - centroids[0], points - centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            candidates = np.flatnonzero(closest == 0.0)
            pick = int(candidates[rng.integers(len(candidates))])
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = points[pick]
        dist = np.einsum("nd,nd->n", points - centroids[j], points - centroids[j])
        closest = np.minimum(closest, dist)
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int) -> ReferenceFit:
    k = len(centroids)
    labels = np.full(len(points), -1, dtype=np.int64)
    previous_wcss = np.inf
    history: list[float] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _squared_distances(points, centroids)
        new_labels = d2.argmin(axis=1)

        # Empty clusters take the point farthest from its assigned centroid
        # (first max, lowest cluster id) until none is empty.
        assigned_d2 = d2[np.arange(len(points)), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        while np.any(counts == 0):
            cluster = int(np.flatnonzero(counts == 0)[0])
            farthest = int(assigned_d2.argmax())
            counts[new_labels[farthest]] -= 1
            counts[cluster] += 1
            new_labels[farthest] = cluster
            centroids[cluster] = points[farthest]
            assigned_d2[farthest] = 0.0

        for cluster in range(k):
            members = points[new_labels == cluster]
            centroids[cluster] = members.mean(axis=0)

        d2_updated = _squared_distances(points, centroids)
        wcss = float(d2_updated[np.arange(len(points)), new_labels].sum())
        if wcss > previous_wcss + _MONOTONE_SLACK:
            raise AssertionError(f"objective increased ({previous_wcss} -> {wcss})")
        history.append(wcss)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        previous_wcss = wcss
        if converged:
            break
    return ReferenceFit(centroids, labels, previous_wcss, iterations, history)


def reference_kmeans(
    clips: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 100,
    initial_centroids: np.ndarray | None = None,
) -> ReferenceFit:
    """Best of the seeded restarts (plus the optional warm start), per clip."""
    points = np.asarray(clips, dtype=np.float64)
    starts: list[np.ndarray] = []
    if initial_centroids is not None:
        starts.append(np.array(initial_centroids, dtype=np.float64))
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.Generator(np.random.PCG64(child))
        starts.append(_kmeans_plus_plus(points, k, rng))
    best: ReferenceFit | None = None
    for start in starts:
        fit = _lloyd(points, start.copy(), max_iter)
        if best is None or fit.wcss < best.wcss - 1e-15:
            best = fit
    assert best is not None
    return best


def elbow_warm_start(points: np.ndarray, previous: ReferenceFit) -> np.ndarray:
    """The previous k's centroids plus the clip farthest from them."""
    d2 = _squared_distances(points, previous.centroids).min(axis=1)
    return np.vstack([previous.centroids, points[int(d2.argmax())]])


def reference_elbow_report(
    clips: np.ndarray,
    k_values,
    *,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 100,
) -> list[ReferenceFit]:
    """The fit behind each elbow row, each k warm-started from the last."""
    points = np.asarray(clips, dtype=np.float64)
    fits: list[ReferenceFit] = []
    previous: ReferenceFit | None = None
    for k in sorted(k_values):
        warm = None
        if previous is not None and len(previous.centroids) == k - 1:
            warm = elbow_warm_start(points, previous)
        previous = reference_kmeans(
            points, k, seed=seed + k, restarts=restarts, max_iter=max_iter,
            initial_centroids=warm,
        )
        fits.append(previous)
    return fits
