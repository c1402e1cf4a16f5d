"""Every start's per-iteration K-Means objective, rebuilt from ``_lloyd``.

``profiles.kmeans`` keeps of each start only its final fit. The objective
after each iteration is rebuilt here. :func:`traced_kmeans` runs one
``kmeans`` call with ``profiles._lloyd`` wrapped, which captures the distinct
clips, their inverse and the (R, k, d) starts that ``kmeans`` built, and the
``LloydRuns`` it returned. :func:`lloyd_histories` then runs ``_lloyd`` on the
same starts with ``max_iter = 1, 2, ...``, one call per n for every start.

Each start evolves on its own (its labels, repairs and objective are its own),
so a run cut after n iterations stops in the state the full run had after n
iterations, and its objective is the full run's n-th. The helper checks the
part of that it can see: a cut start ran exactly n iterations, and the cut at
a start's own iteration count ends in that start's full fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from melodygen import profiles
from melodygen.profiles import KMeansFit, LloydRuns


@dataclass
class TracedKMeans:
    """One ``kmeans`` call: its result, every start's fit and objectives."""

    fit: KMeansFit
    runs: LloydRuns
    histories: list[list[float]]  # per start, the objective after each iteration

    @property
    def history(self) -> list[float]:
        """The objectives of the start that ``kmeans`` kept."""
        (kept,) = [r for r, fit in enumerate(self.runs.fits) if fit is self.fit]
        return self.histories[kept]


def lloyd_histories(
    distinct: np.ndarray, inverse: np.ndarray, starts: np.ndarray, runs: LloydRuns
) -> list[list[float]]:
    """Each start's objective after each of its iterations in ``runs``, the
    result of ``_lloyd(distinct, inverse, starts, max_iter)``."""
    histories: list[list[float]] = [[] for _ in runs.fits]
    for n in range(1, max(fit.iterations for fit in runs.fits) + 1):
        cut = profiles._lloyd(distinct, inverse, starts, n)
        for history, full, short in zip(histories, runs.fits, cut.fits):
            if full.iterations < n:
                continue
            assert short.iterations == n
            history.append(short.wcss)
            if full.iterations == n:
                assert short.centroids.tobytes() == full.centroids.tobytes()
                assert np.array_equal(short.labels, full.labels)
                assert short.wcss == full.wcss
    return histories


def traced_kmeans(clips: np.ndarray, k: int, **options) -> TracedKMeans:
    """``profiles.kmeans(clips, k, **options)`` with every start's objectives."""
    original = profiles._lloyd
    calls = []

    def recording(distinct, inverse, starts, max_iter):
        runs = original(distinct, inverse, starts, max_iter)
        calls.append((distinct, inverse, starts, runs))
        return runs

    profiles._lloyd = recording
    try:
        fit = profiles.kmeans(clips, k, **options)
    finally:
        profiles._lloyd = original
    ((distinct, inverse, starts, runs),) = calls
    return TracedKMeans(fit, runs, lloyd_histories(distinct, inverse, starts, runs))
