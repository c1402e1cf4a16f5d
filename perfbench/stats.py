"""Summary statistics for latency samples.

A timing is reported as its median plus the highest percentile that still
has at least ``TAIL_BEYOND`` samples above it, always with the sample count,
so a tail is never read off a handful of points.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with ``beyond`` samples above it.

    The percentile is the share of samples at or below the returned value,
    in percent. Returns None when there are too few samples for any tail.
    """
    n = len(values)
    if n < beyond + 1:
        return None
    ordered = sorted(values)
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, float(ordered[index])


def summary(values: list[float]) -> dict:
    """Median, tail and sample count of one set of timings."""
    out = {"n": len(values), "p50": median(values) if values else None}
    found = tail(values)
    out["tail_pct"], out["tail"] = found if found else (None, None)
    return out


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
