"""Percentiles and spreads, as the benchmark reports them."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "PERCENTILE_LADDER",
    "median",
    "percentile",
    "quartile_spread",
    "quartiles",
    "samples_beyond",
    "supported_percentile",
]

# A tail percentile is only reported when at least this many samples
# lie beyond it; below that the "percentile" is one or two outliers.
MIN_SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported_percentile(count: int) -> float:
    """Highest percentile of the ladder with ``MIN_SAMPLES_BEYOND``
    samples beyond it (the median when even that has too few)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    first, second, third = statistics.quantiles(values, n=4)
    return float(first), float(second), float(third)


def quartile_spread(values) -> float:
    """Q3 - Q1 as a share of the median (0 when the median is 0)."""
    first, second, third = quartiles(values)
    return (third - first) / abs(second) if second else 0.0
