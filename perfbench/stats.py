"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

from scipy.special import betainc

# Samples that must lie strictly beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def beyond(values: list[float], p: float) -> int:
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for x in values if x > cut)


def tail_percentile(values: list[float], need: int = TAIL_BEYOND) -> int | None:
    """Highest whole percentile in [50, 99] with ``need`` samples beyond it.

    None when even the median has fewer than ``need`` samples above it.
    """
    if len(values) <= need:
        return None
    for p in range(99, 49, -1):
        if beyond(values, p) >= need:
            return p
    return None


def median(values: list[float]) -> float:
    return statistics.median(values)


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    A panel holds only a few markets near its median, and the sample
    median jumps between them as the host's speed reorders their clearings;
    weighting the neighbouring order statistics smooths those jumps out.
    """
    if not values:
        raise ValueError("median of an empty sample")
    v = sorted(values)
    n = len(v)
    a = (n + 1) / 2.0
    cdf = [betainc(a, a, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], v)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
