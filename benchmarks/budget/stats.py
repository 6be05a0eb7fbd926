"""Summary statistics the benchmark reports: the median, the tail, the spread."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only while this many samples lie beyond
#: it; with fewer, the "percentile" is one or two outliers, not a tail.
MIN_BEYOND = 10
TAIL_LADDER = (999, 990, 950, 900, 750)  # per mille, so the ranks are exact


def median(samples) -> float:
    return float(statistics.median(samples))


def _rank(count: int, per_mille: int) -> int:
    """Nearest rank: the smallest rank with ``per_mille`` of ``count``
    samples at or below it."""
    return max(1, -(-count * per_mille // 1000))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return float(ordered[_rank(len(ordered), round(pct * 10)) - 1])


def tail(samples) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest rung of the ladder that
    still has :data:`MIN_BEYOND` samples beyond it, or ``None`` when even
    p75 does not (fewer than 40 samples)."""
    n = len(samples)
    for per_mille in TAIL_LADDER:
        if n - _rank(n, per_mille) >= MIN_BEYOND:
            return per_mille / 10, percentile(samples, per_mille / 10)
    return None


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the driver computes over ten runs of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
