"""The tail-latency rule the benchmark reports."""

from __future__ import annotations


# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  The value is the
    nearest-rank percentile.  With too few samples for any ladder entry the
    tail is the maximum, reported as percentile 100 with none beyond.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n), exactly
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0
