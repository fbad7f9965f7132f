"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# percentiles a timing may be reported at, lowest first
LADDER = (50, 75, 90, 95, 99, 99.9)


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count, beyond=10):
    """Highest :data:`LADDER` percentile with ``beyond`` samples above it.

    With ``count`` samples, ``count * (1 - p/100)`` of them lie beyond
    the ``p``-th percentile; ``None`` when not even the median has
    ``beyond`` samples above it.
    """
    best = None
    for p in LADDER:
        if round(count * (100 - p), 6) >= beyond * 100:
            best = p
    return best
