"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math


def nearest_rank(values, pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank rule: the smallest sample
    with at least ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile that leaves at least ``beyond`` of ``n``
    samples above its nearest-rank sample; 0 when there is none."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100.0 * n) >= beyond:
            return pct
    return 0
