"""Small statistics helpers (dependency-free)."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for n < 2."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, pct in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp: interpolation rounding must not escape the data range.
    return min(max(value, ordered[0]), ordered[-1])


def fraction_at_or_below(values: Sequence[float], threshold: float) -> float:
    """What fraction of values are <= threshold (CDF evaluation)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)
