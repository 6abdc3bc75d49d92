"""Order statistics the benchmark reports: medians, tail percentiles, spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is only trusted with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """The *p*-th percentile of an ascending sequence (linear interpolation)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_needed(p: float) -> int:
    """The smallest sample in which :data:`MIN_SAMPLES_BEYOND` values lie
    beyond the *p*-th percentile (1 000 for the 99th).  A timed phase pools
    this many before it stops, so the percentile a metric is named after
    never depends on how fast the program ran."""
    return math.ceil(MIN_SAMPLES_BEYOND * 100.0 / (100.0 - p))


def median(samples: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    return statistics.median(samples)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the acceptance
    rule's run-to-run spread); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0
