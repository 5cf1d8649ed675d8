"""Small statistics shared by the runner and its self-tests."""

from __future__ import annotations

import statistics
from typing import Hashable, Sequence, Tuple

import mpmath

TAIL_MARGIN = 10  # samples that must lie beyond a reported tail percentile


def quantile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with beta weights centred on
    rank p (n + 1).  Unlike a single order statistic it does not jump when
    noise swaps two rows of different cost across the rank, which matters
    because rows of different weights leave gaps in the distribution.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with ten samples beyond.

    With n samples that is the percentile 100 (n - 10) / n, the rank of the
    (n - 10)-th smallest.  Fewer than eleven samples have no such percentile.
    """
    n = len(samples)
    if n <= TAIL_MARGIN:
        raise ValueError(f"need more than {TAIL_MARGIN} samples for a tail, got {n}")
    p = (n - TAIL_MARGIN) / n
    return quantile(samples, p), 100 * p, n


def distinct_ratio(keys: Sequence[Hashable]) -> float:
    """Distinct keys over calls; 0.0 when there were no calls."""
    return len(set(keys)) / len(keys) if keys else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
