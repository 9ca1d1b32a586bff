"""Summary statistics shared by every workload.

Timings are reported as medians; a tail percentile is trusted only when at
least :data:`MIN_BEYOND` samples lie above it, and the sample count is
always reported next to it.  Run-to-run spread is the distance between the
first and third quartile as a share of the median, with quartiles taken
the way :func:`statistics.quantiles` gives them by default.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: samples that must lie above a reported tail percentile
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """One tail percentile with the evidence behind it."""

    q: float
    value: float
    n: int
    beyond: int

    @property
    def supported(self) -> bool:
        """Whether at least :data:`MIN_BEYOND` samples lie above ``value``."""
        return self.beyond >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(samples: Sequence[float], q: float = 95.0) -> Tail:
    """The ``q``-th percentile and how many samples lie strictly above it."""
    value = percentile(samples, q)
    return Tail(q, value, len(samples), sum(1 for s in samples if s > value))


def samples_needed(q: float) -> int:
    """Fewest distinct samples of which :data:`MIN_BEYOND` lie above the
    ``q``-th percentile."""
    n = MIN_BEYOND + 1
    while n - 1 - math.floor((n - 1) * q / 100.0) < MIN_BEYOND:
        n += 1
    return n


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartiles(samples: Sequence[float]):
    """(Q1, median, Q3) as ``statistics.quantiles(samples, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else math.inf
