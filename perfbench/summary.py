"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# candidate tail percentiles, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples, computed
    exactly (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it,
    or None when even the median has fewer than ten above it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile_name(p: float) -> str:
    return "p" + (f"{p:g}".replace(".", "_"))


def latency_summary(seconds: list[float]) -> dict:
    """Median and the tail percentile the sample count supports, in ms."""
    out = {"n": len(seconds), "p50_ms": 1e3 * statistics.median(seconds)}
    tail = tail_percentile(len(seconds))
    if tail is not None and tail > 50.0:
        out["tail"] = percentile_name(tail)
        out["tail_ms"] = 1e3 * percentile(seconds, tail)
    return out

