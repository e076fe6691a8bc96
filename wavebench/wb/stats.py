"""Percentiles with their sample counts, and the rule that guards them.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it in the same run; with fewer, one slow outlier decides the
figure. Percentiles use the nearest-rank definition, so the reported
value is always one of the samples.
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample set too small to support it."""


def rank(n, pct):
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    if n < 1:
        raise TooFewSamples("no samples")
    return max(1, math.ceil(pct / 100.0 * n))


def beyond(n, pct):
    """Samples strictly above the nearest-rank percentile's position."""
    return n - rank(n, pct)


def percentile(values, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile of ``values``, refused when fewer than
    ``min_beyond`` samples lie beyond it."""
    n = len(values)
    if n == 0 or beyond(n, pct) < min_beyond:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {beyond(n, pct) if n else 0} beyond it, "
            f"needs {min_beyond}")
    return sorted(values)[rank(n, pct) - 1]


def tail_pct(n, cap=90.0, min_beyond=MIN_BEYOND):
    """Highest percentile, at most ``cap``, with ``min_beyond`` samples
    beyond it among ``n`` (whole percent; None when even p50 fails)."""
    for pct in range(int(cap), 49, -1):
        if n >= 1 and beyond(n, pct) >= min_beyond:
            return float(pct)
    return None


def latency_summary(samples_ms, attempted):
    """Median and tail of request latencies, counting every failed
    request as beyond any limit: a failure is a sample slower than all."""
    failed = attempted - len(samples_ms)
    values = sorted(samples_ms) + [math.inf] * failed
    tail = tail_pct(len(values))
    if tail is None:
        raise TooFewSamples(f"{len(values)} requests cannot support a median")
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail_pct": tail,
        "tail": percentile(values, tail),
        "tail_beyond": beyond(len(values), tail),
    }


def median(values):
    return statistics.median(values)
