"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import statistics


def tail_percentile(samples, beyond=10):
    """The highest whole percentile p whose nearest-rank sample has at least
    ``beyond`` samples after it in sorted order, as ``(p, value)``; None
    when there are too few samples for any percentile to have that many."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest rank, ceil(p n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1]
    return None


def summary(samples):
    """Median, count and tail percentile of a list of timings."""
    tail = tail_percentile(samples)
    out = {"median": statistics.median(samples), "n": len(samples)}
    if tail is not None:
        out["p%d" % tail[0]] = tail[1]
    return out
