"""Summary statistics the benchmark reports.

Timings are reported as a median plus a tail percentile.  The tail is the
requested percentile (p99) only when at least ten samples lie beyond it;
with fewer samples it falls back to the highest percentile that still has
ten samples beyond it, and when that is below p90 to the maximum.  Every
function returns plain floats so results serialise directly to JSON.
"""

import math
import statistics


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(values, want=99.0, beyond=10, floor=90.0):
    """(value, percentile) of the highest nearest-rank percentile <= `want`
    with at least `beyond` samples above it.  When that percentile would
    fall below `floor` (too few samples for a tail), the maximum, as
    (max, 100.0)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(want / 100.0 * n)
    if n - rank >= beyond:
        return float(ordered[rank - 1]), float(want)
    rank = n - beyond
    if rank >= 1 and 100.0 * rank / n >= floor:
        return float(ordered[rank - 1]), 100.0 * rank / n
    return float(ordered[-1]), 100.0
