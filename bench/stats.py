"""Sample statistics shared by the runner, the comparison tool and the tests.

Standard library only, so ``compare.py`` runs without numpy.
"""

from __future__ import annotations

import statistics

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (``n < 20``).
    """
    best = None
    for p in TAIL_LADDER:
        # In per mille, so 99.9 is exact: n * 1 / 1000 samples lie beyond it.
        if n * round((100.0 - p) * 10) >= 1000 * TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the reported tail of a timing sample.

    With fewer than 20 samples no percentile qualifies; the maximum is
    reported, labelled 100.
    """
    p = tail_percentile(len(values))
    if p is None:
        return max(values), 100.0
    return percentile(values, p), p


def round_order(r: int, impls) -> tuple:
    """Implementation order of round ``r``: as given, reversed every other round."""
    impls = tuple(impls)
    return impls if r % 2 == 0 else impls[::-1]


def iqr_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them; 0 for
    fewer than two values.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")
