"""The tail-percentile rule, percentiles, spreads and round-order alternation."""

import statistics
from fractions import Fraction

import pytest

from stats import (
    TAIL_LADDER,
    iqr_spread,
    percentile,
    round_order,
    tail,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_table(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(1, 12000, 7):
        p = tail_percentile(n)
        qualifying = [q for q in TAIL_LADDER
                      if n * (100 - Fraction(str(q))) / 100 >= 10]
        assert p == (max(qualifying) if qualifying else None)


def test_tail_reports_max_below_twenty_samples():
    values = list(range(19))
    assert tail(values) == (18, 100.0)


def test_tail_uses_rule_percentile():
    values = [float(i) for i in range(100)]
    value, p = tail(values)
    assert p == 90.0
    assert value == pytest.approx(percentile(values, 90.0))
    assert sum(v > value for v in values) >= 10


def test_percentile_interpolates():
    assert percentile([3, 1, 2, 5, 4], 50) == 3
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert percentile([7], 99) == 7


def test_round_order_reverses_every_round():
    impls = ("engine", "matmul", "dgefmm")
    assert round_order(0, impls) == impls
    assert round_order(1, impls) == impls[::-1]
    for r in range(10):
        assert round_order(r + 1, impls) == round_order(r, impls)[::-1]


def test_round_order_balances_positions():
    impls = ("engine", "matmul", "dgefmm")
    first = [round_order(r, impls)[0] for r in range(40)]
    last = [round_order(r, impls)[-1] for r in range(40)]
    assert first.count("engine") == last.count("engine") == 20
    assert first.count("dgefmm") == last.count("dgefmm") == 20


def test_iqr_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert iqr_spread([5.0]) == 0.0
