import pytest

import stats


def test_median_is_the_middle():
    assert stats.median([5, 1, 3]) == 3
    assert stats.median([1, 2, 3, 4]) == 2.5


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7], 99) == 7


@pytest.mark.parametrize(
    "count, expected",
    [
        (39, None),      # fewer than 10 samples beyond even p75
        (40, 75.0),      # exactly 10 beyond p75
        (99, 75.0),
        (100, 90.0),     # 10 beyond p90
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    found = stats.tail(list(range(count)))
    if expected is None:
        assert found is None
        return
    pct, value = found
    assert pct == expected
    assert sum(1 for sample in range(count) if sample > value) >= stats.MIN_BEYOND


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.spread([5.0] * 10) == 0.0
