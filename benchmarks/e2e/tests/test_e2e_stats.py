from kkbench.stats import (
    percentile,
    quartile_spread,
    quartiles,
    samples_beyond,
    supported_percentile,
)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0


def test_picker_needs_ten_samples_beyond():
    # p90 of 320 leaves 32 beyond; p99 would leave 3.
    assert samples_beyond(320, 90) == 32
    assert samples_beyond(320, 99) == 3
    assert supported_percentile(320) == 90.0
    # 100 samples: exactly ten beyond p90 is enough, 99 is one short.
    assert supported_percentile(100) == 90.0
    assert supported_percentile(99) == 50.0
    # p99 needs a thousand.
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(999) == 90.0
    # Too few even for the median: still the median, never a tail.
    assert supported_percentile(5) == 50.0


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    first, middle, third = quartiles(values)
    assert middle == 14.5
    assert quartile_spread(values) == (third - first) / middle
    assert quartile_spread([3.0]) == 0.0
