"""Metrics: sample series, percentiles, throughput, rendering."""

import pytest

from repro.sim.metrics import (
    MetricsError,
    MetricsRegistry,
    SampleSeries,
    ThroughputResult,
    ascii_bars,
    ascii_cdf,
    format_seconds,
)


def test_summary_statistics():
    series = SampleSeries("s")
    series.extend([1, 2, 3, 4, 5])
    assert series.min() == 1 and series.max() == 5
    assert series.mean() == 3
    assert series.p50() == 3
    assert series.percentile(1.0) == 5


def test_percentile_interpolates():
    series = SampleSeries()
    series.extend([0, 10])
    assert series.percentile(0.25) == pytest.approx(2.5)


def test_p90_matches_definition():
    series = SampleSeries()
    series.extend(range(1, 101))
    assert series.p90() == pytest.approx(90.1)


def test_empty_series_raises():
    with pytest.raises(MetricsError):
        SampleSeries().mean()


def test_fraction_below():
    series = SampleSeries()
    series.extend([1, 2, 3, 4])
    assert series.fraction_below(2.5) == 0.5
    assert series.fraction_below(100) == 1.0


def test_empty_series_raises_on_every_statistic():
    series = SampleSeries()
    for query in (
        series.min,
        series.max,
        series.mean,
        series.stdev,
        series.p50,
        lambda: series.percentile(0.5),
        lambda: series.fraction_below(1.0),
        lambda: series.cdf(),
    ):
        with pytest.raises(MetricsError):
            query()
    assert len(series) == 0 and series.values == []


def test_single_sample_answers_every_percentile_with_itself():
    series = SampleSeries()
    series.add(7.5)
    assert series.percentile(0.0) == 7.5
    assert series.percentile(0.5) == 7.5
    assert series.percentile(1.0) == 7.5
    assert series.min() == series.max() == series.mean() == 7.5
    assert series.stdev() == 0.0
    # Strictly-below semantics hold even for the lone sample.
    assert series.fraction_below(7.5) == 0.0
    assert series.fraction_below(7.5000001) == 1.0


def test_percentile_boundaries_and_exact_sample_positions():
    series = SampleSeries()
    series.extend([30, 0, 10, 20])
    assert series.percentile(0.0) == series.min() == 0
    assert series.percentile(1.0) == series.max() == 30
    # fraction 1/3 lands exactly on the second order statistic — no
    # interpolation; 0.5 falls between samples and interpolates.
    assert series.percentile(1 / 3) == pytest.approx(10.0)
    assert series.percentile(0.5) == pytest.approx(15.0)


def test_percentile_rejects_out_of_range_fractions():
    series = SampleSeries()
    series.extend([1, 2, 3])
    with pytest.raises(MetricsError):
        series.percentile(-0.01)
    with pytest.raises(MetricsError):
        series.percentile(1.01)


def test_fraction_below_at_the_extremes_is_strict():
    series = SampleSeries()
    series.extend([2, 4, 6])
    assert series.fraction_below(1.99) == 0.0
    assert series.fraction_below(2) == 0.0  # equal-to-min does not count
    assert series.fraction_below(6) == pytest.approx(2 / 3)  # max excluded
    assert series.fraction_below(6.01) == 1.0


def test_fraction_below_is_strict_at_duplicate_boundary_values():
    series = SampleSeries()
    series.extend([1, 2, 2, 2, 3])
    # "Strictly below 2" counts only the single 1, not the three 2s.
    assert series.fraction_below(2) == pytest.approx(0.2)
    assert series.fraction_below(1) == 0.0
    assert series.fraction_below(3.0001) == 1.0


def test_sorted_cache_starts_empty_and_invalidates():
    series = SampleSeries()
    assert series._sorted is None  # the empty-series invariant
    with pytest.raises(MetricsError):
        series.min()
    series.add(2)
    assert series.min() == 2
    series.add(1)
    assert series._sorted is None  # add() invalidates the cache
    assert series.min() == 1


def test_cdf_is_monotonic():
    series = SampleSeries()
    series.extend([5, 1, 3, 2, 4, 9, 7])
    cdf = series.cdf(points=10)
    values = [value for value, _fraction in cdf]
    fractions = [fraction for _value, fraction in cdf]
    assert values == sorted(values)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_throughput_result():
    result = ThroughputResult(operations=100, first_start=0.0, last_end=20.0)
    assert result.makespan == 20
    assert result.throughput == pytest.approx(5.0)


def test_registry_counters_and_latencies():
    registry = MetricsRegistry()
    registry.increment("tx", 2)
    registry.increment("tx")
    assert registry.counter("tx") == 3
    assert registry.counter("missing") == 0


def test_format_seconds_scales():
    assert format_seconds(0.0000005).endswith("us")
    assert format_seconds(0.005).endswith("ms")
    assert format_seconds(2.5).endswith("s")


def test_ascii_renderings_do_not_crash():
    series = SampleSeries()
    series.extend([0.5, 1.0, 1.5, 2.0, 4.0])
    assert "#" in ascii_cdf(series)
    assert "tps" in ascii_bars([("2 cells", 700.0), ("8 cells", 400.0)], unit=" tps")
