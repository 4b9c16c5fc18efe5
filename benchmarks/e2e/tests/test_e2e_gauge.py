from kkbench.base import Job, Window, end_to_end_metrics
from kkbench.gauge import NOMINAL_S, SpeedGauge


def window(rate_as_timed=False):
    jobs = [Job("w/0", 0.0, 2.0, steps=100), Job("w/1", 2.0, 6.0, steps=100)]
    return Window(jobs=jobs, steps_per_s=40.0, rate_as_timed=rate_as_timed)


def test_times_are_divided_and_rates_multiplied_by_the_speed_factor():
    raw = end_to_end_metrics(window(), setup_s=1.5, peak_rss_mb=64.0)
    slow = end_to_end_metrics(window(), 1.5, 64.0, speed_factor=1.25)
    assert raw["latency_p50_ms"] == 3000.0 and raw["steps_per_s"] == 40.0
    assert slow["latency_p50_ms"] == 2400.0
    assert slow["setup_s"] == 1.2
    assert slow["steps_per_s"] == 50.0
    assert slow["peak_rss_mb"] == raw["peak_rss_mb"] == 64.0


def test_a_service_rate_is_never_speed_corrected():
    slow = end_to_end_metrics(window(rate_as_timed=True), 1.5, 64.0, speed_factor=1.25)
    assert slow["steps_per_s"] == 40.0
    assert slow["latency_p50_ms"] == 2400.0


def test_failed_jobs_count_for_no_latency():
    jobs = window().jobs + [Job("w/2", 6.0, 60.0, problems=["status shed"])]
    metrics = end_to_end_metrics(Window(jobs=jobs, steps_per_s=40.0), 1.0, 1.0)
    assert metrics["latency_p50_ms"] == 3000.0


def test_gauge_factor_is_median_sample_over_nominal():
    gauge = SpeedGauge()
    assert gauge.factor == 1.0  # nothing sampled yet
    gauge.samples = [NOMINAL_S, 2 * NOMINAL_S, 40 * NOMINAL_S]
    assert gauge.factor == 2.0
    gauge.samples = []
    gauge.sample(3)
    assert len(gauge.samples) == 3 and all(s > 0 for s in gauge.samples)
    gauge.sample(5, min_gap_s=60.0)  # sampled a moment ago: skipped
    assert len(gauge.samples) == 3
