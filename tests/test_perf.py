"""Smoke tests for the tracked steps-per-second benchmark harness."""

import json

from repro.bench.perf import (
    PERF_WORKLOADS,
    format_report,
    run_perf,
    write_report,
)


def test_quick_report_roundtrip(tmp_path):
    report = run_perf(quick=True)
    assert report["schema"] == 3
    assert report["quick"] is True
    assert set(report["workloads"]) == {w.name for w in PERF_WORKLOADS}
    for entry in report["workloads"].values():
        assert entry["steps"] > 0
        # Median of same-seed repeats, bracketed by its quartiles.
        assert entry["repeats"] == 3
        assert (
            0
            < entry["steps_per_sec_q1"]
            <= entry["steps_per_sec"]
            <= entry["steps_per_sec_q3"]
        )
        assert entry["single_trial_steps_per_sec"] > 0
        # The deleted loop and policy leave no keys behind.
        assert not {
            "walker_mode_steps_per_sec",
            "auto_policy_steps_per_sec",
            "step_speedup_vs_walker",
            "sampler",
        } & set(entry)
    # The fused kernel engages exactly on the step-paced dynamic
    # workload; node2vec is trial-paced and DeepWalk static.
    assert report["workloads"]["metapath"]["fused"] is True
    assert report["workloads"]["node2vec"]["fused"] is False
    assert report["workloads"]["deepwalk"]["fused"] is False
    assert (
        report["workloads"]["metapath"]["fused_speedup_vs_single_trial"]
        is not None
    )
    # Where the fused kernel never engages the ratio is omitted, not
    # carried as null.
    assert (
        "fused_speedup_vs_single_trial" not in report["workloads"]["deepwalk"]
    )
    assert (
        "fused_speedup_vs_single_trial" not in report["workloads"]["node2vec"]
    )
    # Quick numbers must never be compared against the full-run
    # pre-PR reference.
    assert "speedup_vs_pre_pr" not in report["workloads"]["node2vec"]
    # The loop harness times the three loops and nothing else: update
    # throughput and tracer overhead are layers of benchmarks/e2e.
    assert not {"update_throughput", "obs"} & set(report)

    path = write_report(report, tmp_path / "BENCH_walks.json")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == report

    text = format_report(report)
    assert "metapath" in text and "steps/sec" in text
