"""One workload, run once in this (fresh) process.

Order of a run: set-up (repeated, median reported), the verifier's own
preparation (not timed), the measured window with tracing off, and —
only with ``--trace 1`` — a second window with spans on followed by the
workload's layer probes.
"""

from __future__ import annotations

import gc
import os
import shutil

from .base import LayerReport, clock, end_to_end_metrics, latency_sample_note
from .batch import ClusterSim, CorpusCli, Node2VecLoop, Shard2Proc
from .gauge import SpeedGauge
from .serve import ServeChurn, ServeStatic
from .spans import SpanRecorder
from .spec import NOT_ON_PATH, ROOT, Spec
from .stats import median

__all__ = ["SETUP_REPEATS", "WORKLOADS", "run_workload"]

_CLASSES = (CorpusCli, Node2VecLoop, Shard2Proc, ClusterSim, ServeStatic, ServeChurn)
WORKLOADS = {cls.name: cls for cls in _CLASSES}

# Set-up is repeated within a run and the median reported (the first
# repetition also pays cold imports and page-cache misses): at least
# SETUP_REPEATS times, and for cheap set-ups until SETUP_BUDGET_S is
# spent, since a 0.3 s set-up needs more samples than a 2 s one.
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_BUDGET_S = 4.0


def _set_up(cls, seed, workdir, quick, seconds, gauge, once: bool):
    workload = None
    taken: list[float] = []
    while True:
        directory = os.path.join(workdir, f"setup-{len(taken)}")
        os.makedirs(directory)
        workload = cls(seed, directory, quick, seconds, gauge)
        start = clock()
        workload.setup()
        taken.append(clock() - start)
        gauge.sample(3)
        enough = len(taken) >= SETUP_REPEATS and (
            quick or sum(taken) >= SETUP_BUDGET_S or len(taken) == SETUP_REPEATS_MAX
        )
        if once or enough:
            break
        workload.teardown()
        workload = None
        gc.collect()
    workload.prepare_verifier()
    return workload, taken


def _measure_end_to_end(workload, spec, seconds, setups, gauge, record):
    """The untraced window: (window, values, missing, specs, notes)."""
    window = workload.measure(seconds, SpanRecorder(enabled=False))
    measured = median(setups), workload.peak_rss_mb()
    raw = end_to_end_metrics(window, *measured)
    record["raw"] = raw
    record["speed_factor"] = gauge.factor
    timed = ", ".join(
        f"{metric} {value:.4f}"
        for metric, value in raw.items()
        if metric != "peak_rss_mb"
    )
    notes = [latency_sample_note(window)] + window.notes
    notes.append("set-up runs: " + ", ".join(f"{s:.3f} s" for s in setups))
    notes.append(
        f"machine speed factor {gauge.factor:.3f} over {len(gauge.samples)} "
        f"gauge samples; as timed: {timed}"
    )
    values = end_to_end_metrics(window, *measured, gauge.factor)
    return window, values, {}, spec.end_to_end, notes


def _measure_layers(workload, spec, seconds, trace_dir):
    """An untraced half window, a traced one, then the layer probes."""
    plain = workload.measure(seconds / 2.0, SpanRecorder(enabled=False))
    recorder = SpanRecorder(enabled=True)
    window = workload.measure(seconds / 2.0, recorder)
    report = LayerReport()
    workload.layers(window, recorder, report)
    plain_rate, traced_rate = plain.steps_per_s, window.steps_per_s
    overhead = (plain_rate - traced_rate) / plain_rate * 100.0
    report.set("obs.harness_overhead_pct", overhead)
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload.name}.trace.json")
    recorder.write_chrome_trace(path)
    notes = window.notes + [
        f"obs.harness_overhead_pct = ({plain_rate:.0f} - {traced_rate:.0f}) "
        f"/ {plain_rate:.0f} steps/s, untraced vs traced half-window",
        f"{len(recorder.spans)} spans written to {path}",
    ]
    # A job that failed in the untraced half fails the run too.
    window.jobs[-1].problems += [p for job in plain.jobs for p in job.problems]
    return window, report.values, report.missing, spec.per_layer, notes


def run_workload(
    spec: Spec,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    trace_dir: str,
    quick: bool = False,
) -> dict:
    """Run one workload; returns the record the parent prints."""
    workdir = str(ROOT / ".bench_work" / f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    # Anything the program or its children spill goes inside the checkout.
    os.environ["TMPDIR"] = workdir
    workload = None
    try:
        gauge = SpeedGauge()
        workload, setups = _set_up(
            WORKLOADS[name], seed, workdir, quick, seconds, gauge, once=trace
        )
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        if trace:
            measured = _measure_layers(workload, spec, seconds, trace_dir)
        else:
            measured = _measure_end_to_end(
                workload, spec, seconds, setups, gauge, record
            )
        window, values, missing, specs, notes = measured
        unknown = sorted(set(values) - set(specs))
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
        record["metrics"] = {
            metric: {"value": values[metric], "unit": specs[metric].unit}
            for metric in specs
            if metric in values
        }
        # A layer this workload does not execute did no work there.
        record["not_measured"] = {
            metric: missing.get(metric, NOT_ON_PATH)
            for metric in specs
            if metric not in values
        }
        record["attempted"] = window.attempted
        record["failed"] = window.failed
        record["correct"] = window.failed == 0
        record["problems"] = [
            f"{job.job_id}: {problem}"
            for job in window.jobs
            for problem in job.problems
        ]
        record["notes"] = notes
        return record
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using the directory
