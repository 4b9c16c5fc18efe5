"""Tracked steps-per-second benchmark of the walk engine hot paths.

Unlike the paper-reproduction benches (which report machine-independent
work counts against the paper's tables), this harness tracks the *raw
throughput trajectory* of this repository across PRs: every run times
the standard workloads on the stand-in graphs and writes
``BENCH_walks.json`` at the repository root, so a regression in the
sampler hot paths or the trial kernels shows up as a number, not a
feeling.

Methodology
-----------
* Workloads: DeepWalk (static), node2vec with the paper's default
  p = 2, q = 0.5 (second-order, trial-paced), and Meta-path (first
  order, dynamic, step-paced — the workload trial fusion
  targets), all on the LiveJournal stand-in at scale 1.0 with
  10k walkers of length 80.
* Timing: the walk loop only (``WalkStats.wall_time_seconds``);
  every repeat runs the *same* seeded workload, and the report carries
  the median with its quartiles (a best-of over different seeds is a
  maximum over different workloads, not a measurement of one).
  Sampling-table construction is charged to init, matching the
  paper's methodology of excluding graph loading.
* Each workload is also run with ``fuse_trials=False`` (the
  single-trial comparison).

The pre-PR reference throughput baked into the JSON was measured at
the seed revision (commit ``eb6ac31``) with this same workload
definition, because the old engine cannot be re-run from the current
tree.  Compare runs on the same machine only — the JSON is a
trajectory, not a cross-machine score.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench.workloads import paper_algorithms, prepare_graph
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine

__all__ = [
    "PerfWorkload",
    "PERF_WORKLOADS",
    "PRE_PR_NODE2VEC_STEPS_PER_SEC",
    "run_perf",
    "write_report",
]

# node2vec (p=2, q=0.5), 10k walkers x 80 steps, livejournal scale 1.0,
# measured at the seed revision before the fused-kernel/hot-path PR.
# The acceptance target for that PR was >= 2x this figure.
PRE_PR_NODE2VEC_STEPS_PER_SEC = 1_867_803


@dataclass(frozen=True)
class PerfWorkload:
    """One tracked throughput scenario."""

    name: str
    algorithm: str  # AlgorithmSpec.name in paper_algorithms()
    dataset: str = "livejournal"
    scale: float = 1.0
    num_walkers: int = 10_000
    walk_length: int = 80


PERF_WORKLOADS: tuple[PerfWorkload, ...] = (
    PerfWorkload(name="deepwalk", algorithm="DeepWalk"),
    PerfWorkload(name="node2vec", algorithm="node2vec"),
    PerfWorkload(name="metapath", algorithm="Meta-path"),
)

_QUICK_SCALE = 0.1
_QUICK_WALKERS = 2_000
_QUICK_LENGTH = 20


def _time_engine(
    graph, spec, num_walkers: int, walk_length: int, seed: int,
    fuse_trials: bool, repeats: int,
) -> dict:
    """Median-of-``repeats`` timing of one engine configuration.

    Every repeat runs the same seed, so the work counts are identical
    and only the clock varies.
    """
    config = WalkConfig(
        num_walkers=num_walkers,
        max_steps=walk_length,
        termination_probability=spec.termination_probability,
        seed=seed,
    )
    rates = []
    for _ in range(repeats):
        engine = WalkEngine(
            graph, spec.make_program(graph), config, fuse_trials=fuse_trials
        )
        stats = engine.run().stats
        rates.append(stats.total_steps / stats.wall_time_seconds)
    q1, median, q3 = (float(q) for q in np.percentile(rates, [25, 50, 75]))
    return {
        "fused": engine._fuse,
        "steps": stats.total_steps,
        "repeats": repeats,
        "seconds": round(stats.total_steps / median, 6),
        "steps_per_sec": round(median, 1),
        "steps_per_sec_q1": round(q1, 1),
        "steps_per_sec_q3": round(q3, 1),
        "trials_per_step": round(stats.trials_per_step, 4),
        "pd_evals_per_step": round(stats.pd_evaluations_per_step, 4),
        "init_seconds": round(stats.init_time_seconds, 6),
    }


def run_perf(
    quick: bool = False, repeats: int = 3, seed: int = 11
) -> dict:
    """Run every tracked workload; returns the report dictionary."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report: dict = {
        "schema": 3,
        "created_unix": int(time.time()),
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
        "reference": {
            "node2vec_pre_pr_steps_per_sec": PRE_PR_NODE2VEC_STEPS_PER_SEC,
            "note": (
                "measured at the seed revision with the standard "
                "(non-quick) workload definition on the build machine; "
                "quick-mode numbers are not comparable to it"
            ),
        },
    }
    for workload in PERF_WORKLOADS:
        spec = next(
            s for s in paper_algorithms(seed=7) if s.name == workload.algorithm
        )
        scale = _QUICK_SCALE if quick else workload.scale
        walkers = _QUICK_WALKERS if quick else workload.num_walkers
        length = _QUICK_LENGTH if quick else workload.walk_length
        graph = prepare_graph(
            workload.dataset, spec, scale=scale, weighted=False, seed=7
        )
        fused = _time_engine(
            graph, spec, walkers, length, seed, True, repeats
        )
        single = _time_engine(
            graph, spec, walkers, length, seed, False, repeats
        )
        entry = {
            "dataset": workload.dataset,
            "scale": scale,
            "num_walkers": walkers,
            "walk_length": length,
            **fused,
            "single_trial_steps_per_sec": single["steps_per_sec"],
        }
        # Only meaningful where trial fusion actually engages
        # (step-paced dynamic programs); elsewhere both runs take the
        # same path and the ratio would be timing noise — the key is
        # omitted rather than carried as null.
        if fused["fused"] and single["steps_per_sec"]:
            entry["fused_speedup_vs_single_trial"] = round(
                fused["steps_per_sec"] / single["steps_per_sec"], 3
            )
        if workload.name == "node2vec" and not quick:
            entry["speedup_vs_pre_pr"] = round(
                fused["steps_per_sec"] / PRE_PR_NODE2VEC_STEPS_PER_SEC, 3
            )
        report["workloads"][workload.name] = entry
    return report


def write_report(report: dict, path: str | Path) -> Path:
    """Write the JSON report; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def format_report(report: dict) -> str:
    """Aligned text summary of one report, for terminal output."""
    lines = [
        f"{'workload':10s} {'steps/sec':>12s} {'Q1':>12s} {'Q3':>12s} "
        f"{'single-trial':>12s} {'fused dx':>9s} "
        f"{'trials/step':>12s} {'pd/step':>9s}"
    ]
    for name, entry in report["workloads"].items():
        speedup = entry.get("fused_speedup_vs_single_trial")
        lines.append(
            f"{name:10s} {entry['steps_per_sec']:>12,.0f} "
            f"{entry['steps_per_sec_q1']:>12,.0f} "
            f"{entry['steps_per_sec_q3']:>12,.0f} "
            f"{entry['single_trial_steps_per_sec']:>12,.0f} "
            f"{speedup if speedup is not None else '-':>9} "
            f"{entry['trials_per_step']:>12.3f} "
            f"{entry['pd_evals_per_step']:>9.3f}"
        )
        if "speedup_vs_pre_pr" in entry:
            lines.append(
                f"{'':10s} {entry['speedup_vs_pre_pr']:.2f}x vs pre-PR "
                f"reference ({report['reference']['node2vec_pre_pr_steps_per_sec']:,} steps/sec)"
            )
    return "\n".join(lines)
