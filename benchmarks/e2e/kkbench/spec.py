"""The benchmark's contract, read from the root ``BENCHMARK.json``.

``BENCHMARK.json`` is the single list of workload and metric names,
units, directions and bounds; the harness reads it rather than keeping
a second copy, and ``tests/test_spec_sync.py`` checks that the harness
produces exactly the names it lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MetricSpec", "NOT_ON_PATH", "ROOT", "Spec", "load_spec"]

# benchmarks/e2e/kkbench/spec.py -> the checkout root
ROOT = Path(__file__).resolve().parents[3]

# Why a per-layer metric has no value on a workload that never enters
# that layer (the result line then reads 0: it did no work there).
NOT_ON_PATH = "not on this workload's path"


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # end-to-end metrics only

    def worsening(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of
        ``base`` (negative when it is better)."""
        if base == 0:
            return 0.0
        change = (new - base) / abs(base)
        return change if self.better == "lower" else -change


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: dict[str, str]  # name -> why
    end_to_end: dict[str, MetricSpec]
    per_layer: dict[str, MetricSpec]


def load_spec(path: Path | None = None) -> Spec:
    path = path if path is not None else ROOT / "BENCHMARK.json"
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads={entry["name"]: entry["why"] for entry in raw["workloads"]},
        end_to_end={
            entry["name"]: MetricSpec(
                entry["name"], entry["unit"], entry["better"], float(entry["bound"])
            )
            for entry in raw["end_to_end"]
        },
        per_layer={
            entry["name"]: MetricSpec(entry["name"], entry["unit"], entry["better"])
            for entry in raw["per_layer"]
        },
    )
