"""BENCHMARK.json and the harness must name the same things."""

import json
import re

from conftest import ROOT

from kkbench.base import Job, Window, end_to_end_metrics
from kkbench.child import WORKLOADS
from kkbench.spec import load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
RAW = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_exact_top_level_keys_and_paths():
    assert set(RAW) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert RAW["paths"] == ["benchmarks/e2e"]
    assert RAW["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(RAW["run_seconds"], int) and 1 <= RAW["run_seconds"] <= 60


def test_names_units_and_bounds_are_within_the_contract():
    names = []
    for entry in RAW["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in RAW["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in RAW["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in RAW["end_to_end"] + RAW["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(RAW["workloads"]) <= 8
    assert 1 <= len(RAW["end_to_end"]) <= 16
    assert 1 <= len(RAW["per_layer"]) <= 128
    setup = [e for e in RAW["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in RAW["end_to_end"])


def test_driver_run_count_fits_the_time_cap():
    runs = 4 + 22 * len(RAW["workloads"])
    # Each run also sets up three times and verifies; leave it as much
    # again as it measures, plus a margin.
    assert runs * RAW["run_seconds"] * 2 < 3420


def test_workloads_match_the_harness():
    assert list(load_spec().workloads) == list(WORKLOADS)


def test_end_to_end_names_match_the_harness():
    window = Window(jobs=[Job("w/0", 0.0, 1.0, steps=10)], steps_per_s=10.0)
    produced = end_to_end_metrics(window, setup_s=1.0, peak_rss_mb=1.0)
    assert list(produced) == list(load_spec().end_to_end)


def test_per_layer_names_match_the_harness():
    measured = {"obs.harness_overhead_pct"}  # set by the runner for every workload
    for workload in WORKLOADS.values():
        measured |= set(workload.MEASURES)
    assert measured == set(load_spec().per_layer)
