"""The whole harness on tiny inputs: every workload, both modes."""

import json
import shutil
import subprocess
import sys
import time

from conftest import E2E, ROOT

from kkbench.spec import load_spec

RUN = [sys.executable, str(E2E / "run.py")]


def contract(output: str) -> dict:
    result = json.loads(output.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_quick_set_finishes_within_twenty_seconds(tmp_path):
    out = tmp_path / "runs.json"
    start = time.perf_counter()
    done = subprocess.run(
        RUN + ["--quick", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0
    spec = load_spec()
    records = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in records] == list(spec.workloads)
    for record in records:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert set(record["metrics"]) == set(spec.end_to_end)
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
    last = contract(done.stdout)
    assert set(last["metrics"]) == set(spec.end_to_end)
    assert not (ROOT / ".bench_work").exists()


def test_traced_run_reports_every_layer_name_and_writes_a_trace(tmp_path):
    done = subprocess.run(
        RUN + ["--quick", "--workload", "serve-churn", "--trace", "1",
               "--trace-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spec = load_spec()
    result = contract(done.stdout)
    assert result["correct"] and set(result["metrics"]) == set(spec.per_layer)
    assert result["metrics"]["service.run_ms_p50"]["value"] > 0
    # A layer this workload never enters did no work.
    assert result["metrics"]["cluster.supersteps"]["value"] == 0.0
    events = json.loads((tmp_path / "serve-churn.trace.json").read_text())
    names = {event["name"] for event in events["traceEvents"]}
    assert {"request", "service.queue_wait", "service.run", "core.loop"} <= names


def test_same_seed_gives_the_same_exact_counts(tmp_path):
    counts = []
    for _ in range(2):
        done = subprocess.run(
            RUN + ["--quick", "--workload", "cluster-sim", "--trace", "1",
                   "--seed", "9", "--trace-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        metrics = contract(done.stdout)["metrics"]
        counts.append(
            [metrics[name]["value"] for name in (
                "cluster.supersteps", "cluster.remote_messages", "cluster.bytes",
                "cluster.simulated_s", "core.trials_per_step", "core.iterations",
            )]
        )
    assert counts[0] == counts[1]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "corpus-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
