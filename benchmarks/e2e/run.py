#!/usr/bin/env python3
"""End-to-end benchmark over repro's public entry points.

    python3 benchmarks/e2e/run.py [--workload W]... [--seed S]
        [--seconds T] [--trace [0|1]] [--runs R] [--quick] [--out FILE]

Each workload runs in a fresh child process, has its output verified,
and prints every metric by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics).  Exits non-zero when a
workload fails verification or cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT = 170.0  # a run must end within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", default=None, help="repeatable; default all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of the spec"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: spans on, per-layer metrics, one Chrome trace per workload",
    )
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--quick", action="store_true", help="tiny inputs: a smoke test, no measurement"
    )
    parser.add_argument("--out", default=None, help="write every run's record here")
    parser.add_argument(
        "--trace-dir", default=str(ROOT / ".bench_out"), help="where traces go"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args, spec) -> int:
    from kkbench.child import run_workload

    record = run_workload(
        spec,
        args.workload[0],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.trace_dir,
        quick=args.quick,
    )
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def spawn_child(args, workload: str) -> dict | None:
    """Run one workload in its own process (and process group, so a
    hung run can be stopped together with anything it started)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", args.trace_dir,
    ]
    if args.quick:
        command.append("--quick")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"[{workload}] no result within {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        output = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is already gone
        child.wait()
    lines = (output or "").strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"[{workload}] unreadable result: {lines[-1][:200]}", file=sys.stderr)
        return None


def contract_line(record: dict, metrics: dict) -> str:
    """The one JSON object the driver reads.  A per-layer metric this
    workload does not execute reads 0: the layer did no work there."""
    measured = record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: measured.get(name, {"value": 0.0, "unit": spec.unit})
                for name, spec in metrics.items()
            },
        }
    )


def print_records(workload: str, why: str, records: list[dict], metrics: dict) -> None:
    from kkbench.spec import NOT_ON_PATH
    from kkbench.stats import quartiles

    print(f"== {workload}: {why}")
    off_path = 0
    for name, spec in metrics.items():
        values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        if not values:
            reason = records[-1]["not_measured"].get(name, "")
            if reason == NOT_ON_PATH:
                off_path += 1
            else:
                print(f"   {name:36s} {'null':>14s} {spec.unit:8s} ({reason})")
        elif len(values) == 1:
            print(f"   {name:36s} {values[0]:14.4f} {spec.unit}")
        else:
            first, middle, third = quartiles(values)
            print(
                f"   {name:36s} {middle:14.4f} {spec.unit:8s} "
                f"[Q1 {first:.4f}, Q3 {third:.4f}, n={len(values)}]"
            )
    if off_path:
        print(f"   ({off_path} metrics of layers {NOT_ON_PATH})")
    last = records[-1]
    print(
        f"   verified: correct={last['correct']} attempted={last['attempted']} "
        f"failed={last['failed']}"
    )
    for line in last["notes"] + last["problems"][:10]:
        print(f"   - {line}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    program = ROOT / "src" / "repro"
    if not program.is_dir():
        print(f"nothing to measure: {program} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from kkbench.spec import load_spec

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec.run_seconds)
    workloads = args.workload if args.workload else list(spec.workloads)
    unknown = [name for name in workloads if name not in spec.workloads]
    if unknown:
        known = ", ".join(spec.workloads)
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args, spec)

    metrics = spec.per_layer if args.trace else spec.end_to_end
    all_records: list[dict] = []
    status = 0
    last_line = None
    for workload in workloads:
        records = []
        for _ in range(args.runs):
            record = spawn_child(args, workload)
            if record is None:
                return 3
            records.append(record)
            if not record["correct"]:
                status = 1
        all_records += records
        print_records(workload, spec.workloads[workload], records, metrics)
        last_line = contract_line(records[-1], metrics)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "quick": args.quick, "runs": all_records},
                handle, indent=1,
            )
    print(last_line)
    return status


if __name__ == "__main__":
    sys.exit(main())
