#!/usr/bin/env python
"""Run the tracked steps-per-second benchmark and write BENCH_walks.json.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py            # full run
    PYTHONPATH=src python benchmarks/run_perf.py --quick    # CI smoke

The full run times the standard workloads (10k walkers, length 80,
LiveJournal stand-in at scale 1.0) and writes the report to
``BENCH_walks.json`` at the repository root, appending one point to the
repository's throughput trajectory.  ``--quick`` shrinks the workloads
(scale 0.1, 2k walkers, length 20) so CI can verify the
harness end-to-end in seconds; quick reports are written to the same
schema but flagged ``"quick": true`` and are not comparable to full
runs.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.perf import (  # noqa: E402
    format_report,
    run_perf,
    write_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny workloads (CI smoke run)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per configuration, same seed (median is reported)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_walks.json",
        help="report path (default: BENCH_walks.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if not args.output.parent.is_dir():
        # Fail before the (minutes-long) full run, not after it.
        parser.error(f"output directory does not exist: {args.output.parent}")

    report = run_perf(quick=args.quick, repeats=args.repeats)
    path = write_report(report, args.output)
    print(format_report(report))
    print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
