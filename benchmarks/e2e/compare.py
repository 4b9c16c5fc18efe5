#!/usr/bin/env python3
"""Which metric moved, and in which layer, between two sets of runs.

    python3 benchmarks/e2e/compare.py A.json B.json [--layers LA.json LB.json]

``A.json`` (the base) and ``B.json`` are files written by
``run.py --runs N --out FILE`` on two commits with the same seed and
settings.  For every workload x end-to-end metric it prints both
medians with their quartiles, the ratio B/A, and a verdict against the
bounds in ``BENCHMARK.json``:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``improved``   - B's median is better by more than A's own quartile
  spread, and every run of B reads better than A's median;
* ``unchanged``  - neither;
* ``unresolved`` - the runs of A or B spread wider than the bound, so
  the bound cannot tell a change from noise (unless every run of one
  side reads better than every run of the other, which decides it).

With ``--layers`` (two files written with ``--trace 1``) it then lists,
per workload, the layer metrics whose medians moved most.  Exits 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import sys

from kkbench.spec import MetricSpec, load_spec
from kkbench.stats import quartile_spread, quartiles


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    table: dict[str, dict[str, list[float]]] = {}
    for record in document["runs"]:
        metrics = table.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(float(entry["value"]))
    return table


def verdict(spec: MetricSpec, base: list[float], new: list[float]) -> str:
    sign = 1.0 if spec.better == "lower" else -1.0
    worse_all = min(sign * v for v in new) > max(sign * v for v in base)
    better_all = max(sign * v for v in new) < min(sign * v for v in base)
    base_mid, new_mid = quartiles(base)[1], quartiles(new)[1]
    worsening = spec.worsening(base_mid, new_mid)
    noisy = max(quartile_spread(base), quartile_spread(new)) > spec.bound
    if noisy and not (worse_all or better_all):
        return "unresolved"
    if worsening > spec.bound:
        return "regressed"
    beats_median = all(sign * v < sign * base_mid for v in new)
    if -worsening > quartile_spread(base) and beats_median:
        return "improved"
    return "unchanged"


def describe(values: list[float]) -> str:
    first, middle, third = quartiles(values)
    return f"{middle:.4g} [{first:.4g}, {third:.4g}]"


def compare_end_to_end(spec, base, new) -> bool:
    regressed = False
    print(f"{'workload':14s} {'metric':16s} {'A median [Q1, Q3]':>30s} "
          f"{'B median [Q1, Q3]':>30s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload in spec.workloads:
        for name, metric in spec.end_to_end.items():
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                continue
            result = verdict(metric, a, b)
            regressed |= result == "regressed"
            ratio = quartiles(b)[1] / quartiles(a)[1]
            print(
                f"{workload:14s} {name:16s} {describe(a):>30s} {describe(b):>30s} "
                f"{ratio:7.3f} {metric.bound:6.0%}  {result} "
                f"(base A, {metric.better} is better, n={len(a)}/{len(b)})"
            )
    return regressed


def compare_layers(spec, base, new, top: int) -> None:
    for workload in spec.workloads:
        moves = []
        for name, metric in spec.per_layer.items():
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                continue
            a_mid, b_mid = quartiles(a)[1], quartiles(b)[1]
            if a_mid == 0:
                change = 0.0 if b_mid == 0 else float("inf")
            else:
                change = (b_mid - a_mid) / abs(a_mid)
            moves.append((abs(change), change, metric, a_mid, b_mid))
        if not moves:
            continue
        print(f"\n{workload}: layer metrics that moved most (B vs base A)")
        for _, change, metric, a_mid, b_mid in sorted(
            moves, key=lambda m: m[0], reverse=True
        )[:top]:
            print(
                f"   {metric.name:36s} {a_mid:14.4f} -> {b_mid:14.4f} {metric.unit:8s} "
                f"{change:+8.1%}  ({metric.better} is better)"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="runs of the parent commit (A)")
    parser.add_argument("new", help="runs of the change (B)")
    parser.add_argument(
        "--layers", nargs=2, metavar=("LA", "LB"), help="--trace 1 runs of A and B"
    )
    parser.add_argument("--top", type=int, default=8, help="layer metrics listed")
    args = parser.parse_args(argv)
    spec = load_spec()
    regressed = compare_end_to_end(spec, load_runs(args.base), load_runs(args.new))
    if args.layers:
        compare_layers(
            spec, load_runs(args.layers[0]), load_runs(args.layers[1]), args.top
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
