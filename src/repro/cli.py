"""Command-line interface.

Six subcommands cover the common workflows without writing Python:

* ``walk``     — run any built-in algorithm on a dataset stand-in or an
  edge-list file, print statistics, optionally dump the walk corpus;
* ``bench``    — regenerate one of the paper's tables/figures;
* ``info``     — print a graph's size and degree profile;
* ``serve``    — drive a synthetic request stream through the
  overload-robust walk service and print its accounting;
* ``lint``     — run the determinism & distributed-safety static
  analyzer (:mod:`repro.lint`); exits non-zero on findings;
* ``sanitize`` — run a workload twice under the runtime determinism
  sanitizer and report the first divergence, if any.

Examples::

    python -m repro.cli walk --algorithm node2vec --dataset twitter \\
        --scale 0.25 --length 40 --p 2 --q 0.5 --nodes 8
    python -m repro.cli bench table5b
    python -m repro.cli info --dataset friendster --scale 0.5
    python -m repro.cli serve --dataset livejournal --scale 0.1 \\
        --requests 200 --service-workers 4 --policy priority
    python -m repro.cli lint src/repro --strict
    python -m repro.cli sanitize --algorithm node2vec --dataset twitter \\
        --scale 0.05 --nodes 4
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import ReproError
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.io import load_edge_list

# Module level holds what every engine subcommand runs; anything one
# subcommand or one flag needs (an algorithm, the cluster simulator,
# exporters, the service, the analyzer) is imported where it is used.
if TYPE_CHECKING:
    from repro.cluster.faults import FaultPlan, FlakyLink, NodeCrash, NodeSlowdown
    from repro.obs.tracer import Tracer

__all__ = ["main", "build_parser"]

ALGORITHMS = ("uniform", "deepwalk", "ppr", "metapath", "node2vec", "rwr")
EXPERIMENTS = (
    "table1",
    "table3",
    "table4",
    "table5a",
    "table5b",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "fig9",
    "memory",
    "navrate",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KnightKing reproduction: graph random walk engine",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    walk = subparsers.add_parser("walk", help="run a random walk")
    _add_graph_arguments(walk)
    walk.add_argument(
        "--algorithm", choices=ALGORITHMS, default="deepwalk"
    )
    walk.add_argument("--walkers", type=int, default=None, help="default |V|")
    walk.add_argument("--length", type=int, default=80)
    walk.add_argument(
        "--termination", type=float, default=0.0,
        help="per-step stop probability (PPR-style Pe)",
    )
    walk.add_argument("--p", type=float, default=2.0, help="node2vec return")
    walk.add_argument("--q", type=float, default=0.5, help="node2vec in-out")
    walk.add_argument(
        "--restart", type=float, default=0.15, help="rwr restart probability"
    )
    walk.add_argument(
        "--nodes", type=int, default=0,
        help="simulate a cluster of this many nodes (0 = local engine)",
    )
    walk.add_argument("--seed", type=int, default=0)
    walk.add_argument(
        "--output", type=str, default=None,
        help="stream the walk corpus to this file (constant memory)",
    )
    _add_update_arguments(walk)
    _add_fault_arguments(walk)
    _add_obs_arguments(walk)

    bench = subparsers.add_parser("bench", help="regenerate a paper experiment")
    bench.add_argument("experiment", choices=EXPERIMENTS)

    info = subparsers.add_parser("info", help="print graph statistics")
    _add_graph_arguments(info)

    serve = subparsers.add_parser(
        "serve",
        help="drive a synthetic request stream through the walk service",
    )
    _add_graph_arguments(serve)
    serve.add_argument(
        "--requests", type=int, default=200,
        help="number of synthetic requests to submit",
    )
    serve.add_argument(
        "--service-workers", type=int, default=4,
        help="executor threads in the service",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=16,
        help="admission queue bound",
    )
    serve.add_argument(
        "--policy", choices=("reject-newest", "reject-oldest", "priority"),
        default="reject-oldest", help="load-shedding policy",
    )
    serve.add_argument(
        "--burst", type=int, default=16,
        help="submit requests in bursts of this size",
    )
    serve.add_argument(
        "--tight-deadline-ms", type=float, default=1.0,
        help="deadline of the deadline-tight request class",
    )
    serve.add_argument(
        "--no-degradation", action="store_true",
        help="disable the graceful-degradation ladder",
    )
    serve.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(serve)

    # Listed for ``repro --help`` only: main() hands ``repro lint ...`` to
    # the analyzer's own parser (repro.lint.__main__), so its flags — and
    # the package behind them — load for that subcommand alone.
    subparsers.add_parser(
        "lint",
        help="determinism & distributed-safety static analysis",
        add_help=False,
    )

    sanitize = subparsers.add_parser(
        "sanitize",
        help="run a workload twice under the determinism sanitizer and "
        "report the first divergence",
    )
    _add_graph_arguments(sanitize)
    sanitize.add_argument("--algorithm", choices=ALGORITHMS, default="deepwalk")
    sanitize.add_argument("--walkers", type=int, default=None, help="default |V|")
    sanitize.add_argument("--length", type=int, default=20)
    sanitize.add_argument(
        "--termination", type=float, default=0.0,
        help="per-step stop probability (PPR-style Pe)",
    )
    sanitize.add_argument("--p", type=float, default=2.0, help="node2vec return")
    sanitize.add_argument("--q", type=float, default=0.5, help="node2vec in-out")
    sanitize.add_argument(
        "--restart", type=float, default=0.15, help="rwr restart probability"
    )
    sanitize.add_argument(
        "--nodes", type=int, default=0,
        help="simulate a cluster of this many nodes (0 = local engine)",
    )
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--runs", type=int, default=2,
        help="how many executions to trace and compare",
    )
    _add_update_arguments(sanitize)
    _add_fault_arguments(sanitize)
    return parser


def _add_update_arguments(parser: argparse.ArgumentParser) -> None:
    """Dynamic-graph update-stream flags (walk and sanitize)."""
    updates = parser.add_argument_group(
        "dynamic graph",
        "apply an edge-update stream in epochs before/around the walk",
    )
    updates.add_argument(
        "--updates", type=str, default=None,
        help="update-stream file: insert/delete/reweight lines split "
        "into epochs by 'commit' lines",
    )
    updates.add_argument(
        "--wal", type=str, default=None,
        help="persist committed batches to this write-ahead log",
    )
    updates.add_argument(
        "--verify-tables", choices=("off", "sample", "full"), default="off",
        help="self-verify incremental sampler maintenance per epoch "
        "(mismatches are counted and fall back to a full rebuild)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-injection flags shared by the cluster subcommands."""
    faults = parser.add_argument_group(
        "fault injection (require --nodes > 0)"
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault RNG stream (separate from --seed)",
    )
    faults.add_argument(
        "--drop", type=float, default=0.0,
        help="per-transmission message drop probability",
    )
    faults.add_argument(
        "--duplicate", type=float, default=0.0,
        help="per-transmission message duplication probability",
    )
    faults.add_argument(
        "--delay-rate", type=float, default=0.0,
        help="probability a message arrives after the sender's timeout",
    )
    faults.add_argument(
        "--crash", action="append", default=[], metavar="SUPERSTEP:NODE[:dead]",
        help="crash NODE at SUPERSTEP; ':dead' keeps it down (repeatable)",
    )
    faults.add_argument(
        "--fault-slowdown", action="append", default=[],
        metavar="NODE:FACTOR[:START[:RAMP[:END]]]",
        help="make NODE a straggler: FACTOR times slower, ramping in over "
        "RAMP supersteps from START, recovering at END (repeatable)",
    )
    faults.add_argument(
        "--fault-flaky-link", action="append", default=[],
        metavar="A:B:DROP[:DELAY[:DUP[:RTT]]]",
        help="degrade the A<->B link: elevated drop/delay/duplicate rates "
        "and an RTT inflation factor (repeatable)",
    )
    faults.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="recovery-checkpoint cadence in supersteps (0 disables)",
    )
    faults.add_argument(
        "--degrade", action="store_true",
        help="re-partition a permanently dead node's vertices across "
        "survivors instead of aborting",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``walk`` and ``serve``."""
    obs = parser.add_argument_group(
        "observability",
        "span tracing and metrics export (repro.obs); tracing is off "
        "unless a flag is given",
    )
    obs.add_argument(
        "--emit-trace", type=str, default=None, metavar="FILE",
        help="write the run's spans as Chrome trace-event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    obs.add_argument(
        "--emit-metrics", type=str, default=None, metavar="FILE",
        help="write run metrics in Prometheus text format",
    )
    obs.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="keep per-walker hop spans only for every N-th walker id "
        "(structural spans are always kept)",
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=sorted(DATASETS), help="synthetic stand-in"
    )
    source.add_argument("--edge-list", type=str, help="edge-list file")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--weighted", action="store_true", help="assign U[1,5) weights"
    )


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return load_dataset(
            args.dataset, scale=args.scale, weighted=args.weighted
        )
    return load_edge_list(args.edge_list)


def _build_program(args: argparse.Namespace, graph):
    if args.algorithm == "uniform":
        from repro.algorithms.uniform import UniformWalk

        return UniformWalk(), graph
    if args.algorithm == "deepwalk":
        from repro.algorithms.deepwalk import DeepWalk

        return DeepWalk(), graph
    if args.algorithm == "ppr":
        from repro.algorithms.ppr import PPR

        return PPR(), graph
    if args.algorithm == "rwr":
        from repro.algorithms.rwr import RandomWalkWithRestart

        return RandomWalkWithRestart(args.restart), graph
    if args.algorithm == "node2vec":
        from repro.algorithms.node2vec import Node2Vec

        return Node2Vec(p=args.p, q=args.q), graph
    if args.algorithm == "metapath":
        from repro.algorithms.metapath import MetaPathWalk, random_schemes
        from repro.graph.hetero import assign_random_edge_types

        if graph.edge_types is None:
            graph = assign_random_edge_types(graph, 5, seed=args.seed + 91)
        schemes = random_schemes(10, 5, 5, seed=args.seed)
        return MetaPathWalk(schemes), graph
    raise ReproError(f"unknown algorithm {args.algorithm!r}")


def _parse_crash(spec: str) -> NodeCrash:
    from repro.cluster.faults import NodeCrash

    parts = spec.split(":")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "dead"):
        raise ReproError(
            f"bad --crash {spec!r}: expected SUPERSTEP:NODE or "
            "SUPERSTEP:NODE:dead"
        )
    try:
        superstep, node = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ReproError(f"bad --crash {spec!r}: {exc}") from exc
    return NodeCrash(superstep=superstep, node=node, restart=len(parts) == 2)


def _parse_slowdown(spec: str) -> NodeSlowdown:
    from repro.cluster.faults import NodeSlowdown

    parts = spec.split(":")
    if not 2 <= len(parts) <= 5:
        raise ReproError(
            f"bad --fault-slowdown {spec!r}: expected "
            "NODE:FACTOR[:START[:RAMP[:END]]]"
        )
    try:
        node = int(parts[0])
        factor = float(parts[1])
        start = int(parts[2]) if len(parts) >= 3 else 0
        ramp = int(parts[3]) if len(parts) >= 4 else 0
        end = int(parts[4]) if len(parts) == 5 else None
    except ValueError as exc:
        raise ReproError(f"bad --fault-slowdown {spec!r}: {exc}") from exc
    try:
        return NodeSlowdown(
            node=node, factor=factor, start_superstep=start,
            ramp_supersteps=ramp, end_superstep=end,
        )
    except ReproError as exc:
        raise ReproError(f"bad --fault-slowdown {spec!r}: {exc}") from exc


def _parse_flaky_link(spec: str) -> FlakyLink:
    from repro.cluster.faults import FlakyLink, MessageFaults

    parts = spec.split(":")
    if not 3 <= len(parts) <= 6:
        raise ReproError(
            f"bad --fault-flaky-link {spec!r}: expected "
            "A:B:DROP[:DELAY[:DUP[:RTT]]]"
        )
    try:
        a, b = int(parts[0]), int(parts[1])
        drop = float(parts[2])
        delay = float(parts[3]) if len(parts) >= 4 else 0.0
        duplicate = float(parts[4]) if len(parts) >= 5 else 0.0
        rtt = float(parts[5]) if len(parts) == 6 else 4.0
    except ValueError as exc:
        raise ReproError(f"bad --fault-flaky-link {spec!r}: {exc}") from exc
    try:
        return FlakyLink(
            a=a, b=b,
            faults=MessageFaults(drop=drop, duplicate=duplicate, delay=delay),
            rtt_factor=rtt,
        )
    except ReproError as exc:
        raise ReproError(f"bad --fault-flaky-link {spec!r}: {exc}") from exc


def _build_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    asked = (
        args.drop, args.duplicate, args.delay_rate,
        args.crash, args.fault_slowdown, args.fault_flaky_link,
    )
    if not any(asked):  # every fault flag at its default: no simulator code
        return None
    from repro.cluster.faults import FaultPlan, MessageFaults

    rates = MessageFaults(
        drop=args.drop, duplicate=args.duplicate, delay=args.delay_rate
    )
    crashes = tuple(_parse_crash(spec) for spec in args.crash)
    slowdowns = tuple(_parse_slowdown(spec) for spec in args.fault_slowdown)
    flaky_links = tuple(
        _parse_flaky_link(spec) for spec in args.fault_flaky_link
    )
    if args.nodes <= 0:
        raise ReproError("fault injection requires --nodes > 0")
    return FaultPlan(
        seed=args.fault_seed,
        crashes=crashes,
        default_faults=rates,
        slowdowns=slowdowns,
        flaky_links=flaky_links,
    )


def _apply_update_stream(graph, args: argparse.Namespace):
    """Commit the ``--updates`` stream; returns the DynamicGraph."""
    from repro.graph.dynamic import DynamicGraph, parse_update_stream

    batches = parse_update_stream(args.updates)
    dynamic = DynamicGraph(
        graph,
        wal_path=args.wal,
        verify=args.verify_tables,
        seed=args.seed,
    )
    started = time.perf_counter()
    for batch in batches:
        dynamic.commit(batch)
    elapsed = time.perf_counter() - started
    total = sum(len(batch) for batch in batches)
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(
        f"updates: {total} edges across {len(batches)} epochs "
        f"({rate:,.0f} edges/s), now at epoch {dynamic.epoch}"
    )
    return dynamic


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    if args.emit_trace is None:
        return None
    from repro.obs.tracer import Tracer

    return Tracer(sample_every=max(args.trace_sample, 1))


def _write_trace(tracer: Tracer | None, args: argparse.Namespace) -> None:
    if tracer is not None:
        from repro.obs.exporters import write_chrome_trace

        write_chrome_trace(tracer, args.emit_trace)
        print(
            f"trace written to {args.emit_trace} "
            f"({len(tracer.spans)} spans; open in chrome://tracing)"
        )


def _walk_config(
    args: argparse.Namespace, stream_paths_to: str | None = None
) -> WalkConfig:
    """The walk ``walk`` and ``sanitize`` both run: PPR stops with
    probability 1/80 per step unless ``--termination`` sets another,
    and then has no step cap."""
    termination = args.termination
    if args.algorithm == "ppr" and termination == 0.0:
        termination = 1.0 / 80.0
    return WalkConfig(
        num_walkers=args.walkers,
        max_steps=None if termination > 0 and args.algorithm == "ppr" else args.length,
        termination_probability=termination,
        seed=args.seed,
        stream_paths_to=stream_paths_to,
    )


def _run_walk(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    program, graph = _build_program(args, graph)
    if args.updates is not None:
        graph = _apply_update_stream(graph, args)
    config = _walk_config(args, stream_paths_to=args.output)

    fault_plan = _build_fault_plan(args)
    tracer = _make_tracer(args)

    print(f"graph: {graph}")
    print(f"algorithm: {program!r}")
    if args.nodes > 0:
        from repro.cluster.engine import DistributedWalkEngine

        engine = DistributedWalkEngine(
            graph,
            program,
            config,
            num_nodes=args.nodes,
            fault_plan=fault_plan,
            checkpoint_every=args.checkpoint_every,
            degrade_on_crash=args.degrade,
        )
    else:
        engine = WalkEngine(graph, program, config)
    engine.observe(tracer)
    result = engine.run()
    print(f"stats: {result.stats.summary()}")
    if args.nodes > 0:
        print(result.cluster.report())
    print(f"termination: {result.stats.termination}")
    if args.emit_metrics is not None:
        from repro.obs.exporters import to_prometheus_text

        registry = result.stats.to_registry()
        if args.nodes > 0:
            result.cluster.to_registry(registry)
        with open(args.emit_metrics, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus_text(registry))
        print(f"metrics written to {args.emit_metrics}")
    _write_trace(tracer, args)
    if result.stats.graph_epoch is not None:
        print(f"graph epoch: {result.stats.graph_epoch}")
        if result.stats.maintenance is not None:
            print(result.stats.maintenance.summary())

    if args.output is not None:
        print(f"corpus streamed to {args.output}")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        memory,
        navrate,
        table1,
        table5,
        tables34,
    )

    runners = {
        "table1": table1.run,
        "table3": lambda: tables34.run(weighted=False),
        "table4": lambda: tables34.run(weighted=True),
        "table5a": table5.run_5a,
        "table5b": table5.run_5b,
        "fig5": fig5.run,
        "fig6a": fig6.run_6a,
        "fig6b": fig6.run_6b,
        "fig6c": fig6.run_6c,
        "fig7": fig7.run,
        "fig8": fig8.run,
        "fig9": fig9.run,
        "memory": memory.run,
        "navrate": navrate.run,
    }
    print(runners[args.experiment]().format())
    return 0


def _synthetic_request(index: int, args: argparse.Namespace):
    """One request of the synthetic mix, deterministic in ``index``.

    The stream cycles through four classes: light uniform walks (60%),
    heavy DeepWalk corpus jobs (20%), mid-priority node2vec (10%), and
    deadline-tight lookups (10%).
    """
    from repro.algorithms.deepwalk import DeepWalk
    from repro.algorithms.node2vec import Node2Vec
    from repro.algorithms.uniform import UniformWalk
    from repro.service import WalkRequest

    kind = index % 10
    seed = args.seed * 7919 + index
    if kind < 6:
        return WalkRequest(
            program=UniformWalk(),
            config=WalkConfig(num_walkers=32, max_steps=10, seed=seed),
            priority=0,
            tag="light",
        )
    if kind < 8:
        return WalkRequest(
            program=DeepWalk(),
            config=WalkConfig(num_walkers=256, max_steps=40, seed=seed),
            priority=1,
            tag="heavy",
        )
    if kind == 8:
        return WalkRequest(
            program=Node2Vec(p=2.0, q=0.5),
            config=WalkConfig(num_walkers=64, max_steps=20, seed=seed),
            priority=2,
            tag="node2vec",
        )
    return WalkRequest(
        program=UniformWalk(),
        config=WalkConfig(num_walkers=32, max_steps=10, seed=seed),
        priority=1,
        deadline=args.tight_deadline_ms / 1000.0,
        tag="tight",
    )


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import DegradationPolicy, WalkService

    graph = _load_graph(args)
    print(f"graph: {graph}")
    print(
        f"service: {args.service_workers} workers, queue capacity "
        f"{args.queue_capacity}, policy {args.policy}"
    )
    tracer = _make_tracer(args)
    service = WalkService(
        graph,
        num_workers=args.service_workers,
        queue_capacity=args.queue_capacity,
        shed_policy=args.policy,
        degradation=None if args.no_degradation else DegradationPolicy(),
        tracer=tracer,
    )
    tickets = []
    for index in range(args.requests):
        tickets.append(service.submit(_synthetic_request(index, args)))
        if args.burst > 0 and (index + 1) % args.burst == 0:
            time.sleep(0.002)  # bursty arrival: pressure waves, not a drip
    service.close(wait=True)
    responses = [ticket.wait(timeout=300.0) for ticket in tickets]

    by_status: dict[str, int] = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    print(
        "statuses: "
        + " ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
    )
    print(service.metrics.report())
    metrics = service.metrics
    balanced = service.accounting_balanced() and metrics.resolved == len(
        responses
    )
    print(
        f"accounting: submitted={metrics.submitted} "
        f"served={metrics.served} shed={metrics.shed} "
        f"failed={metrics.failed} exact={balanced}"
    )
    if args.emit_metrics is not None:
        from repro.obs.exporters import to_prometheus_text

        registry = metrics.to_registry()
        with open(args.emit_metrics, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus_text(registry))
        print(f"metrics written to {args.emit_metrics}")
    _write_trace(tracer, args)
    return 0 if balanced else 1


def _run_sanitize(args: argparse.Namespace) -> int:
    from repro.lint.sanitizer import run_sanitized

    graph = _load_graph(args)
    program, graph = _build_program(args, graph)

    config = _walk_config(args)
    fault_plan = _build_fault_plan(args)

    print(f"graph: {graph}")
    print(f"algorithm: {program!r}")
    if fault_plan is not None:
        print(
            "fault plan: certifying bit-identical replay under the "
            "injected fault schedule"
        )

    def make_factory(epoch: int | None = None):
        def factory():
            target = graph
            if epoch is not None:
                # Rebuild the dynamic graph from scratch and replay the
                # update stream to this epoch — every traced run is a
                # full replay, so agreement certifies that replay is
                # bit-identical, not merely that one engine is.
                from repro.graph.dynamic import DynamicGraph

                target = DynamicGraph(graph, seed=args.seed)
                for batch in update_batches[:epoch]:
                    target.commit(batch)
            if args.nodes > 0:
                from repro.cluster.engine import DistributedWalkEngine

                return DistributedWalkEngine(
                    target,
                    program,
                    config,
                    num_nodes=args.nodes,
                    fault_plan=fault_plan,
                    checkpoint_every=args.checkpoint_every,
                    degrade_on_crash=args.degrade,
                )
            return WalkEngine(target, program, config)

        return factory

    if args.updates is not None:
        from repro.graph.dynamic import parse_update_stream

        update_batches = parse_update_stream(args.updates)
        print(
            f"update stream: {len(update_batches)} epochs; certifying "
            f"bit-identical replay of the walk at every epoch"
        )
        certified = True
        for epoch in range(1, len(update_batches) + 1):
            report = run_sanitized(make_factory(epoch=epoch), runs=args.runs)
            verdict = "certified" if report.deterministic else "DIVERGED"
            print(f"epoch {epoch}: {verdict} ({report.events[0]} events)")
            certified = certified and report.deterministic
        return 0 if certified else 1

    report = run_sanitized(make_factory(), runs=args.runs)
    print(report.summary())
    return 0 if report.deterministic else 1


def _run_info(args: argparse.Namespace) -> int:
    import numpy as np

    graph = _load_graph(args)
    stats = graph.degree_stats()
    degrees = graph.out_degrees()
    print(f"graph: {graph}")
    print(f"degrees: {stats}")
    if degrees.size:
        percentiles = np.percentile(degrees, [50, 90, 99])
        print(
            f"degree percentiles: p50={percentiles[0]:.0f} "
            f"p90={percentiles[1]:.0f} p99={percentiles[2]:.0f}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["lint"]:
            from repro.lint.__main__ import main as lint_main

            return lint_main(argv[1:])
        args = build_parser().parse_args(argv)
        if args.command == "walk":
            return _run_walk(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "info":
            return _run_info(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "sanitize":
            return _run_sanitize(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2  # unreachable with required=True subparsers


if __name__ == "__main__":
    sys.exit(main())
