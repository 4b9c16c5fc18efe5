"""Layer probes shared by the workloads: each calls one public function
of one layer, inside a span, and fills the traced run's report."""

from __future__ import annotations

from repro.core import WalkEngine

from .base import LayerReport, public, timed
from .spans import SpanRecorder

__all__ = [
    "TABLE_AND_CORE_LAYERS",
    "core_counts",
    "engine_probe",
    "record_probe",
    "table_build_probe",
]

# What the table-build and engine probes report; every workload runs them.
TABLE_AND_CORE_LAYERS = (
    "sampling.table_build_s",
    "sampling.table_build_edges_per_s",
    "core.init_s",
    "core.init_self_s",
    "core.loop_s",
    "core.loop_steps_per_s",
    "core.iterations",
    "core.trials_per_step",
    "core.pd_evals_per_step",
    "core.accept_ratio",
)


def table_build_probe(graph, recorder: SpanRecorder, report: LayerReport) -> None:
    with report.probing("sampling.table_build_s", "sampling.table_build_edges_per_s"):
        tables = public("repro.sampling:VertexAliasTables")
        _, seconds = timed(
            recorder, "sampling.table_build", lambda: tables(graph, None)
        )
        report.set("sampling.table_build_s", seconds)
        report.set("sampling.table_build_edges_per_s", graph.num_edges / seconds)


def core_counts(stats, report: LayerReport) -> None:
    """Exact work counts of one job (they repeat run to run)."""
    with report.probing(
        "core.iterations",
        "core.trials_per_step",
        "core.pd_evals_per_step",
        "core.accept_ratio",
    ):
        report.set("core.iterations", stats.iterations)
        report.set("core.trials_per_step", stats.trials_per_step)
        report.set("core.pd_evals_per_step", stats.pd_evaluations_per_step)
        report.set("core.accept_ratio", stats.total_steps / stats.counters.trials)


def engine_probe(
    graph,
    program,
    config,
    recorder: SpanRecorder,
    report: LayerReport,
    tables_in_init: bool = True,
):
    """One job as separate public calls: ctor, then run().

    ``tables_in_init`` says whether the ctor builds the sampling tables
    itself (static graphs) or takes them from the epoch cache."""
    with recorder.span("core.job"):
        engine, init_s = timed(
            recorder, "core.init", lambda: WalkEngine(graph, program, config)
        )
        result, loop_s = timed(recorder, "core.loop", engine.run)
    report.set("core.init_s", init_s)
    report.set("core.loop_s", loop_s)
    report.set("core.loop_steps_per_s", result.stats.total_steps / loop_s)
    table_s = report.values.get("sampling.table_build_s")
    if not tables_in_init:
        report.set("core.init_self_s", init_s)
    elif table_s is not None:
        report.set("core.init_self_s", init_s - table_s)
    core_counts(result.stats, report)
    return init_s + loop_s


def record_probe(graph, program, config, recorder, report: LayerReport) -> None:
    """What keeping paths adds to run(): the same job with
    ``record_paths`` on, minus ``core.loop_s`` measured without."""
    with recorder.span("core.job+record"):
        engine, _ = timed(
            recorder, "core.init", lambda: WalkEngine(graph, program, config)
        )
        _, seconds = timed(recorder, "core.loop+record", engine.run)
    report.set("core.record_s", seconds - report.values["core.loop_s"])
