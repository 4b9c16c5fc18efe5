"""The single-trial kernel and node2vec's batch Pd as they stood at the
commit before PR 20 rewrote their lane bookkeeping (af23e75), kept
verbatim as the reference: ``tests/test_kernel_reference.py`` requires
the rewritten ones to return the same arrays, counters and RNG state.
Do not tidy — the point is that these are the old statements.
"""

import numpy as np

from repro.algorithms import Node2Vec
from repro.core.kernels import (
    GatherContext,
    KernelScratch,
    StaticTables,
    TrialOutcome,
    _validate_envelope,
    outlier_appendices,
)
from repro.core.program import WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet
from repro.graph.csr import CSRGraph
from repro.sampling.rejection import SamplingCounters


def reference_batch_trial_round(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    ctx: GatherContext,
    rng: np.random.Generator,
    counters: SamplingCounters,
    scratch: KernelScratch,
    validate_bounds: bool = False,
    main_dynamic_comp=None,
) -> TrialOutcome:
    """The single-trial kernel as it stood before PR 20."""
    walker_ids = ctx.walker_ids
    vertices, upper, lower = ctx.vertices, ctx.upper, ctx.lower
    count = walker_ids.size
    outlier_edges, outlier_masses, appendix_area = outlier_appendices(
        graph, program, walkers, ctx
    )

    accepted = np.zeros(count, dtype=bool)
    edges = np.full(count, -1, dtype=np.int64)
    counters.trials += count

    if appendix_area is None:
        main_lanes = np.arange(count)
    else:
        total_area = ctx.main_area + appendix_area
        region = rng.random(count) * total_area
        in_main = region < ctx.main_area
        main_lanes = np.flatnonzero(in_main)
        appendix_lanes = np.flatnonzero(~in_main)
        _appendix_trials(
            graph,
            program,
            walkers,
            walker_ids,
            appendix_lanes,
            outlier_edges,
            outlier_masses,
            appendix_area,
            upper,
            rng,
            counters,
            accepted,
            edges,
        )

    pd_lanes = np.zeros(0, dtype=np.int64)
    if main_lanes.size:
        whole_batch = main_lanes.size == count
        candidates = tables.sample_batch(
            vertices if whole_batch else vertices[main_lanes], rng
        )
        darts = scratch.random(rng, "trial_darts", (main_lanes.size,))
        darts *= upper if whole_batch else upper[main_lanes]
        pre = darts <= (lower if whole_batch else lower[main_lanes])
        counters.pre_accepts += int(pre.sum())
        pre_lanes = main_lanes[pre]
        accepted[pre_lanes] = True
        edges[pre_lanes] = candidates[pre]

        need = np.flatnonzero(~pre)
        if need.size:
            lanes = main_lanes[need]
            if main_dynamic_comp is None:
                dynamic = program.batch_dynamic_comp(
                    graph, walkers, walker_ids[lanes], candidates[need]
                )
            else:
                dynamic = main_dynamic_comp(walker_ids[lanes], candidates[need])
            counters.pd_evaluations += need.size
            if validate_bounds:
                _validate_envelope(
                    graph,
                    dynamic,
                    upper[lanes],
                    candidates[need],
                    outlier_edges[lanes] if outlier_edges is not None else None,
                )
            passed = darts[need] <= dynamic
            ok_lanes = lanes[passed]
            accepted[ok_lanes] = True
            edges[ok_lanes] = candidates[need][passed]
            pd_lanes = lanes

    if appendix_area is not None and appendix_lanes.size:
        pd_lanes = np.concatenate([pd_lanes, appendix_lanes])

    counters.accepts += int(accepted.sum())
    return TrialOutcome(accepted=accepted, edges=edges, pd_lanes=pd_lanes)


def _appendix_trials(
    graph,
    program: WalkerProgram,
    walkers: WalkerSet,
    walker_ids: np.ndarray,
    lanes: np.ndarray,
    outlier_edges: np.ndarray,
    outlier_masses: np.ndarray,
    appendix_area: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    counters: SamplingCounters,
    accepted: np.ndarray,
    edges: np.ndarray,
) -> None:
    """Darts landing in outlier appendices (mutates accepted/edges)."""
    if lanes.size == 0:
        return
    counters.appendix_trials += lanes.size
    target_edges = outlier_edges[lanes]
    dynamic = program.batch_dynamic_comp(
        graph, walkers, walker_ids[lanes], target_edges
    )
    counters.pd_evaluations += lanes.size
    chopped = outlier_masses[lanes] * np.maximum(dynamic - upper[lanes], 0.0)
    passed = rng.random(lanes.size) * appendix_area[lanes] < chopped
    ok_lanes = lanes[passed]
    accepted[ok_lanes] = True
    edges[ok_lanes] = target_edges[passed]


class ReferenceNode2Vec(Node2Vec):
    """node2vec whose batch Pd gathers through an ``undecided`` list."""

    def batch_dynamic_comp(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> np.ndarray:
        previous = walkers.previous[walker_ids]
        candidates = graph.targets[candidate_edges]
        values = np.full(walker_ids.size, self.inout_pd, dtype=np.float64)

        first_step = previous == NO_VERTEX
        is_return = candidates == previous
        values[is_return] = self.return_pd
        undecided = np.flatnonzero(~(is_return | first_step))
        if undecided.size:
            adjacent = graph.has_edges_batch(
                previous[undecided], candidates[undecided]
            )
            values[undecided[adjacent]] = 1.0
        values[first_step] = 1.0
        return values
