"""The single-trial kernel and node2vec's batch Pd as they stood at the
commit before PR 20 rewrote their lane bookkeeping (af23e75), kept
verbatim as the reference: ``tests/test_kernel_reference.py`` requires
the rewritten ones to return the same arrays, counters and RNG state.
Do not tidy — the point is that these are the old statements.

Below them, the fused multi-trial kernel as it stood at the commit
before PR 24 deleted it (42e1912), equally verbatim:
``tests/test_widened_round.py`` requires the widened single-trial round
that replaced it to agree with it in law and in counted work.
"""

from dataclasses import dataclass

import numpy as np

from repro.algorithms import Node2Vec
from repro.core.kernels import (
    GatherContext,
    KernelScratch,
    StaticTables,
    _validate_envelope,
    outlier_appendices,
)
from repro.core.program import WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet
from repro.graph.csr import CSRGraph
from repro.sampling.rejection import SamplingCounters


@dataclass
class TrialOutcome:
    """The outcome as it stood then (PR 24 added ``appendix_lanes``)."""

    accepted: np.ndarray
    edges: np.ndarray
    pd_lanes: np.ndarray


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


@dataclass
class ReferenceMultiTrialOutcome:
    """Result of one fused multi-trial round.

    All arrays align with the context's ``walker_ids``.  ``trials_used``
    is the number of sequential trials the walker *observably* consumed —
    the index of its first accepted trial plus one, or the full K when
    every speculated trial was rejected.  ``pd_evaluations`` counts the
    Pd evaluations attributable to those consumed trials; speculative
    evaluations past the first accept are performed but never counted,
    so counters match a sequential execution in distribution.  The
    per-walker breakdown exists because callers (the cluster engine's
    per-node accounting, the zero-mass guard's rejection streaks) need
    to attribute work to individual walkers, not just totals.
    """

    accepted: np.ndarray
    edges: np.ndarray
    trials_used: np.ndarray
    pd_evaluations: np.ndarray



def reference_batch_multi_trial_round(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    ctx: GatherContext,
    rng: np.random.Generator,
    counters: SamplingCounters,
    scratch: KernelScratch,
    num_trials: int,
    validate_bounds: bool = False,
) -> ReferenceMultiTrialOutcome:
    """K speculative rejection trials per lane, fused into one round.

    Semantically equivalent to running :func:`batch_trial_round` up to
    ``num_trials`` times on the shrinking rejected set, but all K
    candidate/dart pairs are drawn in one shot and each walker's first
    accepted trial is resolved with a vectorised first-success
    selection (accept-mask ``argmax`` over the (walker, trial) cell
    layout).  Trials past the first accept are *speculative*: their
    darts are drawn and their Pd may be evaluated, but they contribute
    nothing to the outcome or the counters, so the sampled law and the
    counter totals match a sequential execution trial-for-trial.

    Counter accounting per walker with first accept at column ``a``
    (``a = K`` when all trials rejected):

    - ``trials``         += ``min(a + 1, K)``
    - ``pre_accepts``    += 1 iff the accepting cell pre-accepted
    - ``pd_evaluations`` += Pd-requiring cells at columns ``<= a``
    - ``appendix_trials``+= appendix cells at columns ``<= a``

    The per-walker consumption is also returned (see
    :class:`ReferenceMultiTrialOutcome`) so distributed callers can attribute
    work to nodes and rejection streaks can advance by trials consumed.
    """
    walker_ids = ctx.walker_ids
    vertices, upper, lower = ctx.vertices, ctx.upper, ctx.lower
    main_area = ctx.main_area
    count = walker_ids.size
    k = int(num_trials)
    if k < 1:
        raise ValueError("num_trials must be >= 1")

    outlier_edges, outlier_masses, appendix_area = outlier_appendices(
        graph, program, walkers, ctx
    )
    if appendix_area is not None and not appendix_area.any():
        appendix_area = None

    cols = np.arange(k)

    # Region choice and candidate/dart draws for every (walker, trial)
    # cell.  Darts are thrown for appendix cells too — an independent
    # wasted draw changes nothing distributionally and keeps the dart
    # matrix a single vectorised fill.
    darts = scratch.random(rng, "darts", (count, k))
    if appendix_area is None:
        in_main = None
        candidates = tables.sample_batch(np.repeat(vertices, k), rng).reshape(
            count, k
        )
        darts *= upper[:, None]
        pre = darts <= lower[:, None]
    else:
        total_area = main_area + appendix_area
        region = scratch.random(rng, "region", (count, k))
        region *= total_area[:, None]
        in_main = region < main_area[:, None]
        main_rows, main_cols = np.nonzero(in_main)
        candidates = scratch.get("candidates", (count, k), np.int64)
        candidates.fill(-1)
        if main_rows.size:
            candidates[main_rows, main_cols] = tables.sample_batch(
                vertices[main_rows], rng
            )
        darts *= upper[:, None]
        pre = in_main & (darts <= lower[:, None])

    # First pre-accepting column per walker; trials beyond it are dead
    # speculation and need no Pd at all.
    pre_any = pre.any(axis=1)
    pre_pos = np.where(pre_any, pre.argmax(axis=1), k)
    live = cols[None, :] < pre_pos[:, None]

    accept = scratch.get("accept", (count, k), bool)
    np.copyto(accept, pre)

    # Main-region cells needing a Pd evaluation.
    if in_main is None and not pre_any.any():
        # Fast path for no appendix and no pre-accepts (e.g. a zero
        # lower bound): every cell needs Pd, so evaluate the whole cell
        # matrix flat and skip the nonzero/gather machinery.
        need_pd = None
        dynamic = program.batch_dynamic_comp(
            graph, walkers, np.repeat(walker_ids, k), candidates.reshape(-1)
        )
        if validate_bounds:
            _validate_envelope(
                graph,
                dynamic,
                np.repeat(upper, k),
                candidates.reshape(-1),
                np.repeat(outlier_edges, k) if outlier_edges is not None else None,
            )
        np.less_equal(
            darts.reshape(-1), dynamic, out=accept.reshape(-1)
        )
    else:
        if in_main is None:
            need_pd = live & ~pre
        else:
            need_pd = live & in_main & ~pre
        pd_rows, pd_cols = np.nonzero(need_pd)
        if pd_rows.size:
            cell_candidates = candidates[pd_rows, pd_cols]
            dynamic = program.batch_dynamic_comp(
                graph, walkers, walker_ids[pd_rows], cell_candidates
            )
            if validate_bounds:
                _validate_envelope(
                    graph,
                    dynamic,
                    upper[pd_rows],
                    cell_candidates,
                    outlier_edges[pd_rows] if outlier_edges is not None else None,
                )
            passed = darts[pd_rows, pd_cols] <= dynamic
            accept[pd_rows[passed], pd_cols[passed]] = True

    # Appendix cells: the outlier's Pd is a per-walker constant (same
    # edge, same walker state), so evaluate it once per walker and
    # broadcast, then draw the chopped-area coin per cell.
    if in_main is None:
        appendix_cells = None
    else:
        appendix_cells = live & ~in_main
        ap_rows, ap_cols = np.nonzero(appendix_cells)
        if ap_rows.size:
            ap_walkers = np.unique(ap_rows)
            dynamic_out = program.batch_dynamic_comp(
                graph, walkers, walker_ids[ap_walkers], outlier_edges[ap_walkers]
            )
            chopped = np.zeros(count, dtype=np.float64)
            chopped[ap_walkers] = outlier_masses[ap_walkers] * np.maximum(
                dynamic_out - upper[ap_walkers], 0.0
            )
            coins = rng.random(ap_rows.size) * appendix_area[ap_rows]
            passed = coins < chopped[ap_rows]
            accept[ap_rows[passed], ap_cols[passed]] = True

    # First-success selection.
    accepted = accept.any(axis=1)
    first = np.where(accepted, accept.argmax(axis=1), k)
    trials_used = np.minimum(first + 1, k).astype(np.int64)

    edges = np.full(count, -1, dtype=np.int64)
    hit = np.flatnonzero(accepted)
    if hit.size:
        hit_cols = first[hit]
        if in_main is None:
            edges[hit] = candidates[hit, hit_cols]
        else:
            from_main = in_main[hit, hit_cols]
            edges[hit] = np.where(
                from_main, candidates[hit, hit_cols], outlier_edges[hit]
            )

    # Counters: only cells at columns <= first accept are "consumed";
    # speculative work past the accept is free and uncounted.
    if need_pd is None:
        # No pre-accepts and no appendix: every consumed cell is a
        # main-region Pd evaluation.
        pd_per_walker = trials_used.copy()
    else:
        consumed = cols[None, :] <= first[:, None]
        pd_per_walker = (need_pd & consumed).sum(axis=1).astype(np.int64)
        if appendix_cells is not None:
            appendix_consumed = appendix_cells & consumed
            pd_per_walker += appendix_consumed.sum(axis=1)
            counters.appendix_trials += int(appendix_consumed.sum())
    counters.trials += int(trials_used.sum())
    counters.pd_evaluations += int(pd_per_walker.sum())
    counters.pre_accepts += int((pre_any & (first == pre_pos)).sum())
    counters.accepts += int(accepted.sum())

    return ReferenceMultiTrialOutcome(
        accepted=accepted,
        edges=edges,
        trials_used=trials_used,
        pd_evaluations=pd_per_walker,
    )
