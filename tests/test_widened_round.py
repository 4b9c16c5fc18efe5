"""The widened round against the fused kernel it replaced.

PR 24 deleted ``batch_multi_trial_round``: a fused round is now
``batch_trial_round`` over ``ctx.repeat(K)`` reduced by
``first_accepts``.  The RNG streams differ (candidates before darts,
one appendix coin per cell), so the two cannot agree bit for bit;
``tests/reference_kernels.py`` keeps the deleted kernel verbatim and
here Hypothesis draws a graph, a program, a standing (every walker at
one vertex with one history, so the exact law is one full scan) and K,
and requires the widened round to sample that law, to charge exactly
the trials each walker consumed, and to do the same work per accepted
move as both the single-trial kernel and the frozen fused one.

Derandomised: chi-square and rate checks over freshly drawn examples
would fail a healthy tree once in a few hundred runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Node2Vec
from repro.core.kernels import (
    KernelScratch,
    batch_trial_round,
    full_scan_distribution,
    gather_stage,
)
from repro.core.walker import NO_VERTEX, WalkerSet
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables
from repro.sampling.rejection import SamplingCounters
from tests.helpers import assert_matches_distribution, widened_round
from tests.reference_kernels import reference_batch_multi_trial_round
from tests.test_kernel_reference import PQ, TargetTilt, graphs

LANES = 2000
ACCEPTS = 40_000
RATES = ("trials", "pd_evaluations", "pre_accepts", "appendix_trials")


def assert_counted_work(walker_level, cells, k, before, after):
    """Only consumed cells count: the deleted docstring's contract,
    re-derived here cell by cell."""
    accepted, edges, trials_used, pd_used = walker_level
    count = accepted.size
    assert np.all((trials_used >= 1) & (trials_used <= k))
    assert np.all(trials_used[~accepted] == k)
    assert np.all(edges[~accepted] == -1) and np.all(edges[accepted] >= 0)

    grid = cells.accepted.reshape(count, k)
    consumed = np.arange(k) < trials_used[:, None]
    assert np.array_equal(accepted, grid.any(axis=1))
    # The last consumed cell is the walker's only consumed accept.
    assert np.array_equal((grid & consumed).sum(axis=1), accepted)
    assert np.array_equal(grid[np.arange(count), trials_used - 1], accepted)
    assert np.array_equal(
        edges, cells.edges.reshape(count, k)[np.arange(count), trials_used - 1]
    )

    evaluated = np.zeros(count * k, dtype=bool)
    evaluated[cells.pd_lanes] = True
    evaluated = evaluated.reshape(count, k)
    in_appendix = np.zeros(count * k, dtype=bool)
    in_appendix[cells.appendix_lanes] = True
    assert np.array_equal(pd_used, (evaluated & consumed).sum(axis=1))
    accepting_pre = accepted & ~evaluated[np.arange(count), trials_used - 1]
    spent = {
        "trials": int(trials_used.sum()),
        "pd_evaluations": int(pd_used.sum()),
        "pre_accepts": int(accepting_pre.sum()),
        "appendix_trials": int((in_appendix.reshape(count, k) & consumed).sum()),
        "accepts": int(accepted.sum()),
    }
    for name, value in spent.items():
        assert getattr(after, name) - getattr(before, name) == value, name


@st.composite
def standings(draw):
    """Graph, program and one (current, previous) state shared by every
    walker; node2vec with p = 0.25 folds its return edge when asked to
    and the return edge exists."""
    graph = draw(graphs())
    if draw(st.booleans()):
        program = Node2Vec(
            p=0.25,
            q=draw(st.sampled_from(PQ)),
            biased=draw(st.booleans()),
            fold_outlier=draw(st.booleans()),
        )
    else:
        program = TargetTilt(floor=True, fold=draw(st.booleans()))
    current = draw(st.integers(0, graph.num_vertices - 1))
    start, end = graph.edge_range(current)
    neighbours = sorted(set(graph.targets[start:end].tolist()))
    previous = draw(
        st.sampled_from([NO_VERTEX, (current - 1) % graph.num_vertices] + neighbours)
    )
    walkers = WalkerSet(np.full(LANES, current, dtype=np.int64))
    walkers.previous[:] = previous
    walkers.steps[:] = previous != NO_VERTEX
    return graph, program, walkers


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    standing=standings(),
    k=st.sampled_from([1, 2, 6, 16]),
    sampler=st.sampled_from([VertexAliasTables, VertexITSTables]),
    use_lower_bound=st.booleans(),
    exchange=st.booleans(),
    retried=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_widened_round_agrees_with_frozen_fused_kernel(
    standing, k, sampler, use_lower_bound, exchange, retried, seed
):
    graph, program, walkers = standing
    tables = sampler(graph, program.edge_static_comp(graph))
    upper = program.upper_bound_array(graph)
    lower = program.lower_bound_array(graph) if use_lower_bound else upper * 0.0
    ctx = gather_stage(tables, walkers, np.arange(LANES), upper, lower)
    if retried:
        # A context that has been through a round already carries its
        # main areas into ``repeat``.
        assert ctx.main_area.size == LANES
    args = (graph, tables, program, walkers, ctx)
    asked = []

    def main_dynamic_comp(walker_ids, edges):
        asked.append(walker_ids.size)
        return program.batch_dynamic_comp(graph, walkers, walker_ids, edges)

    def run(one_round):
        rng, counters = np.random.default_rng(seed), SamplingCounters()
        scratch = KernelScratch()
        while counters.accepts < ACCEPTS:
            one_round(rng, counters, scratch)
        return counters

    targets = []

    def widened(rng, counters, scratch):
        before = dataclasses.replace(counters)
        asked.clear()
        walker_level, cells = widened_round(
            *args, rng, counters, scratch, k,
            validate_bounds=True,
            main_dynamic_comp=main_dynamic_comp if exchange else None,
        )
        assert_counted_work(walker_level, cells, k, before, counters)
        if exchange:
            assert sum(asked) == cells.pd_lanes.size - cells.appendix_lanes.size
        accepted, edges = walker_level[:2]
        targets.extend(graph.targets[edges[accepted]].tolist())

    ours = run(widened)
    single = run(lambda rng, counters, scratch: batch_trial_round(
        *args, rng, counters, scratch
    ))
    frozen = run(lambda rng, counters, scratch: reference_batch_multi_trial_round(
        *args, rng, counters, scratch, num_trials=k
    ))

    mass, _ = full_scan_distribution(graph, tables, program, walkers, 0)
    start, end = graph.edge_range(int(walkers.current[0]))
    law = np.bincount(
        graph.targets[start:end], weights=mass, minlength=graph.num_vertices
    )
    assert_matches_distribution(targets, law)

    for other, label in ((single, "single-trial"), (frozen, "frozen fused")):
        for field in RATES:
            mine = getattr(ours, field) / ours.accepts
            theirs = getattr(other, field) / other.accepts
            assert mine == pytest.approx(theirs, rel=0.05, abs=0.01), (
                f"{field} per accept: widened {mine:.4f} vs {label} {theirs:.4f}"
            )
        assert ours.accepts / ours.trials == pytest.approx(
            other.accepts / other.trials, rel=0.05, abs=0.01
        )
