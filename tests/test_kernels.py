"""Direct unit tests for the vectorised rejection kernels."""

import numpy as np
import pytest

from repro.core.kernels import (
    KernelScratch,
    TrialOutcome,
    batch_trial_round,
    full_scan_distribution,
    gather_stage,
)
from repro.core.program import WalkerProgram
from repro.core.walker import WalkerSet
from repro.graph.builder import from_edges
from repro.sampling.alias import VertexAliasTables
from repro.sampling.rejection import SamplingCounters

from tests.helpers import assert_matches_distribution


class HalfAndOne(WalkerProgram):
    """Pd = 0.5 on even-target edges, 1.0 on odd-target edges."""

    dynamic = True
    supports_batch = True

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return 0.5 if graph.targets[edge_index] % 2 == 0 else 1.0

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return np.where(graph.targets[candidate_edges] % 2 == 0, 0.5, 1.0)


@pytest.fixture
def setup():
    graph = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    tables = VertexAliasTables(graph)
    walkers = WalkerSet(np.zeros(6, dtype=np.int64))
    return graph, tables, walkers


class TestBatchTrialRound:
    def test_outcome_alignment(self, setup):
        graph, tables, walkers = setup
        counters = SamplingCounters()
        ctx = gather_stage(tables, walkers, np.arange(6), np.ones(5), np.zeros(5))
        outcome = batch_trial_round(
            graph,
            tables,
            HalfAndOne(),
            walkers,
            ctx,
            np.random.default_rng(0),
            counters,
            KernelScratch(),
        )
        assert isinstance(outcome, TrialOutcome)
        assert outcome.accepted.shape == (6,)
        assert outcome.edges.shape == (6,)
        # Rejected lanes carry -1; accepted lanes carry a valid edge.
        for lane in range(6):
            if outcome.accepted[lane]:
                assert 0 <= outcome.edges[lane] < graph.num_edges
            else:
                assert outcome.edges[lane] == -1
        assert counters.trials == 6
        assert counters.accepts == int(outcome.accepted.sum())

    def test_sampled_law_over_many_rounds(self, setup):
        graph, tables, walkers = setup
        rng = np.random.default_rng(1)
        counters = SamplingCounters()
        accepted_targets = []
        ctx = gather_stage(tables, walkers, np.arange(6), np.ones(5), np.zeros(5))
        scratch = KernelScratch()
        while len(accepted_targets) < 20_000:
            outcome = batch_trial_round(
                graph, tables, HalfAndOne(), walkers, ctx, rng, counters,
                scratch,
            )
            accepted_targets.extend(
                graph.targets[outcome.edges[outcome.accepted]].tolist()
            )
        # Targets 1..4; Pd: 1 for odd (1, 3), 0.5 for even (2, 4).
        law = np.array([0.0, 1.0, 0.5, 1.0, 0.5])
        assert_matches_distribution(accepted_targets, law)

    def test_lower_bound_pre_accepts_everything_at_envelope(self, setup):
        graph, tables, walkers = setup
        counters = SamplingCounters()
        ctx = gather_stage(
            tables, walkers, np.arange(6),
            np.full(5, 0.5), np.full(5, 0.5),  # lower == upper
        )
        outcome = batch_trial_round(
            graph, tables, HalfAndOne(), walkers, ctx,
            np.random.default_rng(2), counters, KernelScratch(),
        )
        assert outcome.accepted.all()
        assert counters.pd_evaluations == 0
        assert counters.pre_accepts == 6


class TestFullScan:
    def test_distribution_and_count(self, setup):
        graph, tables, walkers = setup
        mass, evaluations = full_scan_distribution(
            graph, tables, HalfAndOne(), walkers, 0
        )
        assert evaluations == 4
        np.testing.assert_allclose(mass, [1.0, 0.5, 1.0, 0.5])
        total, evaluations2 = full_scan_distribution(
            graph, tables, HalfAndOne(), walkers, 0
        )
        assert total.sum() == pytest.approx(3.0)
        assert evaluations2 == 4

    def test_zero_static_edges_skipped(self):
        graph = from_edges(3, [(0, 1), (0, 2)])
        tables = VertexAliasTables(graph, np.array([0.0, 2.0]))
        walkers = WalkerSet(np.zeros(1, dtype=np.int64))
        mass, evaluations = full_scan_distribution(
            graph, tables, HalfAndOne(), walkers, 0
        )
        assert evaluations == 1  # the zero-mass edge was not evaluated
        assert mass[0] == 0.0
