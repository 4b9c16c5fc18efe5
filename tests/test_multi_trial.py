"""Equivalence and accounting tests for fused (multi-trial) rounds.

A fused round — ``batch_trial_round`` over ``ctx.repeat(K)`` reduced by
``first_accepts`` (``tests.helpers.widened_round``) — must sample the
*same law* as the scalar ``RejectionSampler`` and the plain
``batch_trial_round`` (checked by chi-square against the exactly
enumerated node2vec law, with outlier folding both on and off), and its
counters must add up identically in expectation (trials, Pd
evaluations, pre-accepts per accepted move).
"""

import numpy as np
import pytest

from repro.algorithms import Node2Vec
from repro.core.engine import WalkEngine, ZERO_MASS_GUARD_TRIALS
from repro.core.config import WalkConfig
from repro.core.kernels import (
    GatherContext,
    KernelScratch,
    TRIAL_FUSION_MAX,
    TRIAL_FUSION_MIN,
    adaptive_trial_count,
    batch_trial_round,
    gather_stage,
)
from repro.core.program import WalkerProgram
from repro.core.walker import WalkerSet
from repro.graph.builder import from_edges
from repro.sampling.alias import VertexAliasTables
from repro.sampling.rejection import RejectionSampler, SamplingCounters

from tests.helpers import (
    assert_matches_distribution,
    diamond_graph,
    exact_node2vec_law,
    widened_round,
)
from tests.test_path_recording import WORKLOADS, make_engine

CURRENT, PREVIOUS = 1, 0


def node2vec_setup(p, q, count=2000):
    """Walkers standing at vertex 1 of the diamond, arrived from 0."""
    graph = diamond_graph()
    program = Node2Vec(p=p, q=q, biased=False)
    tables = VertexAliasTables(graph)
    walkers = WalkerSet(np.full(count, PREVIOUS, dtype=np.int64))
    ids = np.arange(count)
    walkers.move(ids, np.full(count, CURRENT, dtype=np.int64))
    ctx = gather_stage(
        tables,
        walkers,
        ids,
        program.upper_bound_array(graph),
        program.lower_bound_array(graph),
    )
    return graph, program, tables, walkers, ctx


def multi_trial_targets(p, q, num_trials, seed, min_samples=30_000):
    graph, program, tables, walkers, ctx = node2vec_setup(p, q)
    rng = np.random.default_rng(seed)
    counters = SamplingCounters()
    scratch = KernelScratch()
    targets = []
    while len(targets) < min_samples:
        (accepted, edges, _, _), _ = widened_round(
            graph, tables, program, walkers, ctx, rng, counters, scratch,
            num_trials=num_trials, validate_bounds=True,
        )
        targets.extend(graph.targets[edges[accepted]].tolist())
    return targets, counters


class TestDistributionalEquivalence:
    @pytest.mark.parametrize(
        "p,q,folding",
        [
            (2.0, 0.5, False),  # the paper-default workload; no folding
            (0.2, 2.0, True),  # return_pd = 5 towers over envelope 1
        ],
    )
    @pytest.mark.parametrize("num_trials", [2, 5])
    def test_matches_exact_law(self, p, q, folding, num_trials):
        targets, _ = multi_trial_targets(p, q, num_trials, seed=17)
        graph = diamond_graph()
        program = Node2Vec(p=p, q=q, biased=False)
        assert program.folding is folding
        law = exact_node2vec_law(graph, CURRENT, PREVIOUS, p, q, biased=False)
        assert_matches_distribution(targets, law)

    @pytest.mark.parametrize("p,q", [(2.0, 0.5), (0.2, 2.0)])
    def test_matches_scalar_sampler(self, p, q):
        """Scalar reference and fused kernel agree on the sampled law."""
        graph, program, tables, walkers, *_ = node2vec_setup(p, q, count=1)
        sampler = RejectionSampler(tables)
        rng = np.random.default_rng(23)
        counters = SamplingCounters()
        view = walkers.view(0)
        outliers = program.outlier_specs(graph, view)

        def pd_of(edge_index):
            return program.edge_dynamic_comp(graph, view, edge_index, None)

        scalar_targets = []
        while len(scalar_targets) < 30_000:
            edge = sampler.try_once(
                CURRENT, rng, pd_of, program.envelope, program.floor,
                outliers, counters,
            )
            if edge is not None:
                scalar_targets.append(int(graph.targets[edge]))

        law = exact_node2vec_law(graph, CURRENT, PREVIOUS, p, q, biased=False)
        assert_matches_distribution(scalar_targets, law)
        fused_targets, _ = multi_trial_targets(p, q, num_trials=4, seed=29)
        assert_matches_distribution(fused_targets, law)


class TestCountersConsistency:
    @pytest.mark.parametrize("p,q", [(2.0, 0.5), (0.2, 2.0)])
    def test_per_accept_work_matches_single_trial(self, p, q):
        """trials / Pd evaluations / pre-accepts per accepted move agree
        between the single-trial and fused kernels in expectation."""
        graph, program, tables, walkers, ctx = node2vec_setup(
            p, q, count=4000
        )
        scratch = KernelScratch()

        def run(kernel):
            rng = np.random.default_rng(31)
            counters = SamplingCounters()
            while counters.accepts < 50_000:
                kernel(rng, counters)
            return counters

        single = run(
            lambda rng, counters: batch_trial_round(
                graph, tables, program, walkers, ctx, rng, counters, scratch
            )
        )
        fused = run(
            lambda rng, counters: widened_round(
                graph, tables, program, walkers, ctx, rng, counters, scratch,
                num_trials=5,
            )
        )
        for field in ("trials", "pd_evaluations", "pre_accepts",
                      "appendix_trials"):
            single_rate = getattr(single, field) / single.accepts
            fused_rate = getattr(fused, field) / fused.accepts
            assert single_rate == pytest.approx(fused_rate, rel=0.05, abs=0.01), (
                f"{field}: single-trial {single_rate:.4f} vs fused "
                f"{fused_rate:.4f} per accept"
            )

    def test_outcome_bookkeeping_invariants(self):
        graph, program, tables, walkers, ctx = node2vec_setup(
            0.2, 2.0, count=500
        )
        rng = np.random.default_rng(37)
        counters = SamplingCounters()
        (accepted, edges, trials_used, pd_used), cells = widened_round(
            graph, tables, program, walkers, ctx, rng, counters,
            KernelScratch(), num_trials=6,
        )
        assert cells.accepted.size == 6 * accepted.size
        assert np.all((trials_used >= 1) & (trials_used <= 6))
        # Rejected walkers consumed the full speculation budget.
        assert np.all(trials_used[~accepted] == 6)
        assert np.all(edges[~accepted] == -1)
        assert np.all(edges[accepted] >= 0)
        assert np.all(pd_used <= trials_used)
        assert counters.trials == int(trials_used.sum())
        assert counters.pd_evaluations == int(pd_used.sum())
        assert counters.accepts == int(accepted.sum())

    def test_rejects_non_positive_trial_count(self):
        graph, program, tables, walkers, ctx = node2vec_setup(
            2.0, 0.5, count=4
        )
        with pytest.raises(ValueError):
            widened_round(
                graph, tables, program, walkers, ctx,
                np.random.default_rng(0), SamplingCounters(), KernelScratch(),
                num_trials=0,
            )


class TestAdaptiveTrialCount:
    def test_no_data_uses_floor(self):
        assert adaptive_trial_count(SamplingCounters()) == TRIAL_FUSION_MIN

    def test_high_acceptance_stays_at_floor(self):
        counters = SamplingCounters(trials=1000, accepts=950)
        assert adaptive_trial_count(counters) == TRIAL_FUSION_MIN

    def test_low_acceptance_speculates_more(self):
        mid = adaptive_trial_count(SamplingCounters(trials=1000, accepts=300))
        low = adaptive_trial_count(SamplingCounters(trials=1000, accepts=50))
        assert TRIAL_FUSION_MIN < mid < low <= TRIAL_FUSION_MAX

    def test_zero_acceptance_clamps_to_ceiling(self):
        counters = SamplingCounters(trials=1000, accepts=0)
        assert adaptive_trial_count(counters) == TRIAL_FUSION_MAX


class StuckAtZero(WalkerProgram):
    """Pd = 0 for walkers standing at vertex 0, 1 elsewhere."""

    dynamic = True
    supports_batch = True

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return 0.0 if walker.current == 0 else 1.0

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return np.where(
            walkers.current[walker_ids] == 0, 0.0, 1.0
        ).astype(np.float64)


class SecondOrderStuckAtZero(StuckAtZero):
    """The same Pd, trial-paced: its rounds are never fused."""

    order = 2


class TestGuardIntegration:
    @pytest.mark.parametrize("fuse", [False, True])
    def test_unsorted_walker_ids_guard_correct_lane(self, fuse):
        """The guard must flag the guarded walker's *lane*, not the
        position a sorted-array search would guess (satellite fix)."""
        graph = from_edges(2, [(0, 1), (1, 0)])
        program = StuckAtZero() if fuse else SecondOrderStuckAtZero()
        engine = WalkEngine(graph, program, WalkConfig(num_walkers=2, seed=3))
        assert engine._fuse is fuse
        # Walker 0 stands at vertex 0 (all Pd zero), walker 1 at 1.
        engine.walkers.current[:] = [0, 1]
        engine._rejection_streak[:] = ZERO_MASS_GUARD_TRIALS - 1
        # Deliberately unsorted: lane 0 holds walker 1.
        moved = engine._trial_round(
            engine._gather(np.array([1, 0], dtype=np.int64))
        )
        assert moved.all()
        # Walker 1 moved normally; walker 0 was killed by the guard.
        assert bool(engine.walkers.alive[1])
        assert not bool(engine.walkers.alive[0])
        assert engine.stats.termination.by_dead_end == 1

    def test_streak_advances_by_trials_consumed(self):
        """Fused rounds reach the guard after the same *trial* budget as
        single-trial rounds, in ~K-fold fewer rounds."""
        graph = from_edges(2, [(0, 1), (1, 0)])
        engine = WalkEngine(
            graph, StuckAtZero(), WalkConfig(num_walkers=1, max_steps=10, seed=5)
        )
        engine.walkers.current[:] = [0]
        result = engine.run()
        # The step-mode loop retries within one iteration until the
        # guard resolves the stuck walker as a dead end.
        assert result.stats.termination.by_dead_end == 1
        assert result.stats.iterations == 1
        assert result.stats.counters.trials >= ZERO_MASS_GUARD_TRIALS
        assert engine._rejection_streak[0] == 0


@pytest.mark.parametrize("nodes", [0, 4], ids=["local", "4node"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fusion_engages_only_on_step_paced_dynamic_programs(
    name, nodes, monkeypatch
):
    """The program decides: Meta-path (dynamic, step-paced) widens its
    rounds; node2vec is trial-paced, DeepWalk, PPR and RWR are static,
    so none of them ever widens a round, on either engine."""
    widths = []
    repeat = GatherContext.repeat

    def counting(ctx, k):
        widths.append(k)
        return repeat(ctx, k)

    monkeypatch.setattr(GatherContext, "repeat", counting)
    engine = make_engine(name, nodes=nodes)
    engine.run()
    fused = name == "metapath"
    assert engine._fuse is fused
    assert bool(widths) is fused
    assert all(k >= TRIAL_FUSION_MIN for k in widths)
