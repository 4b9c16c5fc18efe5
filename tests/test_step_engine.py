"""The superstep loop and its one round hook.

Every engine runs the same superstep body — Gather once, then
``_trial_round`` once (trial pacing) or until every lane resolved (step
pacing) — and differs only in its ``_trial_round`` override.  The
bit-level contract of that loop is pinned by the golden digests in
``tests/test_golden_walks.py``; this file covers what surrounds it: the
partial-result paths (pause/cancel), the unsorted-lane guard fix, the
scalar guard's use of the move hook, and the distributed engine's
rejection of scalar-only programs.
"""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, MetaPathWalk, Node2Vec
from repro.baselines.full_scan import FullScanWalkEngine
from repro.baselines.gemini import GeminiWalkEngine
from repro.baselines.typed_metapath import TypedMetaPathWalkEngine
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine, ZERO_MASS_GUARD_TRIALS
from repro.core.program import WalkerProgram
from repro.errors import ProgramError
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from repro.service import CancelToken


def plain_graph():
    return uniform_degree_graph(150, 6, seed=1, undirected=True)


def typed_graph():
    return assign_random_edge_types(
        uniform_degree_graph(150, 6, seed=1, undirected=True), 4, seed=2
    )


# (program factory, graph factory) per family; fresh instances per
# engine so no hidden program state can leak between two runs.
PROGRAMS = {
    "deepwalk": (DeepWalk, plain_graph),
    "node2vec": (lambda: Node2Vec(p=2.0, q=0.5, biased=False), plain_graph),
    "metapath": (lambda: MetaPathWalk([[0, 1, 2], [2, 3]]), typed_graph),
}


def run_walk(name, *, nodes=0, seed=9, **run_kwargs):
    make_program, make_graph = PROGRAMS[name]
    graph = make_graph()
    config = WalkConfig(
        num_walkers=120, max_steps=12, record_paths=True, seed=seed
    )
    if nodes > 0:
        engine = DistributedWalkEngine(
            graph, make_program(), config, num_nodes=nodes
        )
    else:
        engine = WalkEngine(graph, make_program(), config)
    return engine.run(**run_kwargs)


class TestOneLoopOneHook:
    def test_subclasses_override_only_the_round(self):
        baselines = (FullScanWalkEngine, TypedMetaPathWalkEngine, GeminiWalkEngine)
        for engine_class in baselines:
            assert "_trial_round" in vars(engine_class)
        # The distributed engine not even that: its query exchange is
        # the inherited round's Pd evaluator.
        assert DistributedWalkEngine._trial_round is WalkEngine._trial_round
        assert "_main_dynamic_comp" in vars(DistributedWalkEngine)
        for engine_class in baselines + (DistributedWalkEngine,):
            assert engine_class._move_walkers is WalkEngine._move_walkers


class TestPartialResults:
    @pytest.mark.parametrize("name", ["deepwalk", "node2vec"])
    def test_pause_yields_identical_partials(self, name):
        """A paused run is a prefix of the uninterrupted one."""
        paused = run_walk(name, max_iterations=4)
        full = run_walk(name)
        assert paused.status == "paused" and full.status == "complete"
        for short, whole in zip(paused.paths, full.paths):
            np.testing.assert_array_equal(short, whole[: len(short)])
        assert paused.stats.total_steps == sum(
            len(path) - 1 for path in paused.paths
        )
        assert 0 < paused.stats.total_steps < full.stats.total_steps

    def test_cancel_token_stops_step_engine(self):
        token = CancelToken()
        token.cancel()
        result = run_walk("deepwalk", cancel=token)
        assert result.status == "cancelled"
        # Partial results stay well-formed: one recorded start vertex
        # per walker, zero steps executed.
        assert result.stats.total_steps == 0
        assert len(result.paths) == result.walkers.num_walkers


class TestGuardLanes:
    def test_commit_round_guards_unsorted_lanes(self):
        """`_commit_round` must guard by *lane*, not by sorted id.

        Lane 0 holds walker 1 (accepted) and lane 1 holds walker 0
        (rejected, streak at the threshold): only walker 0 may be
        guard-killed.
        """
        from repro.graph.builder import from_edges
        from tests.test_multi_trial import StuckAtZero as StuckProgram

        graph = from_edges(2, [(0, 1), (1, 0)])
        engine = WalkEngine(
            graph, StuckProgram(), WalkConfig(num_walkers=2, seed=3)
        )
        engine.walkers.current[:] = [0, 1]
        engine._rejection_streak[:] = ZERO_MASS_GUARD_TRIALS - 1
        walker_ids = np.array([1, 0], dtype=np.int64)
        accepted = np.array([True, False])
        edges = np.zeros(2, dtype=np.int64)
        edges[0] = graph.edge_range(1)[0]  # walker 1 takes edge 1->0
        moved = engine._commit_round(walker_ids, accepted, edges)
        assert moved.all()
        assert bool(engine.walkers.alive[1])
        assert not bool(engine.walkers.alive[0])
        assert engine.stats.termination.by_dead_end == 1

    def test_step_mode_guard_resolves_dead_end(self):
        from repro.graph.builder import from_edges
        from tests.test_multi_trial import StuckAtZero as StuckProgram

        graph = from_edges(2, [(0, 1), (1, 0)])
        engine = WalkEngine(
            graph, StuckProgram(),
            WalkConfig(num_walkers=1, max_steps=10, seed=5),
        )
        engine.walkers.current[:] = [0]
        result = engine.run()
        assert result.stats.termination.by_dead_end == 1


class RarelyAccepts(WalkerProgram):
    """Scalar-only program whose Pd sits far below its envelope, so
    walkers reach the zero-mass guard with positive mass and the guard
    moves them by an exact draw."""

    dynamic = True

    def dynamic_upper_bound(self, graph, vertex):
        return 1.0

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return 1e-9


class CountingEngine(WalkEngine):
    def __init__(self, *args, **kwargs):
        self.hook_moves = 0
        super().__init__(*args, **kwargs)

    def _commit_moves(self, movers, targets):
        self.hook_moves += movers.size
        super()._commit_moves(movers, targets)


class TestScalarGuardUsesMoveHook:
    def test_guard_moves_go_through_commit_moves(self):
        """An engine overriding ``_commit_moves`` must see the scalar
        guard's moves too (they used to be applied inline)."""
        engine = CountingEngine(
            plain_graph(),
            RarelyAccepts(),
            WalkConfig(num_walkers=3, max_steps=2, seed=1, record_paths=True),
        )
        result = engine.run()
        assert result.stats.full_scan_evaluations > 0  # the guard fired
        assert result.stats.total_steps == 6
        assert engine.hook_moves == result.stats.total_steps
        assert [len(path) for path in result.paths] == [3, 3, 3]


class TestDistributedRejectsScalarPrograms:
    def test_construction_fails_before_touching_walker_state(self):
        calls = []

        class ScalarOnly(RarelyAccepts):
            def setup_walkers(self, graph, walkers, rng):
                calls.append("setup_walkers")

        with pytest.raises(ProgramError, match="supports_batch"):
            DistributedWalkEngine(
                plain_graph(), ScalarOnly(), WalkConfig(num_walkers=4),
                num_nodes=2,
            )
        assert calls == []
        # The local engine still runs scalar-only programs.
        WalkEngine(plain_graph(), ScalarOnly(), WalkConfig(num_walkers=4))
        assert calls == ["setup_walkers"]
