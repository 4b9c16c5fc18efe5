"""Integration tests for the single-process walk engine."""

import numpy as np
import pytest

from repro.algorithms import (
    PPR,
    DeepWalk,
    MetaPathWalk,
    Node2Vec,
    NonBacktrackingWalk,
    UniformWalk,
    WindowedSelfAvoidingWalk,
)
from repro.baselines.mixed import MixedNode2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import GraphError, ProgramError
from repro.graph.builder import assign_random_weights, from_edges
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from repro.graph.prepared import PreparedGraph
from repro.sampling.alias import VertexAliasTables
from repro.sampling.tables import unit_weights

from tests.helpers import diamond_graph, two_triangle_graph
from tests.test_parallel import assert_tables_equal


def assert_paths_valid(graph, paths):
    """Every consecutive path pair must be a stored edge."""
    for path in paths:
        for source, target in zip(path[:-1], path[1:]):
            assert graph.has_edge(int(source), int(target)), (
                f"walk used non-edge {source} -> {target}"
            )


@pytest.fixture
def graph():
    return uniform_degree_graph(200, 6, seed=0, undirected=True)


class TestBasicExecution:
    def test_fixed_length_walks(self, graph):
        config = WalkConfig(num_walkers=50, max_steps=15, record_paths=True)
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert all(len(path) == 16 for path in result.paths)
        assert_paths_valid(graph, result.paths)
        assert result.stats.total_steps == 50 * 15
        assert result.stats.termination.by_step_limit == 50

    def test_default_walker_count_is_num_vertices(self, graph):
        result = WalkEngine(graph, UniformWalk(), WalkConfig(max_steps=2)).run()
        assert result.walkers.num_walkers == graph.num_vertices

    def test_deterministic_given_seed(self, graph):
        config = WalkConfig(num_walkers=20, max_steps=10, record_paths=True, seed=42)
        first = WalkEngine(graph, UniformWalk(), config).run()
        second = WalkEngine(graph, UniformWalk(), config).run()
        for a, b in zip(first.paths, second.paths):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, graph):
        base = dict(num_walkers=20, max_steps=10, record_paths=True)
        first = WalkEngine(graph, UniformWalk(), WalkConfig(seed=1, **base)).run()
        second = WalkEngine(graph, UniformWalk(), WalkConfig(seed=2, **base)).run()
        assert any(
            not np.array_equal(a, b) for a, b in zip(first.paths, second.paths)
        )

    def test_corpus_requires_recording(self, graph):
        result = WalkEngine(
            graph, UniformWalk(), WalkConfig(num_walkers=5, max_steps=3)
        ).run()
        assert result.paths is None
        with pytest.raises(ProgramError):
            result.corpus()


class TestPreparedGraph:
    """The ``graph`` argument also takes a PreparedGraph; the golden
    prepared axis (tests/test_golden_walks.py) covers the digests."""

    CONFIG = WalkConfig(num_walkers=20, max_steps=6, record_paths=True, seed=5)

    def test_one_default_table_is_shared_by_all_engines(self, graph):
        shared = PreparedGraph(graph)
        walk = WalkConfig(num_walkers=20, max_steps=6, seed=6)
        engines = [
            WalkEngine(shared, program, config)
            for program, config in (
                (DeepWalk(), self.CONFIG),
                (DeepWalk(), walk),
                (PPR(), walk),
                (Node2Vec(p=2.0, q=0.5), self.CONFIG),
            )
        ]
        assert all(engine.tables is shared.tables("alias") for engine in engines)
        with pytest.raises(GraphError, match="unknown sampler-table kind 'its'"):
            shared.tables("its")

    # Programs whose Ps is unit_weights: the default Ps of an unweighted
    # graph under another name.
    UNIT_PS = {
        "uniform": UniformWalk,
        "node2vec-unbiased": lambda: Node2Vec(p=2.0, q=0.5, biased=False),
        "node2vec-mixed": lambda: MixedNode2Vec(p=2.0, q=0.5),
        "avoiding-unbiased": lambda: WindowedSelfAvoidingWalk(biased=False),
        "nonbacktracking-unbiased": lambda: NonBacktrackingWalk(biased=False),
    }

    def test_a_programs_own_static_component_is_built_per_engine(self, graph):
        """On a weighted graph ``unit_weights`` is not the default Ps."""
        weighted = PreparedGraph(assign_random_weights(graph, seed=1))
        for make in self.UNIT_PS.values():
            first = WalkEngine(weighted, make(), self.CONFIG)
            second = WalkEngine(weighted, make(), self.CONFIG)
            assert first.tables is not second.tables
            assert first.tables is not weighted.tables("alias")
        first = WalkEngine(weighted, UniformWalk(), self.CONFIG)
        np.testing.assert_array_equal(
            first.run().paths, WalkEngine(weighted.graph, UniformWalk(), self.CONFIG).run().paths
        )

    @pytest.mark.parametrize("name", sorted(UNIT_PS))
    def test_unit_weights_share_the_default_table_when_unweighted(self, graph, name):
        shared = PreparedGraph(graph)
        first = WalkEngine(shared, self.UNIT_PS[name](), self.CONFIG)
        second = WalkEngine(shared, self.UNIT_PS[name](), self.CONFIG)
        assert first.tables is second.tables is shared.tables("alias")
        assert_tables_equal(
            first.tables, VertexAliasTables(graph, unit_weights(graph.num_edges))
        )

    def test_a_wrapped_graph_reports_no_epoch(self, graph):
        stats = WalkEngine(PreparedGraph(graph), DeepWalk(), self.CONFIG).run().stats
        assert stats.graph_epoch is None and stats.maintenance is None


class TestTermination:
    def test_geometric_termination_length(self, graph):
        probability = 0.2
        config = WalkConfig(
            num_walkers=3000,
            max_steps=None,
            termination_probability=probability,
            seed=3,
        )
        result = WalkEngine(graph, PPR(), config).run()
        # E[steps] = (1 - p) / p for a per-step stop coin before moving.
        expected = (1 - probability) / probability
        assert result.walk_lengths.mean() == pytest.approx(expected, rel=0.1)
        assert result.stats.termination.by_probability == 3000

    def test_dead_end_terminates_walk(self):
        graph = from_edges(3, [(0, 1), (1, 2)])  # 2 is a sink
        config = WalkConfig(num_walkers=4, max_steps=10, record_paths=True)
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert result.stats.termination.by_dead_end >= 1
        # Walker starting at 0 deterministically reaches the sink.
        assert result.paths[0].tolist() == [0, 1, 2]

    def test_walker_starting_at_dead_end(self):
        graph = from_edges(2, [(0, 1)])
        config = WalkConfig(
            num_walkers=2, max_steps=5, record_paths=True
        )  # walker 1 starts at vertex 1 (sink)
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert result.paths[1].tolist() == [1]

    def test_custom_should_continue(self, graph):
        class Homesick(UniformWalk):
            """Stops as soon as it lands on an even vertex."""

            def should_continue(self, graph, walker):
                return walker.step == 0 or walker.current % 2 == 1

        class BatchHomesick(UniformWalk):
            """The same rule through the batch hook alone."""

            def batch_should_continue(self, graph, walkers, walker_ids):
                return (walkers.steps[walker_ids] == 0) | (
                    walkers.current[walker_ids] % 2 == 1
                )

        class Kills(list):
            def on_kills(self, walker_ids):
                self.append(walker_ids.tolist())

        def walk(program):
            kills = Kills()
            config = WalkConfig(num_walkers=40, max_steps=50, record_paths=True)
            engine = WalkEngine(graph, program, config)
            engine.observe(kills)
            return engine.run(), kills

        result, kills = walk(Homesick())
        for path in result.paths:
            if len(path) > 1:
                for vertex in path[1:-1]:
                    assert vertex % 2 == 1
        assert result.stats.termination.by_step_limit == 40
        assert result.stats.iterations < 50  # the hook ended them, not max_steps

        twin, twin_kills = walk(BatchHomesick())
        assert twin_kills == kills
        assert twin.stats.termination == result.stats.termination
        assert [p.tolist() for p in twin.paths] == [p.tolist() for p in result.paths]


class TestStatsConsistency:
    def test_counter_relationships(self, graph):
        config = WalkConfig(num_walkers=100, max_steps=20)
        engine = WalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config
        )
        stats = engine.run().stats
        counters = stats.counters
        assert counters.trials >= counters.accepts
        assert counters.accepts + 0 >= stats.total_steps - stats.full_scan_evaluations
        assert counters.pre_accepts + counters.pd_evaluations <= counters.trials + counters.appendix_trials
        assert stats.trials_per_step >= 1.0
        assert stats.iterations >= 20

    def test_static_walk_has_zero_pd_evaluations(self, graph):
        """Static programs morph into pure alias sampling."""
        config = WalkConfig(num_walkers=100, max_steps=20)
        stats = WalkEngine(graph, DeepWalk(), config).run().stats
        assert stats.counters.pd_evaluations == 0
        assert stats.pd_evaluations_per_step == 0.0
        assert stats.trials_per_step == pytest.approx(1.0)

    def test_active_per_iteration_monotone_for_fixed_length(self, graph):
        config = WalkConfig(num_walkers=50, max_steps=10)
        stats = WalkEngine(graph, UniformWalk(), config).run().stats
        actives = stats.active_per_iteration
        assert actives[0] == 50
        assert all(a >= b for a, b in zip(actives, actives[1:]))

    def test_summary_string(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5)
        stats = WalkEngine(graph, UniformWalk(), config).run().stats
        assert "steps=" in stats.summary()


class TestScalarBatchAgreement:
    def test_node2vec_scalar_batch_same_law(self):
        graph = two_triangle_graph()
        law_counts = {}
        for force_scalar in (False, True):
            config = WalkConfig(
                num_walkers=4000,
                max_steps=2,
                record_paths=True,
                seed=11,
                start_vertices=np.full(4000, 1),
            )
            engine = WalkEngine(
                graph,
                Node2Vec(p=0.5, q=2.0, biased=False),
                config,
                force_scalar=force_scalar,
            )
            result = engine.run()
            finals = [int(path[-1]) for path in result.paths]
            law_counts[force_scalar] = np.bincount(finals, minlength=5)
        scalar, batch = law_counts[True], law_counts[False]
        # Same law: the two histograms agree within sampling noise.
        total = scalar.sum()
        assert np.abs(scalar / total - batch / total).max() < 0.04

    def test_metapath_scalar_batch_same_dead_end_behaviour(self):
        graph = assign_random_edge_types(
            uniform_degree_graph(100, 4, seed=1, undirected=True), 4, seed=2
        )
        schemes = [[0, 1], [2, 3]]
        outcomes = {}
        for force_scalar in (False, True):
            config = WalkConfig(num_walkers=200, max_steps=6, seed=5)
            result = WalkEngine(
                graph, MetaPathWalk(schemes), config, force_scalar=force_scalar
            ).run()
            outcomes[force_scalar] = result.stats.termination.by_dead_end
        # Both paths hit dead-ends at comparable rates.
        assert abs(outcomes[True] - outcomes[False]) < 60


class TestWeightedBias:
    def test_transition_frequencies_follow_weights(self):
        # Vertex 0 with two out-edges of weight 1 and 3.
        graph = from_edges(3, [(0, 1, 1.0), (0, 2, 3.0)])
        config = WalkConfig(
            num_walkers=8000,
            max_steps=1,
            record_paths=True,
            start_vertices=np.zeros(8000, dtype=np.int64),
        )
        result = WalkEngine(graph, DeepWalk(), config).run()
        finals = np.array([path[-1] for path in result.paths])
        ratio = (finals == 2).sum() / (finals == 1).sum()
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_uniform_walk_ignores_weights(self):
        graph = from_edges(3, [(0, 1, 1.0), (0, 2, 100.0)])
        config = WalkConfig(
            num_walkers=4000,
            max_steps=1,
            record_paths=True,
            start_vertices=np.zeros(4000, dtype=np.int64),
        )
        result = WalkEngine(graph, UniformWalk(), config).run()
        finals = np.array([path[-1] for path in result.paths])
        share = (finals == 2).mean()
        assert share == pytest.approx(0.5, abs=0.05)


class TestBoundValidation:
    def test_lower_above_upper_rejected(self, graph):
        class Broken(Node2Vec):
            def lower_bound_array(self, graph):
                return np.full(graph.num_vertices, 10.0)

        with pytest.raises(ProgramError):
            WalkEngine(graph, Broken(p=2, q=2), WalkConfig(num_walkers=2))

    def test_nonpositive_upper_rejected(self, graph):
        class Broken(Node2Vec):
            def upper_bound_array(self, graph):
                return np.zeros(graph.num_vertices)

            def lower_bound_array(self, graph):
                return np.zeros(graph.num_vertices)

        with pytest.raises(ProgramError):
            WalkEngine(graph, Broken(), WalkConfig(num_walkers=2))

    @pytest.mark.parametrize(
        "upper, lower",
        [(np.nan, 0.5), (np.inf, 0.5), (2.0, np.nan), (np.nan, np.nan)],
    )
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_non_finite_bounds_are_refused_at_their_vertex(
        self, graph, upper, lower, dynamic
    ):
        """A NaN pair read as a flat envelope (every dart pre-accepted,
        no Pd evaluated) and an infinite envelope rejected forever."""
        from repro.graph.dynamic import DynamicGraph

        class Broken(Node2Vec):
            def upper_bound_array(self, graph):
                bounds = np.full(graph.num_vertices, 2.0)
                bounds[[7, 9]] = upper
                return bounds

            def lower_bound_array(self, graph):
                bounds = np.full(graph.num_vertices, 0.5)
                bounds[[7, 9]] = lower
                return bounds

        where = DynamicGraph(graph).snapshot() if dynamic else graph
        with pytest.raises(ProgramError, match="bounds at vertex 7 are not finite"):
            WalkEngine(where, Broken(p=2, q=0.5), WalkConfig(num_walkers=2))
