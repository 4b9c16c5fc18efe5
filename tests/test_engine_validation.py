"""Engine robustness: debug validation and configuration corner cases."""

import numpy as np
import pytest

from repro.algorithms import Node2Vec, PPR, UniformWalk
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import ProgramError
from repro.graph.generators import uniform_degree_graph


@pytest.fixture
def graph():
    return uniform_degree_graph(100, 5, seed=0, undirected=True)


class TestValidateBounds:
    def test_correct_program_passes(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10)
        result = WalkEngine(
            graph,
            Node2Vec(p=0.5, q=2.0, biased=False),
            config,
            validate_bounds=True,
        ).run()
        assert result.stats.total_steps == 400

    def test_violating_program_raises(self, graph):
        class Liar(Node2Vec):
            """Declares an envelope its Pd then ignores."""

            def upper_bound_array(self, graph):
                return np.full(graph.num_vertices, 0.5)

            def lower_bound_array(self, graph):
                return np.zeros(graph.num_vertices)

        config = WalkConfig(num_walkers=40, max_steps=10)
        engine = WalkEngine(
            graph,
            Liar(p=1.0, q=1.0, biased=False),  # true Pd is 1 > 0.5
            config,
            validate_bounds=True,
        )
        with pytest.raises(ProgramError):
            engine.run()

    def test_violation_silent_without_flag(self, graph):
        """Documents the trade-off: without validation the run
        completes (with a wrong law) instead of raising."""

        class Liar(Node2Vec):
            def upper_bound_array(self, graph):
                return np.full(graph.num_vertices, 0.5)

            def lower_bound_array(self, graph):
                return np.zeros(graph.num_vertices)

        config = WalkConfig(num_walkers=10, max_steps=5)
        result = WalkEngine(
            graph, Liar(p=1.0, q=1.0, biased=False), config
        ).run()
        assert result.stats.total_steps == 50

    def test_declared_outlier_above_envelope_is_legal(self, graph):
        """node2vec's folded return edge exceeds the envelope by
        design; validation must not flag it."""
        config = WalkConfig(num_walkers=40, max_steps=10)
        result = WalkEngine(
            graph,
            Node2Vec(p=0.25, q=1.0, biased=False),  # folding active
            config,
            validate_bounds=True,
        ).run()
        assert result.stats.total_steps == 400


class TestDistributedValidateBounds:
    def test_distributed_violation_raises(self, graph):
        class Liar(Node2Vec):
            def upper_bound_array(self, graph):
                return np.full(graph.num_vertices, 0.5)

            def lower_bound_array(self, graph):
                return np.zeros(graph.num_vertices)

        config = WalkConfig(num_walkers=40, max_steps=10)
        engine = DistributedWalkEngine(
            graph,
            Liar(p=1.0, q=1.0, biased=False),
            config,
            num_nodes=2,
            validate_bounds=True,
        )
        with pytest.raises(ProgramError):
            engine.run()

    def test_distributed_correct_program_passes(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10)
        result = DistributedWalkEngine(
            graph,
            Node2Vec(p=0.25, q=1.0, biased=False),  # folding active
            config,
            num_nodes=2,
            validate_bounds=True,
        ).run()
        assert result.stats.total_steps == 400


class TestConfigurationCorners:
    def test_both_termination_mechanisms(self, graph):
        """max_steps caps walks even under a termination coin."""
        config = WalkConfig(
            num_walkers=500,
            max_steps=12,
            termination_probability=0.05,
            seed=1,
        )
        result = WalkEngine(graph, PPR(), config).run()
        assert result.walk_lengths.max() <= 12
        breakdown = result.stats.termination
        assert breakdown.by_step_limit > 0
        assert breakdown.by_probability > 0
        assert breakdown.total == 500

    def test_start_distribution_distributed(self, graph):
        weights = np.zeros(graph.num_vertices)
        weights[:10] = 1.0
        config = WalkConfig(
            num_walkers=50,
            max_steps=5,
            start_distribution=weights,
            record_paths=True,
            seed=2,
        )
        result = DistributedWalkEngine(
            graph, UniformWalk(), config, num_nodes=4
        ).run()
        assert all(path[0] < 10 for path in result.paths)

    def test_single_walker(self, graph):
        config = WalkConfig(num_walkers=1, max_steps=30, record_paths=True)
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert len(result.paths) == 1
        assert len(result.paths[0]) == 31

    def test_zero_max_steps(self, graph):
        config = WalkConfig(num_walkers=5, max_steps=0, record_paths=True)
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert all(len(path) == 1 for path in result.paths)
        assert result.stats.total_steps == 0
