"""Unit tests for walk configuration."""

import numpy as np
import pytest

from repro.core.config import DEFAULT_WALK_LENGTH, WalkConfig
from repro.errors import ConfigError

from tests.helpers import diamond_graph


class TestValidation:
    def test_defaults(self):
        config = WalkConfig()
        assert config.max_steps == DEFAULT_WALK_LENGTH == 80
        assert config.termination_probability == 0.0

    def test_bad_walker_count(self):
        with pytest.raises(ConfigError):
            WalkConfig(num_walkers=0)

    def test_bad_max_steps(self):
        with pytest.raises(ConfigError):
            WalkConfig(max_steps=-1)

    def test_bad_termination_probability(self):
        with pytest.raises(ConfigError):
            WalkConfig(termination_probability=1.5)
        with pytest.raises(ConfigError):
            WalkConfig(termination_probability=-0.1)

    def test_unbounded_walk_rejected(self):
        with pytest.raises(ConfigError):
            WalkConfig(max_steps=None, termination_probability=0.0)

    def test_unbounded_with_termination_allowed(self):
        WalkConfig(max_steps=None, termination_probability=0.1)

    def test_bad_sampler_name(self):
        # Alias is the one static sampler: the field is gone, no shim.
        with pytest.raises(TypeError, match="static_sampler"):
            WalkConfig(static_sampler="its")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_walkers", 2.5),
            ("walks_per_vertex", 1.5),
            ("max_steps", 2.5),
            ("max_steps", 3.0),
            ("seed", 2.5),
            ("seed", "7"),
        ],
    )
    def test_fractional_count_is_refused_not_rounded(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            WalkConfig(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=np.int64(3), max_steps=np.int32(2), seed=np.uint64(5)
        )
        assert config.resolve_starts(graph).tolist() == [0, 1, 2]
        per_vertex = WalkConfig(walks_per_vertex=np.int16(2))
        assert per_vertex.resolve_num_walkers(graph) == 8

    def test_negative_seed_is_a_config_error(self):
        # numpy's SeedSequence would otherwise raise a bare ValueError
        # from inside the engine constructor.
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            WalkConfig(seed=-1)
        WalkConfig(seed=2**40)


class TestResolution:
    def test_default_walker_count_is_num_vertices(self):
        graph = diamond_graph()
        assert WalkConfig().resolve_num_walkers(graph) == 4

    def test_default_starts_round_robin(self):
        """Paper: the i-th walker starts at vertex i mod |V|."""
        graph = diamond_graph()
        starts = WalkConfig(num_walkers=10).resolve_starts(graph)
        assert starts.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_explicit_starts(self):
        graph = diamond_graph()
        starts = WalkConfig(
            num_walkers=3, start_vertices=np.array([2, 2, 0])
        ).resolve_starts(graph)
        assert starts.tolist() == [2, 2, 0]

    def test_explicit_starts_wrong_count(self):
        graph = diamond_graph()
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=2, start_vertices=np.array([0])
            ).resolve_starts(graph)

    def test_explicit_starts_out_of_range(self):
        graph = diamond_graph()
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=1, start_vertices=np.array([9])
            ).resolve_starts(graph)


class TestWalksPerVertex:
    def test_resolves_to_gamma_times_v(self):
        graph = diamond_graph()
        config = WalkConfig(walks_per_vertex=3, max_steps=5)
        assert config.resolve_num_walkers(graph) == 12
        starts = config.resolve_starts(graph)
        # Round-robin default: exactly gamma starts per vertex.
        assert np.bincount(starts, minlength=4).tolist() == [3, 3, 3, 3]

    def test_mutually_exclusive_with_num_walkers(self):
        with pytest.raises(ConfigError):
            WalkConfig(num_walkers=5, walks_per_vertex=2)

    def test_must_be_positive(self):
        with pytest.raises(ConfigError):
            WalkConfig(walks_per_vertex=0)

    def test_deepwalk_config_helper(self):
        from repro.algorithms import deepwalk_config

        graph = diamond_graph()
        config = deepwalk_config(walks_per_vertex=10, walk_length=7)
        assert config.resolve_num_walkers(graph) == 40
        assert config.max_steps == 7


class TestStartDistribution:
    def test_sampled_from_weights(self):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=8000,
            start_distribution=np.array([0.0, 0.5, 0.5, 0.0]),
            seed=1,
        )
        starts = config.resolve_starts(graph)
        counts = np.bincount(starts, minlength=4)
        assert counts[0] == 0 and counts[3] == 0
        assert abs(counts[1] - counts[2]) < 500

    def test_deterministic_per_seed(self):
        graph = diamond_graph()
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        first = WalkConfig(
            num_walkers=100, start_distribution=weights, seed=5
        ).resolve_starts(graph)
        second = WalkConfig(
            num_walkers=100, start_distribution=weights, seed=5
        ).resolve_starts(graph)
        np.testing.assert_array_equal(first, second)

    def test_mutually_exclusive_with_explicit_starts(self):
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=1,
                start_vertices=np.array([0]),
                start_distribution=np.ones(4),
            )

    def test_wrong_size(self):
        graph = diamond_graph()
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=1, start_distribution=np.ones(3)
            ).resolve_starts(graph)

    def test_invalid_weights(self):
        graph = diamond_graph()
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=1, start_distribution=np.array([-1.0, 1, 1, 1])
            ).resolve_starts(graph)
        with pytest.raises(ConfigError):
            WalkConfig(
                num_walkers=1, start_distribution=np.zeros(4)
            ).resolve_starts(graph)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_names_the_vertex(self, bad):
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=5, start_distribution=np.array([1.0, 0.5, bad, 2.0])
        )
        with pytest.raises(ConfigError, match="weight of vertex 2 is not finite"):
            config.resolve_starts(graph)

    def test_engine_uses_distribution(self):
        from repro.algorithms import UniformWalk
        from repro.core.engine import WalkEngine

        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=200,
            max_steps=1,
            record_paths=True,
            start_distribution=np.array([1.0, 0.0, 0.0, 0.0]),
            seed=2,
        )
        result = WalkEngine(graph, UniformWalk(), config).run()
        assert all(path[0] == 0 for path in result.paths)
