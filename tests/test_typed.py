"""Tests for per-edge-type tables and the typed Meta-path engine."""

import pickle

import numpy as np
import pytest

from repro.algorithms import MetaPathWalk, random_schemes
from repro.algorithms.metapath import SCHEME_STATE
from repro.baselines import TypedMetaPathWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import ProgramError, SamplingError
from repro.graph import load_dataset
from repro.graph.builder import assign_random_weights, from_edges
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from repro.sampling.tables import is_unit_weights
from repro.sampling.typed import TypedVertexAliasTables

from tests.helpers import assert_matches_distribution


@pytest.fixture
def typed_graph():
    graph = uniform_degree_graph(120, 6, seed=0, undirected=True)
    return assign_random_edge_types(graph, 3, seed=1)


class TestTypedTables:
    def test_requires_edge_types(self):
        graph = uniform_degree_graph(10, 2, seed=0)
        with pytest.raises(SamplingError):
            TypedVertexAliasTables(graph)

    def test_partition_covers_all_edges(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        # Disjoint type partitions: total entries == |E| (the paper's
        # "without increasing pre-processing overhead" point).
        assert tables.total_entries() == typed_graph.num_edges

    def test_per_type_distribution(self):
        graph = from_edges(
            5,
            [
                (0, 1, 1.0),
                (0, 2, 3.0),
                (0, 3, 2.0),
                (0, 4, 5.0),
            ],
        )
        from repro.graph.csr import CSRGraph

        typed = CSRGraph(
            graph.offsets,
            graph.targets,
            weights=graph.weights,
            edge_types=np.array([0, 0, 1, 1], dtype=np.int32),
        )
        tables = TypedVertexAliasTables(typed)
        rng = np.random.default_rng(2)
        type0_samples = [tables.sample(0, 0, rng) for _ in range(10_000)]
        assert_matches_distribution(type0_samples, np.array([1.0, 3.0, 0, 0]))
        type1_samples = [
            tables.sample(0, 1, rng) - 2 for _ in range(10_000)
        ]
        assert_matches_distribution(type1_samples, np.array([2.0, 5.0]))

    def test_totals_and_has_type(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        for vertex in range(0, 120, 13):
            start, end = typed_graph.edge_range(vertex)
            for edge_type in range(3):
                mask = typed_graph.edge_types[start:end] == edge_type
                expected = float(mask.sum())  # unweighted: count
                assert tables.total_static(vertex, edge_type) == expected
                assert tables.has_type(vertex, edge_type) == (expected > 0)
        assert not tables.has_type(0, 99)

    def test_missing_type_raises(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        rng = np.random.default_rng(3)
        with pytest.raises(SamplingError):
            tables.sample(0, 7, rng)

    def test_sample_batch_marks_missing(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        rng = np.random.default_rng(4)
        edges = tables.sample_batch(
            np.array([0, 0]), np.array([0, 7]), rng
        )
        assert edges[1] == -1

    def test_sample_batch_marks_negative_type(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        edges = tables.sample_batch(
            np.array([0]), np.array([-1]), np.random.default_rng(4)
        )
        assert edges[0] == -1

    def test_sample_batch_distribution_matches_scalar(self):
        """The vectorised batch draw samples each (vertex, type)
        group's law — checked against the same weighted partition the
        scalar test uses."""
        graph = from_edges(
            5, [(0, 1, 1.0), (0, 2, 3.0), (0, 3, 2.0), (0, 4, 5.0)]
        )
        from repro.graph.csr import CSRGraph

        typed = CSRGraph(
            graph.offsets,
            graph.targets,
            weights=graph.weights,
            edge_types=np.array([0, 0, 1, 1], dtype=np.int32),
        )
        tables = TypedVertexAliasTables(typed)
        rng = np.random.default_rng(6)
        half = 20_000
        vertices = np.zeros(2 * half, dtype=np.int64)
        types = np.repeat([0, 1], half)
        edges = tables.sample_batch(vertices, types, rng)
        assert np.all(edges >= 0)
        assert_matches_distribution(edges[:half], np.array([1.0, 3.0, 0, 0]))
        assert_matches_distribution(
            edges[half:] - 2, np.array([2.0, 5.0])
        )

    def test_sample_batch_empty(self, typed_graph):
        tables = TypedVertexAliasTables(typed_graph)
        edges = tables.sample_batch(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.random.default_rng(4),
        )
        assert edges.size == 0

    def test_pickled_unit_ps_stays_a_view(self):
        """The unit Ps crosses a pickle as its length, as the per-vertex
        tables' does: no 8 bytes per edge on the wire."""
        graph = assign_random_edge_types(load_dataset("livejournal", scale=0.05), 5, 1)
        tables = TypedVertexAliasTables(graph)
        wire = pickle.dumps(tables)
        copy = pickle.loads(wire)
        assert is_unit_weights(copy.static_weights)
        assert copy.static_weights.size == graph.num_edges
        for name in ("_flat_edges", "_flat_prob", "_flat_alias", "_totals"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(tables, name))
        owned = pickle.dumps(TypedVertexAliasTables(graph, np.ones(graph.num_edges)))
        assert len(wire) <= len(owned) - 8 * graph.num_edges + 1024

    def test_pickled_weighted_ps_is_kept(self, typed_graph):
        graph = assign_random_weights(typed_graph, seed=2)
        copy = pickle.loads(pickle.dumps(TypedVertexAliasTables(graph)))
        assert not is_unit_weights(copy.static_weights)
        np.testing.assert_array_equal(copy.static_weights, graph.weights)


class TestTypedMetaPathEngine:
    def test_rejects_non_metapath_programs(self, typed_graph):
        from repro.algorithms import DeepWalk

        with pytest.raises(ProgramError):
            TypedMetaPathWalkEngine(typed_graph, DeepWalk())

    def test_paths_follow_schemes(self, typed_graph):
        schemes = random_schemes(4, 3, 3, seed=5)
        program = MetaPathWalk(schemes)
        config = WalkConfig(num_walkers=60, max_steps=6, record_paths=True, seed=6)
        engine = TypedMetaPathWalkEngine(typed_graph, program, config)
        result = engine.run()
        assignments = engine.walkers.state(SCHEME_STATE)
        for walker_id, path in enumerate(result.paths):
            scheme = schemes[int(assignments[walker_id])]
            for step, (source, target) in enumerate(zip(path[:-1], path[1:])):
                required = scheme[step % len(scheme)]
                start, count = typed_graph.edge_span_batch(
                    np.array([source]), np.array([target])
                )
                types = typed_graph.edge_types[start[0] : start[0] + count[0]]
                assert required in types

    def test_zero_pd_evaluations(self, typed_graph):
        program = MetaPathWalk(random_schemes(4, 3, 3, seed=7))
        config = WalkConfig(num_walkers=80, max_steps=8, seed=8)
        result = TypedMetaPathWalkEngine(typed_graph, program, config).run()
        assert result.stats.counters.pd_evaluations == 0
        assert result.stats.trials_per_step == pytest.approx(1.0, abs=0.2)

    def test_matches_rejection_engine_law(self, typed_graph):
        """Typed tables and rejection sampling draw the same walks."""
        weighted = assign_random_weights(typed_graph, seed=9)
        weighted_typed = assign_random_edge_types(weighted, 3, seed=1)
        schemes = [[0, 1, 2]]
        histograms = {}
        for engine_cls in (WalkEngine, TypedMetaPathWalkEngine):
            config = WalkConfig(
                num_walkers=6000,
                max_steps=2,
                record_paths=True,
                seed=10,
                start_vertices=np.zeros(6000, dtype=np.int64),
            )
            result = engine_cls(
                weighted_typed, MetaPathWalk(schemes), config
            ).run()
            finals = [int(p[-1]) for p in result.paths if len(p) == 3]
            histograms[engine_cls.__name__] = np.bincount(
                finals, minlength=120
            )
        a = histograms["WalkEngine"].astype(float)
        b = histograms["TypedMetaPathWalkEngine"].astype(float)
        if a.sum() and b.sum():
            assert np.abs(a / a.sum() - b / b.sum()).max() < 0.05

    def test_dead_end_handling(self):
        graph = from_edges(3, [(0, 1), (1, 2)])
        from repro.graph.csr import CSRGraph

        typed = CSRGraph(
            graph.offsets, graph.targets,
            edge_types=np.array([0, 0], dtype=np.int32),
        )
        program = MetaPathWalk([[0, 1]])  # type 1 never exists
        config = WalkConfig(num_walkers=1, max_steps=5, record_paths=True,
                            start_vertices=np.array([0]))
        result = TypedMetaPathWalkEngine(typed, program, config).run()
        # First step (type 0) succeeds, second (type 1) dead-ends.
        assert result.paths[0].tolist() == [0, 1]
        assert result.stats.termination.by_dead_end == 1
