"""Unit tests for CSR graph storage."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Node2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import GraphError
from repro.graph import csr, load_dataset
from repro.graph.builder import from_arrays, from_edges
from repro.graph.csr import CSRGraph
from repro.parallel import run_parallel_walk, shard_config

from tests.helpers import diamond_graph


class TestConstruction:
    def test_minimal_graph(self):
        graph = from_edges(2, [(0, 1)])
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert list(graph.neighbors(0)) == [1]
        assert list(graph.neighbors(1)) == []

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_offsets_must_match_edge_count(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_target_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_weights_must_align(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), weights=np.array([1.0, 2.0]))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), weights=np.array([-1.0]))

    def test_edge_types_must_align(self):
        with pytest.raises(GraphError):
            CSRGraph(
                np.array([0, 1]), np.array([0]), edge_types=np.array([1, 2])
            )

    def test_vertex_types_must_cover_vertices(self):
        with pytest.raises(GraphError):
            CSRGraph(
                np.array([0, 1]), np.array([0]), vertex_types=np.array([1, 2])
            )

    def test_arrays_are_read_only(self):
        graph = diamond_graph()
        with pytest.raises(ValueError):
            graph.targets[0] = 3  # lint: disable=RK105 -- proves immutability
        with pytest.raises(ValueError):
            graph.offsets[0] = 1  # lint: disable=RK105 -- proves immutability


class TestAccessors:
    def test_degrees(self):
        graph = diamond_graph()
        assert graph.out_degree(0) == 2
        assert graph.out_degree(1) == 3
        assert list(graph.out_degrees()) == [2, 3, 3, 2]
        assert graph.max_out_degree() == 3

    def test_neighbors_sorted(self):
        graph = diamond_graph()
        for vertex in range(graph.num_vertices):
            neighbors = graph.neighbors(vertex)
            assert list(neighbors) == sorted(neighbors)

    def test_edge_range(self):
        graph = diamond_graph()
        start, end = graph.edge_range(1)
        assert end - start == 3
        assert set(graph.targets[start:end]) == {0, 2, 3}

    def test_edge_weights_default_ones(self):
        graph = diamond_graph()
        assert not graph.is_weighted
        np.testing.assert_array_equal(graph.edge_weights(1), np.ones(3))
        assert graph.weight_of_edge(0) == 1.0
        assert graph.total_out_weight(1) == 3.0

    def test_edge_weights_explicit(self):
        graph = diamond_graph(weights=True)
        assert graph.is_weighted
        assert graph.total_out_weight(0) == pytest.approx(
            float(graph.edge_weights(0).sum())
        )

    def test_edge_types_of_requires_types(self):
        with pytest.raises(GraphError):
            diamond_graph().edge_types_of(0)

    def test_degree_stats(self):
        graph = diamond_graph()
        stats = graph.degree_stats()
        assert stats.mean == pytest.approx(2.5)
        assert stats.min == 2
        assert stats.max == 3
        assert "mean" in str(stats)

    def test_degree_stats_empty_vertexes(self):
        graph = from_edges(3, [(0, 1)])
        stats = graph.degree_stats()
        assert stats.min == 0


class TestMembership:
    def test_has_edge(self):
        graph = diamond_graph()
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 3)
        assert not graph.has_edge(0, 0)

    def test_edge_index_roundtrip(self):
        graph = diamond_graph()
        for vertex in range(graph.num_vertices):
            for target in graph.neighbors(vertex):
                index = graph.edge_index(vertex, int(target))
                assert graph.targets[index] == target
        assert graph.edge_index(0, 3) == -1

    def test_has_edges_batch_matches_scalar(self):
        """Every source from NO_VERTEX up: the packed key of (-1, |V|-1)
        is -1, which an empty hash slot once answered "present" to."""
        graph = diamond_graph()
        sources, targets = np.meshgrid(np.arange(-1, 4), np.arange(4), indexing="ij")
        sources, targets = sources.ravel(), targets.ravel()
        batch = graph.has_edges_batch(sources, targets)
        scalar = [graph.has_edge(int(s), int(t)) for s, t in zip(sources, targets)]
        np.testing.assert_array_equal(batch, scalar)

    def test_has_edges_batch_empty(self):
        graph = diamond_graph()
        result = graph.has_edges_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert result.size == 0

    def test_has_edges_batch_shape_mismatch(self):
        graph = diamond_graph()
        with pytest.raises(GraphError):
            graph.has_edges_batch(np.array([0]), np.array([0, 1]))

    def test_edge_span_batch_parallel_edges(self):
        graph = from_edges(3, [(0, 1), (0, 1), (0, 2)])
        first, counts = graph.edge_span_batch(
            np.array([0, 0, 1]), np.array([1, 2, 0])
        )
        assert counts.tolist() == [2, 1, 0]
        assert first[0] >= 0 and graph.targets[first[0]] == 1
        assert first[2] == -1


class TestPayAsYouGoIndex:
    """``has_edges_batch`` bisects the sorted keys until it answered as
    many queries as the graph has edge keys, then builds the hash set:
    both sides of that switch must say what ``has_edge`` says."""

    @staticmethod
    def hashed(graph):
        """A copy of ``graph`` already past the switch."""
        twin = CSRGraph(graph.offsets, graph.targets)
        twin._bisected_queries = twin.num_edges
        return twin

    @given(data=st.data(), num_vertices=st.integers(1, 9))
    @settings(max_examples=120, deadline=None)
    def test_bisect_hash_and_scalar_agree(self, data, num_vertices):
        vertex = st.integers(0, num_vertices - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40))
        graph = from_edges(num_vertices, edges)  # parallel edges, self-loops, empty
        # Sources from NO_VERTEX (-1) up: an empty hash slot once
        # answered "present" to the key of (-1, |V|-1).  The last key
        # of the array and absent targets beyond it are drawn too.
        pairs = data.draw(st.lists(st.tuples(st.integers(-1, num_vertices - 1), vertex)))
        shape = data.draw(st.sampled_from([(len(pairs),), (len(pairs), 1), (1, len(pairs))]))
        sources = np.array([s for s, _ in pairs], dtype=np.int64).reshape(shape)
        targets = np.array([t for _, t in pairs], dtype=np.int64).reshape(shape)
        bisected = graph.has_edges_batch(sources, targets)
        assert graph._key_hash is None or not graph.num_edges
        hashed = self.hashed(graph).has_edges_batch(sources, targets)
        scalar = [s >= 0 and graph.has_edge(s, t) for s, t in pairs]
        assert bisected.shape == hashed.shape == shape
        assert bisected.dtype == hashed.dtype == bool
        np.testing.assert_array_equal(bisected.ravel(), scalar)
        np.testing.assert_array_equal(hashed.ravel(), scalar)

    def test_two_dimensional_queries_survive_hash_collisions(self):
        """The probe loop indexed a 2-D answer with flat lanes; only a
        collision reaches it."""
        rng = np.random.default_rng(0)
        graph = from_arrays(300, rng.integers(0, 300, 4000), rng.integers(0, 300, 4000))
        sources, targets = rng.integers(0, 300, (2, 50, 40))
        flat = self.hashed(graph).has_edges_batch(sources.ravel(), targets.ravel())
        square = self.hashed(graph).has_edges_batch(sources, targets)
        np.testing.assert_array_equal(square, flat.reshape(50, 40))
        np.testing.assert_array_equal(graph.has_edges_batch(sources, targets), square)

    def test_hash_is_built_once_when_the_queries_add_up(self, monkeypatch):
        rng = np.random.default_rng(1)
        graph = from_arrays(60, rng.integers(0, 60, 500), rng.integers(0, 60, 500))
        builds = []

        def counting(keys, build=csr._build_key_hash):
            builds.append(keys.size)
            return build(keys)

        monkeypatch.setattr(csr, "_build_key_hash", counting)
        sources, targets = rng.integers(0, 60, (2, 128))
        expected = [graph.has_edge(int(s), int(t)) for s, t in zip(sources, targets)]
        for batch in range(8):  # 4 x 128 = 512 >= 500 keys: hashed from the 5th on
            np.testing.assert_array_equal(
                graph.has_edges_batch(sources, targets), expected
            )
            assert builds == ([] if batch < 4 else [500])
        assert graph._bisected_queries == 512

    def test_two_threads_across_the_switch(self):
        rng = np.random.default_rng(2)
        graph = from_arrays(80, rng.integers(0, 80, 900), rng.integers(0, 80, 900))
        sources, targets = rng.integers(-1, 80, 64), rng.integers(0, 80, 64)
        expected = [s >= 0 and graph.has_edge(int(s), int(t)) for s, t in zip(sources, targets)]
        wrong = []

        def hammer():
            for _ in range(60):  # 2 x 60 x 64 queries: well past 900 keys
                if graph.has_edges_batch(sources, targets).tolist() != expected:
                    wrong.append(graph._bisected_queries)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and graph._key_hash is not None

    def test_four_threads_crossing_the_switch_build_the_set_once(self, monkeypatch):
        """Service workers share one graph: threads that reach the switch
        together must not each pay for a hash set."""
        graph = load_dataset("livejournal", scale=0.25)
        keys = graph._edge_key_array()
        builds = []

        def counting(keys, build=csr._build_key_hash):
            builds.append(keys.size)
            return build(keys)

        monkeypatch.setattr(csr, "_build_key_hash", counting)
        graph._bisected_queries = keys.size  # the next query builds
        rng = np.random.default_rng(4)
        sources, targets = rng.integers(0, graph.num_vertices, (2, 4, 4096))
        expected = [
            np.isin(sources[i] * graph.num_vertices + targets[i], keys)
            for i in range(4)
        ]
        answers = [None] * 4
        start = threading.Barrier(4)

        def query(lane):
            start.wait()
            answers[lane] = graph.has_edges_batch(sources[lane], targets[lane])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert builds == [keys.size]
        for answer, wanted in zip(answers, expected):
            np.testing.assert_array_equal(answer, wanted)

    @pytest.mark.parametrize("hashed", [False, True])
    def test_a_pickled_graph_answers_queries(self, hashed):
        rng = np.random.default_rng(5)
        graph = from_arrays(90, rng.integers(0, 90, 700), rng.integers(0, 90, 700))
        sources, targets = rng.integers(0, 90, (2, 256))
        if hashed:
            graph._bisected_queries = graph.num_edges
        expected = graph.has_edges_batch(sources, targets)  # the lock exists now
        twin = pickle.loads(pickle.dumps(graph))
        assert twin._pid is None and (twin._key_hash is not None) == hashed
        twin._bisected_queries = twin.num_edges  # the copy builds its own set
        np.testing.assert_array_equal(twin.has_edges_batch(sources, targets), expected)

    def test_a_forked_shard_answers_while_the_parent_holds_the_lock(self):
        """Shards inherit the graph through fork; a lock held in the parent
        at that moment has no holder in the child, which makes its own."""
        graph = load_dataset("livejournal", scale=0.05)
        config = WalkConfig(num_walkers=200, max_steps=10, seed=1, record_paths=True)
        with graph._locked():
            merged = run_parallel_walk(
                graph, Node2Vec(p=2.0, q=0.5), config, num_workers=2, shard_timeout=60
            )
        expected = []
        for shard in shard_config(config, graph, 2):
            expected += WalkEngine(graph, Node2Vec(p=2.0, q=0.5), shard).run().paths
        assert [p.tolist() for p in merged.paths] == [p.tolist() for p in expected]


class TestValidateAndEquality:
    def test_validate_passes(self):
        diamond_graph().validate()

    def test_validate_detects_missing_reverse(self):
        # Hand-build a graph flagged undirected but missing a reverse edge.
        graph = CSRGraph(
            np.array([0, 1, 1]), np.array([1]), undirected=True
        )
        with pytest.raises(GraphError):
            graph.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_detects_a_non_finite_weight(self, bad):
        graph = from_edges(3, [(0, 1, 1.0), (1, 2, bad), (2, 0, 1.0)])
        with pytest.raises(GraphError, match="edge 1 is not finite"):
            graph.validate()

    def test_equality(self):
        assert diamond_graph() == diamond_graph()
        assert diamond_graph() != diamond_graph(weights=True)
        assert diamond_graph() != from_edges(4, [(0, 1)])
        assert diamond_graph().__eq__(42) is NotImplemented

    def test_repr(self):
        text = repr(diamond_graph(weights=True))
        assert "|V|=4" in text and "weighted" in text


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=60,
    )
)
def test_csr_matches_adjacency_oracle(edges):
    """CSR construction agrees with a dict-of-lists oracle."""
    graph = from_arrays(
        10,
        np.array([e[0] for e in edges], dtype=np.int64),
        np.array([e[1] for e in edges], dtype=np.int64),
    )
    oracle: dict[int, list[int]] = {v: [] for v in range(10)}
    for source, target in edges:
        oracle[source].append(target)
    assert graph.num_edges == len(edges)
    for vertex in range(10):
        assert sorted(oracle[vertex]) == list(graph.neighbors(vertex))
        for target in range(10):
            assert graph.has_edge(vertex, target) == (target in oracle[vertex])
