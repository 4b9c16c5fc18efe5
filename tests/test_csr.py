"""Unit tests for CSR graph storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_arrays, from_edges
from repro.graph.csr import CSRGraph

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
