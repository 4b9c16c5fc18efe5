"""Unit tests for graph partitioning (KnightKing 1-D and Gemini mirrors)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.generators import (
    truncated_power_law_graph,
    uniform_degree_graph,
)
from repro.graph.partition import (
    ContiguousPartition,
    MirroredPartition,
    partition_graph,
)


@pytest.fixture
def graph():
    return truncated_power_law_graph(500, 2.0, 2, 80, seed=4)


class TestContiguousPartition:
    def test_covers_all_vertices_once(self, graph):
        partition = partition_graph(graph, 4)
        seen = []
        for part in range(partition.num_parts):
            seen.extend(partition.vertices_of(part))
        assert seen == list(range(graph.num_vertices))

    def test_owner_matches_ranges(self, graph):
        partition = partition_graph(graph, 4)
        for part in range(4):
            for vertex in list(partition.vertices_of(part))[:20]:
                assert partition.owner_of(vertex) == part

    def test_owners_vectorised(self, graph):
        partition = partition_graph(graph, 8)
        vertices = np.arange(graph.num_vertices)
        owners = partition.owners(vertices)
        scalar = [partition.owner_of(int(v)) for v in vertices[::37]]
        np.testing.assert_array_equal(owners[::37], scalar)

    def test_load_balance(self, graph):
        partition = partition_graph(graph, 4)
        assert partition.balance_ratio() < 1.5

    def test_load_of_sums_to_total(self, graph):
        partition = partition_graph(graph, 4)
        vertices = sum(partition.load_of(p)[0] for p in range(4))
        edges = sum(partition.load_of(p)[1] for p in range(4))
        assert vertices == graph.num_vertices
        assert edges == graph.num_edges

    def test_single_part(self, graph):
        partition = partition_graph(graph, 1)
        assert partition.owner_of(0) == 0
        assert partition.owner_of(graph.num_vertices - 1) == 0

    def test_parts_equal_vertices(self):
        graph = uniform_degree_graph(4, 2, seed=0)
        partition = partition_graph(graph, 4)
        assert [len(partition.vertices_of(p)) for p in range(4)] == [1] * 4

    def test_owner_table_agrees_with_ranges(self, graph):
        """Incl. empty parts (repeated boundaries) and one vertex per
        part; the shared table cannot be written through."""
        n = graph.num_vertices
        small = uniform_degree_graph(4, 2, seed=0)
        for partition in (
            partition_graph(graph, 8),
            ContiguousPartition(np.array([0, 0, 200, 200, 200, n, n]), graph),
            partition_graph(small, 4),
        ):
            table = partition.owner_table
            assert table.dtype == np.int64
            assert table.size == partition.boundaries[-1]
            for part in range(partition.num_parts):
                members = partition.vertices_of(part)
                assert (table[members.start : members.stop] == part).all()
            np.testing.assert_array_equal(
                partition.owners(np.arange(table.size)), table
            )
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("bad", [-1, -5, 500, 10**9])
    def test_out_of_range_vertex_is_typed_error(self, graph, bad):
        """Not node -1 or node ``num_parts``, and never a wrapped
        negative index into the table."""
        partition = partition_graph(graph, 4)
        with pytest.raises(PartitionError, match=r"\[0, 500\)"):
            partition.owner_of(bad)
        with pytest.raises(PartitionError, match=r"\[0, 500\)"):
            partition.owners([0, bad, 3])
        assert partition.owners([]).size == 0
        assert partition.owners([0, 499]).tolist() == [0, 3]

    def test_errors(self, graph):
        with pytest.raises(PartitionError):
            partition_graph(graph, 0)
        with pytest.raises(PartitionError):
            partition_graph(graph, graph.num_vertices + 1)
        partition = partition_graph(graph, 2)
        with pytest.raises(PartitionError):
            partition.vertices_of(5)

    def test_boundary_validation(self, graph):
        with pytest.raises(PartitionError):
            ContiguousPartition(np.array([1, graph.num_vertices]), graph)
        with pytest.raises(PartitionError):
            ContiguousPartition(np.array([0, 10]), graph)
        with pytest.raises(PartitionError):
            ContiguousPartition(
                np.array([0, 50, 20, graph.num_vertices]), graph
            )


class TestMirroredPartition:
    def test_edge_owner_is_target_master(self, graph):
        mirrored = MirroredPartition(graph, 4)
        for edge in range(0, graph.num_edges, 97):
            target = int(graph.targets[edge])
            assert mirrored.edge_owner(edge) == mirrored.master_of(target)

    def test_mirror_nodes_consistent_with_local_edges(self, graph):
        mirrored = MirroredPartition(graph, 4)
        for vertex in range(0, graph.num_vertices, 53):
            mirrors = set(mirrored.mirror_nodes(vertex).tolist())
            for part in range(4):
                local = mirrored.local_edges(vertex, part)
                assert (part in mirrors) == (local.size > 0)
                for edge in local:
                    assert int(mirrored.edge_owner(int(edge))) == part
            assert mirrored.mirror_count(vertex) == len(mirrors)

    def test_per_node_weight_sums_to_total(self, graph):
        mirrored = MirroredPartition(graph, 4)
        for vertex in range(0, graph.num_vertices, 41):
            assert mirrored.per_node_weight(vertex).sum() == pytest.approx(
                graph.total_out_weight(vertex)
            )

    def test_mirror_counts_property(self, graph):
        mirrored = MirroredPartition(graph, 4)
        counts = mirrored.mirror_counts
        assert counts.shape == (graph.num_vertices,)
        assert counts.max() <= 4
        # total mirrors equals sum of per-vertex counts
        assert mirrored.total_mirrors() == counts.sum()

    def test_hosts_edges(self, graph):
        mirrored = MirroredPartition(graph, 4)
        vertices = np.arange(0, graph.num_vertices, 101)
        nodes = np.zeros(vertices.size, dtype=np.int64)
        hosted = mirrored.hosts_edges(vertices, nodes)
        for lane, vertex in enumerate(vertices):
            assert hosted[lane] == (
                mirrored.local_edges(int(vertex), 0).size > 0
            )

    def test_high_degree_vertex_has_many_mirrors(self):
        # The hub's edges land on every node that owns some leaf.
        from repro.graph.generators import star_graph

        graph = star_graph(63, undirected=True)
        mirrored = MirroredPartition(graph, 4)
        leaf_owners = set(
            mirrored.masters.owners(np.arange(1, 64)).tolist()
        )
        assert set(mirrored.mirror_nodes(0).tolist()) == leaf_owners
        assert mirrored.mirror_count(0) >= 3

    def test_errors(self, graph):
        with pytest.raises(PartitionError):
            MirroredPartition(graph, 0)
