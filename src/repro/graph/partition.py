"""Graph partitioning for distributed execution.

KnightKing (paper section 6.1) uses a 1-D *vertex* partition: every
vertex lives on exactly one node together with **all** of its out-edges
(so a walker can locally inspect any out-edge during rejection
sampling).  Loads are balanced on ``|V_i| + |E_i|`` per node, which
evens out memory consumption.

The Gemini baseline instead uses a chunk-based partition in which a
vertex's out-edges may be spread over multiple nodes via *mirrors*,
forcing its two-phase sampling scheme.  :class:`MirroredPartition`
models that layout for the baseline in :mod:`repro.baselines.gemini`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["ContiguousPartition", "MirroredPartition", "partition_graph"]


class ContiguousPartition:
    """1-D contiguous vertex partition (KnightKing's scheme).

    Node ``i`` owns the vertex range ``[boundaries[i], boundaries[i+1])``
    and every out-edge of those vertices.
    """

    def __init__(self, boundaries: np.ndarray, graph: CSRGraph) -> None:
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.size < 2 or boundaries[0] != 0:
            raise PartitionError("boundaries must start at 0")
        if boundaries[-1] != graph.num_vertices:
            raise PartitionError("boundaries must end at |V|")
        if np.any(np.diff(boundaries) < 0):
            raise PartitionError("boundaries must be non-decreasing")
        self._boundaries = boundaries
        self._graph = graph
        # The owner table: "which node owns v" is one gather.  Shared
        # read-only; an engine that re-homes vertices works on a copy.
        self._owner_table = np.repeat(
            np.arange(boundaries.size - 1, dtype=np.int64), np.diff(boundaries)
        )
        self._owner_table.setflags(write=False)

    @property
    def num_parts(self) -> int:
        return self._boundaries.size - 1

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries

    @property
    def owner_table(self) -> np.ndarray:
        """Owning node per vertex (read-only ``|V|`` int64 array)."""
        return self._owner_table

    def owner_of(self, vertex: int) -> int:
        """The node owning ``vertex``."""
        return int(self.owners([vertex])[0])

    def owners(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner_of`; ids outside ``[0, |V|)`` raise
        :class:`~repro.errors.PartitionError`."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and not (
            0 <= vertices.min() and vertices.max() < self._owner_table.size
        ):
            raise PartitionError(
                f"vertex ids must be in [0, {self._owner_table.size})"
            )
        return self._owner_table[vertices]

    def vertices_of(self, part: int) -> range:
        """The contiguous vertex range owned by ``part``."""
        self._check_part(part)
        return range(int(self._boundaries[part]), int(self._boundaries[part + 1]))

    def load_of(self, part: int) -> tuple[int, int]:
        """(vertex count, edge count) owned by ``part``."""
        self._check_part(part)
        low, high = int(self._boundaries[part]), int(self._boundaries[part + 1])
        vertices = high - low
        edges = int(self._graph.offsets[high] - self._graph.offsets[low])
        return vertices, edges

    def balance_ratio(self) -> float:
        """max / mean of per-part (|V_i| + |E_i|); 1.0 is perfect."""
        loads = [sum(self.load_of(part)) for part in range(self.num_parts)]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.num_parts:
            raise PartitionError(f"part {part} out of range")


def partition_graph(graph: CSRGraph, num_parts: int) -> ContiguousPartition:
    """Build the paper's 1-D partition balancing ``|V_i| + |E_i|``.

    A greedy sweep over vertices cuts whenever the running
    vertex-plus-edge load reaches the per-part target — the same simple
    scheme real engines (Gemini, KnightKing) use for contiguous 1-D
    splits.
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if num_parts > graph.num_vertices:
        raise PartitionError("more parts than vertices")

    # Running load after each vertex: one unit per vertex + its degree.
    cumulative = graph.offsets[1:] + np.arange(
        1, graph.num_vertices + 1, dtype=np.int64
    )
    total = int(cumulative[-1])
    boundaries = np.zeros(num_parts + 1, dtype=np.int64)
    for part in range(1, num_parts):
        target = total * part / num_parts
        cut = int(np.searchsorted(cumulative, target, side="left")) + 1
        # Keep at least one vertex per part even on degenerate inputs.
        cut = max(cut, int(boundaries[part - 1]) + 1)
        cut = min(cut, graph.num_vertices - (num_parts - part))
        boundaries[part] = cut
    boundaries[num_parts] = graph.num_vertices
    return ContiguousPartition(boundaries, graph)


class MirroredPartition:
    """Gemini-style chunked partition with mirror vertices.

    Vertices are split into contiguous chunks as in
    :class:`ContiguousPartition` (each vertex has one *master* node),
    but a vertex's out-edges are assigned to the node owning the edge
    **target**.  A vertex therefore has a *mirror* on every node holding
    at least one of its out-edges, and reading an arbitrary out-edge
    from the master requires a round trip to a mirror — the property
    that forces Gemini's two-phase sampling and rules out rejection
    sampling (paper section 7.1).
    """

    def __init__(self, graph: CSRGraph, num_parts: int) -> None:
        if num_parts <= 0:
            raise PartitionError("num_parts must be positive")
        self._graph = graph
        self._masters = partition_graph(graph, num_parts)
        # Edge -> hosting node, by target ownership.
        self._edge_owner = self._masters.owners(graph.targets)
        # Per (vertex, node): number and total weight of v's out-edges
        # hosted there.  Stored as dense (|V| x P) arrays — fine at the
        # simulator scales used here.
        degrees = graph.out_degrees()
        vertex_of_edge = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), degrees
        )
        flat = vertex_of_edge * num_parts + self._edge_owner
        counts = np.bincount(flat, minlength=graph.num_vertices * num_parts)
        self._edge_counts = counts.reshape(graph.num_vertices, num_parts)
        weights = (
            graph.weights
            if graph.weights is not None
            else np.ones(graph.num_edges, dtype=np.float64)
        )
        sums = np.bincount(
            flat, weights=weights, minlength=graph.num_vertices * num_parts
        )
        self._weight_sums = sums.reshape(graph.num_vertices, num_parts)

    @property
    def num_parts(self) -> int:
        return self._masters.num_parts

    @property
    def masters(self) -> ContiguousPartition:
        return self._masters

    def master_of(self, vertex: int) -> int:
        return self._masters.owner_of(vertex)

    def edge_owner(self, edge_index: int) -> int:
        """Node hosting a given out-edge (the target's master)."""
        return int(self._edge_owner[edge_index])

    @property
    def edge_owners(self) -> np.ndarray:
        """Hosting node per edge (flat |E| array)."""
        return self._edge_owner

    @property
    def mirror_counts(self) -> np.ndarray:
        """Number of nodes hosting each vertex's out-edges (|V| array)."""
        return np.count_nonzero(self._edge_counts, axis=1)

    def hosts_edges(self, vertices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Whether each (vertex, node) pair has local out-edges."""
        return self._edge_counts[vertices, nodes] > 0

    def mirror_nodes(self, vertex: int) -> np.ndarray:
        """Nodes where ``vertex`` has a mirror (hosts >= 1 out-edge)."""
        return np.flatnonzero(self._edge_counts[vertex]).astype(np.int64)

    def mirror_count(self, vertex: int) -> int:
        return int(np.count_nonzero(self._edge_counts[vertex]))

    def per_node_weight(self, vertex: int) -> np.ndarray:
        """Total static weight of ``vertex``'s out-edges per node —
        the phase-1 ITS distribution of Gemini's two-phase sampler."""
        return self._weight_sums[vertex]

    def local_edges(self, vertex: int, part: int) -> np.ndarray:
        """Flat indices of ``vertex``'s out-edges hosted on ``part``."""
        start, end = self._graph.edge_range(vertex)
        local = np.flatnonzero(self._edge_owner[start:end] == part)
        return start + local

    def total_mirrors(self) -> int:
        """Total mirror count across all vertices (replication factor
        numerator) — the broadcast fan-out Gemini pays per push."""
        return int(np.count_nonzero(self._edge_counts))
