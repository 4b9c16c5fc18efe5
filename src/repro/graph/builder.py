"""Edge-list ingestion and CSR construction.

:class:`GraphBuilder` accumulates edges (optionally with weights and
types), then produces a :class:`~repro.graph.csr.CSRGraph` with sorted
adjacency lists.  It implements the two graph-preparation conventions
from the paper's evaluation (section 7.1):

* ``as_undirected`` stores each edge in both directions, which is how
  KnightKing handles the undirected versions of its datasets; and
* :func:`assign_random_weights` draws per-edge weights uniformly from
  ``[1, 5)`` to create the "weighted version" of each graph.

Undirected weight assignment keeps the two stored directions of the
same logical edge at the same weight, as a real weighted undirected
graph would.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import KEY_VERTEX_LIMIT, CSRGraph

__all__ = [
    "GraphBuilder",
    "from_edges",
    "from_arrays",
    "assign_random_weights",
    "assign_power_law_weights",
    "WEIGHT_LOW",
    "WEIGHT_HIGH",
]

# Paper section 7.1: "create their weighted version ... by assigning edge
# weight as a real number randomly sampled from [1, 5)".
WEIGHT_LOW = 1.0
WEIGHT_HIGH = 5.0


class GraphBuilder:
    """Incremental builder producing CSR graphs.

    Parameters
    ----------
    num_vertices:
        Total vertex count.  Vertices are dense integers ``0..n-1``.
    undirected:
        If true, :meth:`add_edge` stores both directions (with the same
        weight/type) and the resulting graph is flagged undirected.
    """

    def __init__(self, num_vertices: int, undirected: bool = False) -> None:
        if num_vertices <= 0:
            raise GraphError("a graph needs at least one vertex")
        self._num_vertices = int(num_vertices)
        self._undirected = bool(undirected)
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._weights: list[float] = []
        self._edge_types: list[int] = []
        self._any_weight = False
        self._any_type = False
        self._vertex_types: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_added_edges(self) -> int:
        """Number of :meth:`add_edge` calls so far (logical edges)."""
        count = len(self._sources)
        return count // 2 if self._undirected else count

    def add_edge(
        self,
        source: int,
        target: int,
        weight: float | None = None,
        edge_type: int | None = None,
    ) -> "GraphBuilder":
        """Add one logical edge; returns self for chaining."""
        self._check_vertex(source)
        self._check_vertex(target)
        if weight is not None and weight < 0:
            raise GraphError("edge weights must be non-negative")
        self._append(source, target, weight, edge_type)
        if self._undirected:
            self._append(target, source, weight, edge_type)
        return self

    def add_edges(
        self,
        edges: Iterable[tuple[int, int]]
        | Iterable[tuple[int, int, float]]
        | np.ndarray,
    ) -> "GraphBuilder":
        """Add many edges; tuples may be (src, dst) or (src, dst, weight)."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(int(edge[0]), int(edge[1]))
            elif len(edge) == 3:
                self.add_edge(int(edge[0]), int(edge[1]), float(edge[2]))
            else:
                raise GraphError(f"cannot interpret edge tuple {edge!r}")
        return self

    def set_vertex_types(self, vertex_types: Sequence[int] | np.ndarray) -> "GraphBuilder":
        """Attach per-vertex type labels (for heterogeneous graphs)."""
        array = np.asarray(vertex_types, dtype=np.int32)
        if array.size != self._num_vertices:
            raise GraphError("vertex_types must have one entry per vertex")
        self._vertex_types = array
        return self

    def build(self) -> CSRGraph:
        """Finalize into a CSR graph with sorted adjacency lists."""
        sources = np.asarray(self._sources, dtype=np.int64)
        targets = np.asarray(self._targets, dtype=np.int64)
        weights = (
            np.asarray(self._weights, dtype=np.float64) if self._any_weight else None
        )
        edge_types = (
            np.asarray(self._edge_types, dtype=np.int32) if self._any_type else None
        )

        # Sort edges by (source, target) so each adjacency slice is sorted.
        order = np.lexsort((targets, sources))
        sources = sources[order]
        targets = targets[order]
        if weights is not None:
            weights = weights[order]
        if edge_types is not None:
            edge_types = edge_types[order]

        counts = np.bincount(sources, minlength=self._num_vertices)
        offsets = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        return CSRGraph(
            offsets=offsets,
            targets=targets,
            weights=weights,
            edge_types=edge_types,
            vertex_types=self._vertex_types,
            undirected=self._undirected,
        )

    # ------------------------------------------------------------------
    def _append(
        self,
        source: int,
        target: int,
        weight: float | None,
        edge_type: int | None,
    ) -> None:
        self._sources.append(int(source))
        self._targets.append(int(target))
        self._weights.append(1.0 if weight is None else float(weight))
        self._edge_types.append(0 if edge_type is None else int(edge_type))
        if weight is not None:
            self._any_weight = True
        if edge_type is not None:
            self._any_type = True

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )


def from_edges(
    num_vertices: int,
    edges: Iterable[tuple[int, int]] | Iterable[tuple[int, int, float]],
    undirected: bool = False,
) -> CSRGraph:
    """One-shot convenience wrapper around :class:`GraphBuilder`."""
    builder = GraphBuilder(num_vertices, undirected=undirected)
    builder.add_edges(edges)
    return builder.build()


def from_arrays(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    edge_types: np.ndarray | None = None,
    undirected: bool = False,
) -> CSRGraph:
    """Vectorised CSR construction from parallel source/target arrays.

    This is the fast path used by the synthetic graph generators, which
    produce millions of edges; :class:`GraphBuilder` (list-based) would
    be needlessly slow there.  Semantics match the builder: undirected
    graphs store each edge twice with identical weight/type.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise GraphError("sources and targets must align")
    if sources.size and (
        sources.min() < 0
        or targets.min() < 0
        or sources.max() >= num_vertices
        or targets.max() >= num_vertices
    ):
        raise GraphError("edge endpoint out of range")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != sources.shape:
            raise GraphError("weights must align with edges")
    if edge_types is not None:
        edge_types = np.asarray(edge_types, dtype=np.int32)
        if edge_types.shape != sources.shape:
            raise GraphError("edge_types must align with edges")

    if undirected:
        sources, targets = (
            np.concatenate([sources, targets]),
            np.concatenate([targets, sources]),
        )
        if weights is not None:
            weights = np.concatenate([weights, weights])
        if edge_types is not None:
            edge_types = np.concatenate([edge_types, edge_types])

    # One stable sort of one packed key, the order a (source, target)
    # lexsort gives: its two passes cost 45 ms on 281 k edges already in
    # order (a saved edge list) where this costs 1 ms, and half when
    # shuffled.  The key cannot hold |V| beyond ~3e9.
    if num_vertices < KEY_VERTEX_LIMIT:
        order = np.argsort(sources * num_vertices + targets, kind="stable")
    else:
        order = np.lexsort((targets, sources))
    sources = sources[order]
    targets = targets[order]
    if weights is not None:
        weights = weights[order]
    if edge_types is not None:
        edge_types = edge_types[order]

    counts = np.bincount(sources, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(
        offsets=offsets,
        targets=targets,
        weights=weights,
        edge_types=edge_types,
        undirected=undirected,
    )


def assign_power_law_weights(
    graph: CSRGraph,
    seed: int,
    max_weight: float,
    exponent: float = 2.0,
    min_weight: float = 1.0,
) -> CSRGraph:
    """Weighted copy with power-law-distributed edge weights.

    Used by the Figure 8 experiment, which shows that compounding a
    heavy-tailed weight into the *dynamic* component (instead of
    pre-processing it as Ps) wrecks rejection-sampling efficiency.
    Mirrored across directions for undirected graphs like
    :func:`assign_random_weights`.
    """
    if max_weight < min_weight:
        raise GraphError("max_weight must be >= min_weight")
    rng = np.random.default_rng(seed)
    if graph.is_undirected:
        sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees()
        )
        low_end = np.minimum(sources, graph.targets)
        high_end = np.maximum(sources, graph.targets)
        keys = low_end * graph.num_vertices + high_end
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        draw_count = unique_keys.size
    else:
        inverse = None
        draw_count = graph.num_edges

    # Inverse-CDF sampling of a truncated continuous power law.
    power = 1.0 - exponent
    uniforms = rng.random(draw_count)
    if exponent == 1.0:
        values = min_weight * np.exp(
            uniforms * np.log(max_weight / min_weight)
        )
    else:
        low = min_weight**power
        high = max_weight**power
        values = (low + uniforms * (high - low)) ** (1.0 / power)
    weights = values[inverse] if inverse is not None else values
    return CSRGraph(
        offsets=graph.offsets.copy(),
        targets=graph.targets.copy(),
        weights=weights,
        edge_types=None if graph.edge_types is None else graph.edge_types.copy(),
        vertex_types=None if graph.vertex_types is None else graph.vertex_types.copy(),
        undirected=graph.is_undirected,
    )


def assign_random_weights(
    graph: CSRGraph,
    seed: int,
    low: float = WEIGHT_LOW,
    high: float = WEIGHT_HIGH,
) -> CSRGraph:
    """Return a weighted copy of ``graph`` with weights from U[low, high).

    This reproduces the paper's weighted-graph construction (section
    7.1).  For undirected graphs, both stored directions of a logical
    edge receive the same weight: the weight is drawn for the canonical
    orientation ``min(u, v) -> max(u, v)`` and mirrored to the reverse
    edge.
    """
    rng = np.random.default_rng(seed)
    if not graph.is_undirected:
        weights = rng.uniform(low, high, size=graph.num_edges)
        return CSRGraph(
            offsets=graph.offsets.copy(),
            targets=graph.targets.copy(),
            weights=weights,
            edge_types=None if graph.edge_types is None else graph.edge_types.copy(),
            vertex_types=(
                None if graph.vertex_types is None else graph.vertex_types.copy()
            ),
            undirected=False,
        )

    # Undirected: draw once per logical edge, keyed by the canonical
    # (min, max) orientation, then mirror to both stored directions.
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees()
    )
    low_end = np.minimum(sources, graph.targets)
    high_end = np.maximum(sources, graph.targets)
    keys = low_end * graph.num_vertices + high_end
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    per_logical_edge = rng.uniform(low, high, size=unique_keys.size)
    weights = per_logical_edge[inverse]
    return CSRGraph(
        offsets=graph.offsets.copy(),
        targets=graph.targets.copy(),
        weights=weights,
        edge_types=None if graph.edge_types is None else graph.edge_types.copy(),
        vertex_types=None if graph.vertex_types is None else graph.vertex_types.copy(),
        undirected=True,
    )
