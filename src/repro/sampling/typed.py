"""Per-edge-type static tables — the Meta-path-specific optimization.

Paper section 3 (related work): "a metapath implementation [Euler]
performs pre-processing to build per-edge-type ITS arrays or alias
tables, enabling fast sampling without increasing pre-processing
time/space overhead, as edges are partitioned into disjoint sets by
type.  This, however, cannot be generalized to all dynamic random
walks."

:class:`TypedVertexAliasTables` implements that algorithm-specific
optimization: for each (vertex, edge type) pair, an alias table over
the vertex's edges *of that type*.  A Meta-path step then samples in
O(1) without any rejection, because the walker's current required type
selects the table directly.  Total pre-processing stays O(|E|) — every
edge belongs to exactly one type partition.

It serves as an ablation baseline against KnightKing's general
rejection sampling (see ``benchmarks/test_metapath_typed_ablation.py``)
and as an independent exact sampler in tests.
"""

from __future__ import annotations

import numpy as np

from repro._index import index_dtype
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.alias import build_alias_segments
from repro.sampling.tables import segment_sums, static_component

__all__ = ["TypedVertexAliasTables"]


class TypedVertexAliasTables:
    """Alias tables partitioned by (vertex, edge type).

    Parameters
    ----------
    graph:
        a heterogeneous graph (``edge_types`` required).
    static_weights:
        optional per-edge Ps; see
        :func:`~repro.sampling.tables.static_component` for the default.
    """

    def __init__(
        self, graph: CSRGraph, static_weights: np.ndarray | None = None
    ) -> None:
        if graph.edge_types is None:
            raise SamplingError("TypedVertexAliasTables needs edge types")
        self._graph = graph
        self._static = static_component(graph, static_weights)
        self.num_types = int(graph.edge_types.max()) + 1 if graph.num_edges else 0

        # Flat grouped layout: edges sorted by (vertex, type) so each
        # group occupies one contiguous span of ``_flat_edges`` /
        # ``_flat_prob`` / ``_flat_alias`` (alias entries are local to
        # the span), with dense (|V| x T) start/count/total maps.  The
        # dense maps make ``sample_batch`` a handful of gathers instead
        # of a per-lane dict walk.  A group is a segment of the sorted
        # Ps array, so its table comes from the per-vertex builder.
        num_types = max(self.num_types, 1)
        shape = (graph.num_vertices, num_types)
        sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.offsets)
        )
        keys = sources * num_types + graph.edge_types
        # Stable sort keeps each group's edges in CSR order.
        order = np.argsort(keys, kind="stable").astype(index_dtype(keys.size))
        group_keys, group_firsts, group_sizes = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        self._flat_edges = order
        grouped, bounds = self._static[order], np.append(group_firsts, order.size)
        try:
            group_totals, self._flat_prob, self._flat_alias = build_alias_segments(
                grouped, bounds
            )
        except SamplingError as error:  # it names a group by its index
            finite = np.isfinite(segment_sums(grouped, bounds))
            vertex, edge_type = divmod(int(group_keys[np.argmin(finite)]), num_types)
            raise SamplingError(
                f"alias weights of vertex {vertex}, edge type {edge_type}, "
                "have no finite sum"
            ) from error
        self._totals = np.zeros(shape, dtype=np.float64)
        self._group_start = np.zeros(shape, dtype=np.int64)
        self._group_count = np.zeros(shape, dtype=np.int64)
        self._totals.flat[group_keys] = group_totals
        self._group_start.flat[group_keys] = group_firsts
        # A zero-mass group keeps its (unusable) span but is never drawn.
        self._group_count.flat[group_keys] = np.where(
            group_totals > 0, group_sizes, 0
        )

    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @property
    def static_weights(self) -> np.ndarray:
        return self._static

    def total_entries(self) -> int:
        """Total table entries — O(|E|), the paper's point that typed
        partitioning adds no pre-processing overhead."""
        return int(self._group_count.sum())

    def has_type(self, vertex: int, edge_type: int) -> bool:
        """Whether ``vertex`` has positive-mass edges of ``edge_type``."""
        if not 0 <= edge_type < self._totals.shape[1]:
            return False
        return self._totals[vertex, edge_type] > 0

    def total_static(self, vertex: int, edge_type: int) -> float:
        if not 0 <= edge_type < self._totals.shape[1]:
            return 0.0
        return float(self._totals[vertex, edge_type])

    def sample(
        self, vertex: int, edge_type: int, rng: np.random.Generator
    ) -> int:
        """Draw a flat edge index of the given type in O(1).

        Raises :class:`SamplingError` when the vertex has no eligible
        edges — the caller terminates the walk, as with any dead end.
        """
        if not self.has_type(vertex, edge_type):
            raise SamplingError(
                f"vertex {vertex} has no edges of type {edge_type}"
            )
        start = int(self._group_start[vertex, edge_type])
        count = int(self._group_count[vertex, edge_type])
        bucket = int(rng.integers(0, count))
        if rng.random() < self._flat_prob[start + bucket]:
            return int(self._flat_edges[start + bucket])
        return int(self._flat_edges[start + self._flat_alias[start + bucket]])

    def sample_batch(
        self,
        vertices: np.ndarray,
        edge_types: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised batch draw; -1 where no eligible edge exists.

        Out-of-range types (a meta-path scheme can demand a type the
        graph never assigned) count as "no eligible edge", matching the
        scalar path's behaviour rather than raising.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        edge_types = np.asarray(edge_types, dtype=np.int64)
        results = np.full(vertices.size, -1, dtype=np.int64)
        if vertices.size == 0:
            return results
        valid = (edge_types >= 0) & (edge_types < self._totals.shape[1])
        counts = np.zeros(vertices.size, dtype=np.int64)
        counts[valid] = self._group_count[vertices[valid], edge_types[valid]]
        lanes = np.flatnonzero(counts > 0)
        if lanes.size == 0:
            return results
        starts = self._group_start[vertices[lanes], edge_types[lanes]]
        buckets = rng.integers(0, counts[lanes])
        coins = rng.random(lanes.size)
        positions = starts + buckets
        local = np.where(
            coins < self._flat_prob[positions],
            buckets,
            self._flat_alias[positions],
        )
        results[lanes] = self._flat_edges[starts + local]
        return results
