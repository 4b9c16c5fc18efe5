"""Compressed sparse row (CSR) graph storage.

KnightKing stores edges in CSR with all directed edges kept with their
source vertices; undirected edges are stored twice, once per direction
(paper section 6.1).  This module provides the immutable CSR container
used by every engine in this repository.

Adjacency lists are kept sorted by target vertex so that neighbourhood
membership tests (``has_edge``) run in O(log d) via binary search.  This
is what makes node2vec's second-order distance check cheap for a vertex
owner answering a walker-to-vertex state query.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro._index import index_dtype
from repro.errors import GraphError

__all__ = ["CSRGraph", "DegreeStats"]

# Largest vertex count for which the packed (source, target) -> int64
# key used by the batch adjacency fast path cannot overflow:
# (limit - 1) * limit + (limit - 1) must stay below 2**63.
KEY_VERTEX_LIMIT = 3_037_000_499

# Fibonacci-hashing multiplier (2**64 / golden ratio, odd).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# Keys inserted into the hash set per pass.  A constant, not an option:
# each key in flight costs ~50 bytes of temporaries beside the table.
# On twitter x1 (8.4 MB table) 2**14 keys hold 0.8 MB and build in 22
# ms; 2**20 (one pass) held 15.8 MB and took 31 ms.
_HASH_CHUNK = 1 << 14


def _hash_slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Initial probe slot per key: top ``bits`` of a Fibonacci hash."""
    return (keys.astype(np.uint64) * _HASH_MULTIPLIER) >> np.uint64(64 - bits)


def _build_key_hash(sorted_keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Open-addressing hash set over edge keys, built vectorised.

    Linear probing with all pending keys advancing one probe distance
    per round: every round scatters the pending keys into empty slots
    (last write wins) and a gather-back identifies which keys actually
    landed — no per-round sort.  Load factor stays at or below ~0.4.
    Keys go in :data:`_HASH_CHUNK` at a time, deduplicated per chunk, so
    the temporaries beside the table are a chunk's, not |E|'s.  A key
    lands at the first slot of its probe sequence that was empty, in
    any insertion order, so a query finds it before an empty slot.
    """
    chunks = range(0, sorted_keys.size, _HASH_CHUNK)
    distinct = sum(_first_of_runs(sorted_keys, low).size for low in chunks)
    bits = max(4, int(np.ceil(np.log2(max(distinct * 2.5, 2)))))
    # An empty slot is below every key a query can form: sources are >=
    # NO_VERTEX (-1), so keys are >= -|V| — it never matches one.
    empty = np.iinfo(sorted_keys.dtype).min
    table = np.full(1 << bits, empty, dtype=sorted_keys.dtype)
    mask = np.uint64(table.size - 1)
    for low in chunks:
        pending = _first_of_runs(sorted_keys, low)
        slots = _hash_slots(pending, bits)
        distance = np.uint64(0)
        while pending.size:
            probe = (slots + distance) & mask
            open_lanes = np.flatnonzero(table[probe] == empty)
            table[probe[open_lanes]] = pending[open_lanes]
            landed = table[probe[open_lanes]] == pending[open_lanes]
            keep = np.ones(pending.size, dtype=bool)
            keep[open_lanes[landed]] = False
            pending = pending[keep]
            slots = slots[keep]
            distance += np.uint64(1)
    return table, bits


def _first_of_runs(sorted_keys: np.ndarray, low: int) -> np.ndarray:
    """The chunk of ``sorted_keys`` at ``low`` without repeats — and
    without the key that ends the chunk before it (sorted input, so a
    repeat is always the previous key; no key equals an empty slot)."""
    chunk = sorted_keys[low : low + _HASH_CHUNK]
    previous = sorted_keys[low - 1] if low else np.iinfo(chunk.dtype).min
    return chunk[chunk != np.concatenate(([previous], chunk[:-1]))]


def _key_hash_contains(
    table: np.ndarray, bits: int, queries: np.ndarray
) -> np.ndarray:
    """Vectorised membership test against :func:`_build_key_hash`."""
    shape, queries = queries.shape, queries.ravel()  # lanes below are flat
    mask = np.uint64(table.size - 1)
    slots = _hash_slots(queries, bits)
    # First probe on the full batch without lane tracking — at the
    # table's load factor most queries resolve here, so the fancy
    # indexing below only ever touches the collision tail.
    occupants = table[slots]
    found = occupants == queries
    empty = np.iinfo(table.dtype).min
    active = np.flatnonzero(~found & (occupants != empty))
    slots = slots[active]
    values = queries[active]
    distance = np.uint64(1)
    while active.size:
        occupants = table[(slots + distance) & mask]
        hit = occupants == values
        found[active[hit]] = True
        unresolved = ~hit & (occupants != empty)
        active = active[unresolved]
        slots = slots[unresolved]
        values = values[unresolved]
        distance += np.uint64(1)
    return found.reshape(shape)


def _whole(values, name: str) -> np.ndarray:
    """``values`` as an array, refused unless every entry is a whole
    number (integer arrays pass as they are)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iub" and (
        array.dtype.kind != "f" or not np.array_equal(array, np.trunc(array))
    ):
        raise GraphError(f"{name} must be whole numbers")
    return array


@dataclass(frozen=True)
class DegreeStats:
    """Summary statistics of a graph's out-degree distribution.

    These are the quantities Table 2 of the paper reports for its
    real-world datasets (degree mean and variance), plus extremes that
    the synthetic generators assert on.
    """

    mean: float
    variance: float
    min: int
    max: int

    def __str__(self) -> str:
        return (
            f"degree mean={self.mean:.1f} variance={self.variance:.3g} "
            f"min={self.min} max={self.max}"
        )


class CSRGraph:
    """An immutable directed graph in compressed sparse row form.

    Parameters
    ----------
    offsets:
        ``|V| + 1`` whole numbers, kept as int64; the out-edges of vertex
        ``v`` occupy ``targets[offsets[v]:offsets[v + 1]]``.
    targets:
        ``|E|`` edge destinations, kept as ``index_dtype(|V|)``: int32
        below 2**31 vertices.  Within each vertex's slice the targets must
        be sorted ascending (use :class:`repro.graph.builder.GraphBuilder`).
    weights:
        optional float64 array of per-edge weights (the static
        transition component Ps in the paper's unified definition).
        ``None`` means the graph is unweighted (every weight is 1).
    edge_types:
        optional int32 array of per-edge type labels, used by
        heterogeneous-graph algorithms such as Meta-path.
    vertex_types:
        optional int32 array of per-vertex type labels.
    undirected:
        informational flag recording that this CSR was built by storing
        each undirected edge in both directions.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
        edge_types: np.ndarray | None = None,
        vertex_types: np.ndarray | None = None,
        undirected: bool = False,
    ) -> None:
        # Validate the caller's arrays, then narrow: a cast first would
        # truncate 1.7 to vertex 1 and wrap 2**32 + 1 to vertex 1.
        offsets, targets = _whole(offsets, "offsets"), _whole(targets, "targets")
        if offsets.ndim != 1 or offsets.size == 0:
            raise GraphError("offsets must be a 1-D array of length |V|+1")
        if offsets[0] != 0:
            raise GraphError("offsets must start at 0")
        if offsets[-1] != targets.size:
            raise GraphError(
                f"offsets end at {offsets[-1]} but there are {targets.size} edges"
            )
        if np.any(offsets[1:] < offsets[:-1]):
            raise GraphError("offsets must be non-decreasing")

        num_vertices = offsets.size - 1
        if targets.size and (targets.min() < 0 or targets.max() >= num_vertices):
            raise GraphError("edge target out of range")
        offsets = offsets.astype(np.int64, copy=False)
        targets = targets.astype(index_dtype(num_vertices), copy=False)

        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != targets.shape:
                raise GraphError("weights must align with targets")
            if targets.size and weights.min() < 0:
                raise GraphError("edge weights must be non-negative")
        if edge_types is not None:
            edge_types = np.asarray(edge_types, dtype=np.int32)
            if edge_types.shape != targets.shape:
                raise GraphError("edge_types must align with targets")
        if vertex_types is not None:
            vertex_types = np.asarray(vertex_types, dtype=np.int32)
            if vertex_types.size != num_vertices:
                raise GraphError("vertex_types must have one entry per vertex")

        self._offsets = offsets
        self._targets = targets
        self._weights = weights
        self._edge_types = edge_types
        self._vertex_types = vertex_types
        self._undirected = bool(undirected)
        # Sorted (source, target) keys, built on the first batch lookup
        # and bisected until as many membership queries were answered
        # as there are keys; only then is the hash set over them built
        # (see has_edges_batch).  All three change under _locked().
        self._edge_keys: np.ndarray | None = None
        self._bisected_queries = 0
        self._key_hash: tuple[np.ndarray, int] | None = None
        self._pid = None
        for array in (offsets, targets, weights, edge_types, vertex_types):
            if array is not None:
                array.setflags(write=False)

    def _locked(self) -> threading.Lock:
        """The lock over the adjacency index: made anew in a forked
        child or an unpickled copy, where no holder is left."""
        if self._pid != os.getpid():
            self._lock, self._pid = threading.Lock(), os.getpid()
        return self._lock

    def __getstate__(self) -> dict:  # locks do not pickle
        return dict(self.__dict__, _lock=None, _pid=None)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, |V|."""
        return self._offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges, |E| (undirected edges count
        twice, matching the paper's storage scheme)."""
        return self._targets.size

    @property
    def offsets(self) -> np.ndarray:
        """The CSR offset array (read-only view)."""
        return self._offsets

    @property
    def targets(self) -> np.ndarray:
        """The CSR target array (read-only view)."""
        return self._targets

    @property
    def weights(self) -> np.ndarray | None:
        """Per-edge weights, or ``None`` for unweighted graphs."""
        return self._weights

    @property
    def edge_types(self) -> np.ndarray | None:
        """Per-edge type labels, or ``None`` for homogeneous graphs."""
        return self._edge_types

    @property
    def vertex_types(self) -> np.ndarray | None:
        """Per-vertex type labels, or ``None`` for homogeneous graphs."""
        return self._vertex_types

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    @property
    def is_heterogeneous(self) -> bool:
        return self._edge_types is not None

    @property
    def is_undirected(self) -> bool:
        """True if built by mirroring every edge (storage is still CSR)."""
        return self._undirected

    # ------------------------------------------------------------------
    # Per-vertex access
    # ------------------------------------------------------------------
    def edge_range(self, vertex: int) -> tuple[int, int]:
        """Return the half-open edge-index range ``[start, end)`` of
        ``vertex``'s out-edges in the flat arrays."""
        return int(self._offsets[vertex]), int(self._offsets[vertex + 1])

    def out_degree(self, vertex: int) -> int:
        """Out-degree of a single vertex."""
        return int(self._offsets[vertex + 1] - self._offsets[vertex])

    def out_degrees(self) -> np.ndarray:
        """Out-degrees of all vertices as an int64 array."""
        return np.diff(self._offsets)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Targets of ``vertex``'s out-edges (read-only view, sorted)."""
        start, end = self.edge_range(vertex)
        return self._targets[start:end]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s out-edges; all-ones for unweighted."""
        start, end = self.edge_range(vertex)
        if self._weights is None:
            return np.ones(end - start, dtype=np.float64)
        return self._weights[start:end]

    def edge_types_of(self, vertex: int) -> np.ndarray:
        """Edge-type labels of ``vertex``'s out-edges."""
        if self._edge_types is None:
            raise GraphError("graph has no edge types")
        start, end = self.edge_range(vertex)
        return self._edge_types[start:end]

    def weight_of_edge(self, edge_index: int) -> float:
        """Weight of a single edge by flat index (1.0 if unweighted)."""
        if self._weights is None:
            return 1.0
        return float(self._weights[edge_index])

    def total_out_weight(self, vertex: int) -> float:
        """Sum of the out-edge weights of ``vertex`` (its out-degree if
        the graph is unweighted)."""
        if self._weights is None:
            return float(self.out_degree(vertex))
        start, end = self.edge_range(vertex)
        return float(self._weights[start:end].sum())

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def has_edge(self, source: int, target: int) -> bool:
        """True if the directed edge ``source -> target`` exists.

        O(log d) binary search over the sorted adjacency slice.  This is
        the primitive behind ``postNeighbourQuery`` in the paper's
        node2vec sample code (Figure 4).
        """
        return self.edge_index(source, target) >= 0

    def edge_index(self, source: int, target: int) -> int:
        """Flat index of edge ``source -> target``, or -1 if absent.

        If parallel edges exist, the index of the first one is returned.
        """
        start, end = self.edge_range(source)
        position = int(np.searchsorted(self._targets[start:end], target))
        index = start + position
        if index < end and self._targets[index] == target:
            return index
        return -1

    def _edge_key_array(self) -> np.ndarray | None:
        """Sorted keys ``source * |V| + target``, one per edge: int32
        while |V|**2 <= 2**31, else int64.

        CSR stores targets sorted within each source slice, so the key
        array is globally non-decreasing and a single C-level
        ``np.searchsorted`` answers thousands of adjacency queries at
        once — replacing the lane-stepped Python binary search that
        dominated the dynamic-walk hot path.  Returns ``None`` when the
        key would overflow int64 (|V| >= ~3e9), in which case callers
        fall back to :meth:`_bound_batch`.
        """
        if self.num_vertices >= KEY_VERTEX_LIMIT:
            return None
        if self._edge_keys is None:
            with self._locked():
                if self._edge_keys is None:
                    dtype = index_dtype(self.num_vertices**2)
                    keys = np.repeat(
                        np.arange(self.num_vertices, dtype=dtype),
                        np.diff(self._offsets),
                    )
                    keys *= dtype.type(self.num_vertices)
                    keys += self._targets
                    keys.setflags(write=False)
                    self._edge_keys = keys
        return self._edge_keys

    def has_edges_batch(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised ``has_edge`` over aligned source/target arrays.

        Used by the vectorised node2vec kernel to answer many state
        queries at once.  Pay as you go: a probe of the hash set is
        several times cheaper than a bisection of the sorted keys, but
        building the set costs about what bisecting one query per key
        does — so queries are bisected until that many were answered,
        and the set is built only for a graph that outlives them (a
        short-lived epoch of a dynamic graph never pays for it).  The
        switch is taken under the graph's lock, so threads that cross it
        together build the set once.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise GraphError("sources and targets must align")
        if sources.size == 0:
            return np.zeros(sources.shape, dtype=bool)
        keys = self._edge_key_array()
        if keys is None:
            first, _count = self.edge_span_batch(sources, targets)
            return first >= 0
        # In the keys' dtype: int32 keys searched with int64 queries
        # would be copied whole on every call.
        queries = sources * np.int64(self.num_vertices) + targets
        queries = queries.astype(keys.dtype, copy=False)
        key_hash = self._key_hash
        if key_hash is None:
            with self._locked():
                key_hash = self._key_hash
                if key_hash is None and self._bisected_queries < keys.size:
                    self._bisected_queries += queries.size
                elif key_hash is None:
                    key_hash = self._key_hash = _build_key_hash(keys)
            if key_hash is None:
                at = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
                return keys[at] == queries
        table, bits = key_hash
        return _key_hash_contains(table, bits, queries)

    def edge_span_batch(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each (source, target) pair, the flat index of the first
        matching edge (-1 if absent) and the number of parallel copies.

        node2vec's outlier folding uses this to locate the return edge
        and its exact static mass, even when parallel edges exist.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise GraphError("sources and targets must align")
        if sources.size == 0:
            empty = np.zeros(sources.shape, dtype=np.int64)
            return empty - 1, empty.copy()
        keys = self._edge_key_array()
        if keys is None:
            lower = self._bound_batch(sources, targets, strict=True)
            upper = self._bound_batch(sources, targets, strict=False)
        else:
            queries = sources * np.int64(self.num_vertices) + targets
            queries = queries.astype(keys.dtype, copy=False)
            lower = np.searchsorted(keys, queries, side="left")
            upper = np.searchsorted(keys, queries, side="right")
        counts = upper - lower
        first = np.where(counts > 0, lower, -1)
        return first, counts

    def _bound_batch(
        self, sources: np.ndarray, targets: np.ndarray, strict: bool
    ) -> np.ndarray:
        """Lane-stepped binary search over each source's adjacency slice.

        ``strict=True`` gives lower_bound (first index with value >=
        target), ``strict=False`` gives upper_bound (first index with
        value > target).  Kept as the fallback for graphs too large for
        the packed-key fast path (and as the reference the key-based
        implementation is tested against).
        """
        low = self._offsets[sources].copy()
        high = self._offsets[sources + 1].copy()
        clamp = max(self.num_edges - 1, 0)
        adjacency = self._targets
        active = low < high
        while active.any():
            mid = (low + high) >> 1
            probe = adjacency[np.minimum(mid, clamp)]
            go_right = active & (
                (probe < targets) if strict else (probe <= targets)
            )
            low = np.where(go_right, mid + 1, low)
            high = np.where(active & ~go_right, mid, high)
            active = low < high
        return low

    # ------------------------------------------------------------------
    # Statistics and validation
    # ------------------------------------------------------------------
    def degree_stats(self) -> DegreeStats:
        """Mean/variance/min/max of the out-degree distribution."""
        degrees = self.out_degrees()
        if degrees.size == 0:
            return DegreeStats(0.0, 0.0, 0, 0)
        return DegreeStats(
            mean=float(degrees.mean()),
            variance=float(degrees.var()),
            min=int(degrees.min()),
            max=int(degrees.max()),
        )

    def max_out_degree(self) -> int:
        degrees = self.out_degrees()
        return int(degrees.max()) if degrees.size else 0

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`.

        Verifies per-vertex target sorting, that every weight is
        finite and, for graphs flagged undirected, that every edge has
        its reverse stored too.
        """
        if self._weights is not None and not np.isfinite(self._weights).all():
            edge = int(np.argmin(np.isfinite(self._weights)))
            raise GraphError(
                f"weight of edge {edge} is not finite ({self._weights[edge]})"
            )
        for vertex in range(self.num_vertices):
            start, end = self.edge_range(vertex)
            slice_ = self._targets[start:end]
            if slice_.size > 1 and np.any(np.diff(slice_) < 0):
                raise GraphError(f"adjacency of vertex {vertex} is not sorted")
        if self._undirected:
            for vertex in range(self.num_vertices):
                for target in self.neighbors(vertex):
                    if not self.has_edge(int(target), vertex):
                        raise GraphError(
                            f"undirected graph missing reverse edge "
                            f"{target} -> {vertex}"
                        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "undirected" if self._undirected else "directed"
        extras = []
        if self.is_weighted:
            extras.append("weighted")
        if self.is_heterogeneous:
            extras.append("typed")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"{kind}{suffix})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        ):
            return False
        for mine, theirs in (
            (self._weights, other._weights),
            (self._edge_types, other._edge_types),
            (self._vertex_types, other._vertex_types),
        ):
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not np.array_equal(mine, theirs):
                return False
        return self._undirected == other._undirected

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)
