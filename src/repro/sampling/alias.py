"""Alias-method sampling (Walker 1977, Vose's variant).

The alias method pre-processes a discrete distribution over ``n``
outcomes into ``n`` buckets, each holding at most two "pieces", such
that buckets have equal total mass (paper section 3, Figure 1b).
Sampling is then O(1): pick a bucket uniformly, then one of its two
pieces by a biased coin.

KnightKing uses per-vertex alias tables over the static transition
component Ps as the candidate-edge generator inside rejection sampling.
:class:`VertexAliasTables` stores every vertex's table in flat arrays
aligned with the CSR edge arrays, so batch sampling across thousands of
walkers at different vertices is a handful of numpy operations.
:func:`build_alias_segments` is the one place a table slice is derived
from a weight slice; the per-vertex and the per-(vertex, type) tables,
epoch maintenance and verification all call it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro._index import index_dtype
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.tables import (
    compact_slices,
    copy_untouched_runs,
    slice_indices,
    static_component,
)

__all__ = [
    "AliasTable",
    "VertexAliasTables",
    "build_alias_arrays",
    "build_alias_segments",
]


def build_alias_arrays(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's algorithm: weights -> (prob, alias) arrays.

    ``prob[i]`` is the probability that bucket ``i`` resolves to
    outcome ``i`` (rather than to ``alias[i]``).  Runs in O(n).
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    if n == 0:
        raise SamplingError("cannot build an alias table over zero outcomes")
    if weights.min() < 0:
        raise SamplingError("alias weights must be non-negative")
    total = weights.sum()
    if not math.isfinite(total):
        # No comparison below orders a NaN: ``prob`` would stay unwritten.
        raise SamplingError("alias weights must have a finite sum")
    if total <= 0:
        raise SamplingError("alias weights must not all be zero")
    scale = n / float(total)
    if not math.isfinite(scale):
        # A tiny total overflows ``n / total``, and ``0 * inf`` is a NaN
        # that neither stack takes.  Scaling by a power of two is exact,
        # so this is the table of the same distribution.
        weights = np.ldexp(weights, 1074)
        scale = n / float(weights.sum())
    return _vose_pairing((weights * scale).tolist())


def _vose_pairing(scaled: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Vose's stack discipline over weights scaled to mean 1.

    Runs on Python floats rather than numpy scalars: both are IEEE-754
    binary64 with round-to-nearest, so the same operations in the same
    order give the same bits, at a fraction of numpy's per-element cost.
    """
    n = len(scaled)
    prob = [1.0] * n  # leftovers are exactly 1 up to floating-point error
    alias = list(range(n))
    small = [i for i, value in enumerate(scaled) if value < 1.0]
    large = [i for i, value in enumerate(scaled) if value >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    return np.array(prob, dtype=np.float64), np.array(alias, dtype=np.int64)


class AliasTable:
    """Alias table over a single discrete distribution."""

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)
        self._prob, self._alias = build_alias_arrays(self._weights)

    @property
    def size(self) -> int:
        return self._prob.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one outcome index in O(1)."""
        bucket = int(rng.integers(0, self.size))
        if rng.random() < self._prob[bucket]:
            return bucket
        return int(self._alias[bucket])

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` outcomes, vectorised."""
        buckets = rng.integers(0, self.size, size=count)
        coins = rng.random(count)
        take_bucket = coins < self._prob[buckets]
        return np.where(take_bucket, buckets, self._alias[buckets])


def build_alias_segments(
    values: np.ndarray, offsets: np.ndarray, segments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables of ``segments`` of ``values`` -> (totals, prob, alias).

    Segment ``i`` is ``values[offsets[i]:offsets[i+1]]``; ``None``
    builds every segment.  The tables are laid end to end in the order
    asked for, each one Vose's over its segment alone, with ``alias``
    counting from the segment's own start — so a table does not depend
    on where its segment lies.  An all-zero segment cannot be sampled:
    its buckets are marked unusable (``prob`` 0) and its total is 0.
    ``alias`` is as wide as an index into all of ``values`` needs, so
    a partial build matches the full one.
    """
    dtype = index_dtype(values.size)
    values, offsets = compact_slices(values, offsets, segments)
    prob = np.empty(values.size, dtype=np.float64)
    alias = np.empty(values.size, dtype=dtype)
    totals = np.zeros(offsets.size - 1, dtype=np.float64)
    bounds = offsets.tolist()
    for segment, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if start == end:
            continue
        weights = values[start:end]
        total = weights.sum()
        totals[segment] = total
        if total <= 0:
            prob[start:end] = 0.0
            alias[start:end] = 0
        else:
            prob[start:end], alias[start:end] = build_alias_arrays(weights)
    return totals, prob, alias


class VertexAliasTables:
    """Per-vertex alias tables over each vertex's out-edge weights.

    The table of vertex ``v`` occupies the same flat index range as its
    CSR edge slice, with alias entries local to the slice: a sampled
    bucket plus the slice's start is a flat edge index.  Build cost is
    O(|E|) total, matching the paper's O(n) per-vertex pre-processing
    bound.

    Parameters
    ----------
    graph:
        the graph whose static component to pre-process.
    static_weights:
        optional flat array of per-edge static components Ps; see
        :func:`~repro.sampling.tables.static_component` for the default.
    """

    def __init__(
        self, graph: CSRGraph, static_weights: np.ndarray | None = None
    ) -> None:
        self._graph = graph
        self._static = static_component(graph, static_weights)
        self._totals, self._prob, self._alias = build_alias_segments(
            self._static, graph.offsets
        )
        self._sizes = _table_sizes(graph, self._totals)

    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @property
    def static_weights(self) -> np.ndarray:
        """The Ps array the tables were built over."""
        return self._static

    @property
    def totals(self) -> np.ndarray:
        """Per-vertex total static mass (|V|-length array)."""
        return self._totals

    @functools.cached_property
    def has_dead_ends(self) -> bool:
        """Whether any vertex is without static mass — if none is, Pe
        never has to look for dead ends.  Tables never change once
        built, so every engine on them shares one scan."""
        return bool(np.count_nonzero(self._totals <= 0.0))

    def total_static(self, vertex: int) -> float:
        """Sum of Ps over ``vertex``'s out-edges."""
        return float(self._totals[vertex])

    def updated(
        self,
        graph: CSRGraph,
        static_weights: np.ndarray | None,
        touched: np.ndarray,
    ) -> VertexAliasTables:
        """Tables for ``graph``, reusing these outside ``touched``.

        ``graph`` differs from this one's only at the ``touched``
        vertices' slices.  Bit-identical to ``VertexAliasTables(graph,
        static_weights)``.
        """
        touched = np.unique(np.asarray(touched, dtype=np.int64))
        static = static_component(graph, static_weights, touched)
        totals, prob, alias = build_alias_segments(static, graph.offsets, touched)
        new_totals = self._totals.copy()
        new_totals[touched] = totals
        new_prob = np.empty(graph.num_edges, dtype=prob.dtype)
        new_alias = np.empty(graph.num_edges, dtype=alias.dtype)
        rebuilt_at = slice_indices(graph.offsets, touched)
        new_prob[rebuilt_at] = prob
        new_alias[rebuilt_at] = alias
        copy_untouched_runs(
            self._graph.offsets,
            graph.offsets,
            touched,
            [(self._prob, new_prob), (self._alias, new_alias)],
        )
        return self._of(graph, static, new_totals, new_prob, new_alias)

    @classmethod
    def assemble(
        cls,
        graph: CSRGraph,
        static_weights: np.ndarray | None,
        slices: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> VertexAliasTables:
        """Tables for ``graph`` from :func:`build_alias_segments` outputs
        over consecutive vertex ranges that cover every vertex, in order.

        Bit-identical to ``VertexAliasTables(graph, static_weights)``:
        a slice's alias indices count from its own start, so laying the
        slices end to end is the whole build.
        """
        totals, prob, alias = (np.concatenate(column) for column in zip(*slices))
        if totals.size != graph.num_vertices or prob.size != graph.num_edges:
            raise SamplingError("assembled slices do not cover the graph")
        static = static_component(graph, static_weights)
        return cls._of(graph, static, totals, prob, alias)

    @classmethod
    def _of(cls, graph, static, totals, prob, alias) -> VertexAliasTables:
        """Tables from arrays already built in ``graph``'s layout."""
        tables = cls.__new__(cls)
        tables._graph, tables._static = graph, static
        tables._totals, tables._prob, tables._alias = totals, prob, alias
        tables._sizes = _table_sizes(graph, totals)
        return tables

    def mismatches(self, vertices: np.ndarray) -> list[int]:
        """Those of ``vertices`` whose slices differ from a rebuild.

        Exact comparison, no tolerance: the maintenance contract is bit
        identity, and any drift — however small — would desynchronise
        replays across processes.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        offsets = self._graph.offsets
        totals, prob, alias = build_alias_segments(self._static, offsets, vertices)
        differs = self._totals[vertices] != totals
        at = slice_indices(offsets, vertices)
        owner = np.repeat(
            np.arange(vertices.size), offsets[vertices + 1] - offsets[vertices]
        )
        differs[owner[(self._prob[at] != prob) | (self._alias[at] != alias)]] = True
        return vertices[differs].tolist()

    def sample(self, vertex: int, rng: np.random.Generator) -> int:
        """Draw a flat edge index from ``vertex``'s static distribution.

        Raises :class:`SamplingError` on vertices without positive-mass
        out-edges (callers should treat those as walk termination).
        """
        start, end = self._graph.edge_range(vertex)
        if start == end or self._totals[vertex] <= 0:
            raise SamplingError(f"vertex {vertex} has no sampleable out-edges")
        bucket = start + int(rng.integers(0, end - start))
        if rng.random() < self._prob[bucket]:
            return bucket
        return start + int(self._alias[bucket])

    def sample_batch(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised :meth:`sample` for an array of vertices.

        Every vertex must have positive static mass, as :meth:`sample`
        demands; one that has none raises :class:`SamplingError`.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        count = vertices.size
        sizes = self._sizes[vertices]
        if np.count_nonzero(sizes) < count:
            raise SamplingError("sample_batch hit a vertex without positive mass")
        starts = self._graph.offsets[vertices]
        draws = rng.random(count)
        draws *= sizes
        buckets = draws.astype(np.int64)
        buckets += starts
        coins = rng.random(count)
        edges = self._alias[buckets] + starts
        np.copyto(edges, buckets, where=coins < self._prob[buckets])
        return edges


def _table_sizes(graph: CSRGraph, totals: np.ndarray) -> np.ndarray:
    """Buckets a draw at each vertex picks among: its out-degree, or 0
    where it has no positive mass — so one gather both sizes the draws
    of :meth:`VertexAliasTables.sample_batch` and refuses every vertex
    :meth:`VertexAliasTables.sample` refuses."""
    sizes = np.diff(graph.offsets).astype(np.float64)  # what the draws scale by
    sizes[totals <= 0.0] = 0.0
    return sizes
