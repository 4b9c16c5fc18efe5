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
from collections.abc import Iterable

import numpy as np

from repro._index import index_dtype
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.tables import (
    compact_slices,
    copy_untouched_runs,
    is_unit_weights,
    ranges,
    segment_sums,
    slice_indices,
    static_component,
    unit_weights,
)

__all__ = [
    "AliasTable",
    "VertexAliasTables",
    "build_alias_arrays",
    "build_alias_segments",
]

# Edges per chunk of a weighted build.  Every chunk pays its own
# lock-step rounds, so larger chunks build faster, up to about this
# size; what a chunk holds beyond the output (~25 bytes an edge of
# numpy arrays, and the finish's Python lists) brings a twitter x1
# build's tracemalloc peak to 1.5x its output (1.9x at 2**17).
CHUNK_EDGES = 1 << 16
# Tables a lock-step round pairs at the least.  A round costs ~13 us
# of numpy calls plus ~60 ns a table, a pairing left to the scalar
# finish ~250 ns with its share of the list set-up: below ~64 tables
# the scalar pass finishes sooner (48 to 96 measured alike).
FINISH_LANES = 64
# Stack entries the scalar finish turns into Python lists at once.  In
# one batch, a chunk's hub-sized stacks left a twitter x1 build's
# process 2.4 MB more resident; in batches of this size, 0.9 MB.
FINISH_ENTRIES = 1 << 12


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
    scaled = (weights * scale).tolist()
    prob, alias = [1.0] * n, list(range(n))
    small = [i for i, value in enumerate(scaled) if value < 1.0]
    large = [i for i, value in enumerate(scaled) if value >= 1.0]
    _vose_pairing(scaled, prob, alias, [(small, large)])
    return np.array(prob, dtype=np.float64), np.array(alias, dtype=np.int64)


def _vose_pairing(
    scaled: list[float],
    prob: list[float],
    alias: list[int],
    stacks: Iterable[tuple[list[int], list[int]]],
) -> None:
    """Vose's stack discipline, in place, over weights scaled to mean 1.

    ``stacks`` yields each table's ``(small, large)`` index lists in
    ascending order (its ``< 1`` and ``>= 1`` entries).  Indices are
    positions in the three lists, so one call pairs every table of a
    chunk laid end to end.  Only the entries paired off are written:
    the ones left over when a stack empties keep what the caller put
    there, which is ``prob`` 1 (exactly 1 up to floating-point error)
    and an alias to themselves.

    Runs on Python floats rather than numpy scalars: both are IEEE-754
    binary64 with round-to-nearest, so the same operations in the same
    order give the same bits, at a fraction of numpy's per-element cost.
    """
    for small, large in stacks:
        while small and large:
            lo = small.pop()
            hi = large.pop()
            piece = scaled[lo]
            prob[lo] = piece
            alias[lo] = hi
            residual = (scaled[hi] + piece) - 1.0
            scaled[hi] = residual
            if residual < 1.0:
                small.append(hi)
            else:
                large.append(hi)


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
    ``values`` is a validated Ps (finite, non-negative); a segment
    whose sum overflows is refused by its id — ``segments[i]``, or
    ``i``: its vertex.  ``alias`` is as wide as an index into all of
    ``values`` needs, so a partial build matches the full one.

    A real Ps array is built a chunk of about ``CHUNK_EDGES`` edges at
    a time (:func:`_build_chunk`), its tables paired in lock step and
    its last few by the scalar pass.  The :func:`unit_weights` Ps — the
    unweighted default table, rebuilt per request when serving a
    static graph — keeps one :func:`build_alias_arrays` call per
    segment: through the chunks, that serving path's peak memory grew
    (docs/INTERNALS.md, section 14).
    """
    dtype = index_dtype(values.size)
    per_segment = is_unit_weights(values)  # decided before it is copied
    values, offsets = compact_slices(values, offsets, segments)
    prob = np.empty(values.size, dtype=np.float64)
    alias = np.empty(values.size, dtype=dtype)
    totals = np.zeros(offsets.size - 1, dtype=np.float64)
    if not per_segment:
        first, count = 0, totals.size
        while first < count:  # a chunk ends at a segment's end
            reach = np.searchsorted(offsets, offsets[first] + CHUNK_EDGES, "right")
            last = min(max(int(reach) - 1, first + 1), count)
            _build_chunk(values, offsets, first, last, segments, totals, prob, alias)
            first = last
        return totals, prob, alias
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


def _build_chunk(values, offsets, first, last, segments, totals, prob, alias):
    """Segments ``first:last`` of :func:`build_alias_segments`, bit for
    bit as :func:`build_alias_arrays` builds each one: numpy takes every
    segment's total, scale and ``< 1`` split at once, and the pairing
    runs only on segments with both a small and a large entry — the
    rest keep ``prob`` 1 and the identity, as the pass would leave
    them.  Those segments pair in lock step (:func:`_vose_lock_step`),
    whose last few lanes the scalar pass finishes.  A zero-mass segment
    gets ``prob`` 0, and one whose ``n / total`` overflows goes to
    :func:`build_alias_arrays` for its exact rescale."""
    bounds = offsets[first : last + 1]
    start, end = int(bounds[0]), int(bounds[-1])
    local = bounds - start
    degrees = np.diff(local)
    weights = values[start:end]
    sums = segment_sums(weights, local)
    finite = np.isfinite(sums)
    if not finite.all():
        at = first + int(np.argmin(finite))
        vertex = at if segments is None else int(segments[at])
        raise SamplingError(f"alias weights of vertex {vertex} have no finite sum")
    totals[first:last] = sums
    with np.errstate(all="ignore"):  # 0 / 0, n / 0 and n / tiny
        scales = degrees / sums
    plain = np.isfinite(scales)  # not empty, zero-mass or subnormal-total
    scaled = np.repeat(np.where(plain, scales, 0.0), degrees)
    scaled *= weights
    small = scaled < 1.0
    running = np.zeros(end - start + 1, dtype=np.int64)
    np.cumsum(small, out=running[1:])
    small_at = running[local]  # smalls before each segment's start
    del running
    smalls = np.diff(small_at)
    pairs = np.flatnonzero(plain & (smalls > 0) & (smalls < degrees))
    small_lo, small_hi = small_at[pairs], small_at[pairs + 1]
    large_lo, large_hi = local[pairs] - small_lo, local[pairs + 1] - small_hi
    chunk_prob, chunk_alias = prob[start:end], alias[start:end]
    chunk_prob.fill(1.0)
    chunk_alias.fill(-1)  # -1: left unpaired
    _vose_lock_step(
        scaled,
        np.flatnonzero(small),
        np.flatnonzero(~small),
        np.stack([small_lo, small_hi, large_lo, large_hi]),
        chunk_prob,
        chunk_alias,
    )
    unpaired = np.flatnonzero(chunk_alias < 0)
    chunk_alias[unpaired] = unpaired
    chunk_alias -= np.repeat(local[:-1], degrees)
    for segment in np.flatnonzero(~plain & (degrees > 0)).tolist():
        lo, hi = start + int(local[segment]), start + int(local[segment + 1])
        if sums[segment] <= 0:
            prob[lo:hi], alias[lo:hi] = 0.0, 0
        else:  # a subnormal total: the exact rescale
            prob[lo:hi], alias[lo:hi] = build_alias_arrays(values[lo:hi])


def _vose_lock_step(scaled, small_all, large_all, lanes, prob, alias):
    """Vose's stack discipline over many tables at once, in place.

    ``small_all`` / ``large_all`` list the ``< 1`` and ``>= 1`` positions
    of ``scaled`` in ascending order, and each column of ``lanes`` is
    one table's stacks, ``small_all[small_lo:small_top]`` and
    ``large_all[large_lo:large_top]``.  A demoted large goes where the
    small it was paired with was popped from, so both stacks stay
    ranges.  One numpy round is one pop of :func:`_vose_pairing` in
    every table, its residual ``(scaled[hi] + scaled[lo]) - 1.0``
    written back to ``scaled`` — the same operations in the same
    order, so the same bits.  A table leaves when a stack empties;
    once fewer than ``FINISH_LANES`` remain (the hubs of a power-law
    chunk), their stacks go to :func:`_vose_pairing` as they stand.
    """
    while lanes.shape[1] >= FINISH_LANES:
        small_lo, small_top, large_lo, large_top = lanes
        small_top -= 1
        lo = small_all[small_top]
        hi = large_all[large_top - 1]
        piece = scaled[lo]
        prob[lo] = piece
        alias[lo] = hi
        residual = scaled[hi] + piece
        residual -= 1.0
        scaled[hi] = residual
        demoted = residual < 1.0
        small_all[small_top] = np.where(demoted, hi, lo)
        small_top += demoted
        large_top -= demoted
        live = (small_top > small_lo) & (large_top > large_lo)
        if not live.all():
            lanes = lanes[:, live]
    if lanes.shape[1]:
        _finish_lanes(scaled, small_all, large_all, lanes, prob, alias)


def _finish_lanes(scaled, small_all, large_all, lanes, prob, alias):
    """The tables of :func:`_vose_lock_step`'s ``lanes`` through
    :func:`_vose_pairing`, about ``FINISH_ENTRIES`` stack entries at a
    time (a hub's alone), each batch with one list conversion: its
    small stacks laid end to end, then its large stacks, so each stack
    is a range of the Python lists."""
    widths = np.cumsum((lanes[1] - lanes[0]) + (lanes[3] - lanes[2]))
    cuts = np.flatnonzero(np.diff(widths // FINISH_ENTRIES)) + 1
    for batch in np.split(lanes, cuts, axis=1):
        small_lo, small_top, large_lo, large_top = batch
        smalls, larges = small_top - small_lo, large_top - large_lo
        at = np.concatenate(
            (small_all[ranges(small_lo, smalls)], large_all[ranges(large_lo, larges)])
        )
        small_ends, large_ends = np.cumsum(smalls), np.cumsum(larges) + smalls.sum()
        size = at.size
        paired_prob, paired_alias = [1.0] * size, [-1] * size
        _vose_pairing(
            scaled[at].tolist(),
            paired_prob,
            paired_alias,
            (
                (list(range(a, b)), list(range(c, d)))
                for a, b, c, d in zip(
                    (small_ends - smalls).tolist(),
                    small_ends.tolist(),
                    (large_ends - larges).tolist(),
                    large_ends.tolist(),
                )
            ),
        )
        prob[at] = np.fromiter(paired_prob, dtype=np.float64, count=size)
        paired = np.fromiter(paired_alias, dtype=np.int64, count=size)
        alias[at] = np.append(at, -1)[paired]  # the unpaired keep their -1


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

    def __getstate__(self) -> dict:
        # The unit Ps pickles as None, not as |E| float64s.
        if is_unit_weights(self._static):
            return dict(self.__dict__, _static=None)
        return self.__dict__

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._static is None:
            self._static = unit_weights(self._graph.num_edges)

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
