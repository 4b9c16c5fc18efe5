"""Inverse transform sampling (ITS) over per-vertex edge distributions.

ITS (paper section 3, Figure 1a) stores the cumulative distribution of
each vertex's out-edge weights as a prefix-sum array; sampling draws a
uniform value in ``[0, total)`` and binary-searches the CDF, costing
O(log n) per draw after O(n) pre-processing.

Two consumers in this reproduction use ITS:

* KnightKing itself can use ITS instead of alias as the static
  candidate generator (the engines accept either); and
* the Gemini baseline's two-phase sampler uses ITS in both phases, as
  described in the paper's evaluation setup (section 7.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.sampling.tables import VertexTables, compact_slices

__all__ = ["VertexITSTables", "its_sample_from_cdf", "segmented_cumsum"]

# Degree cutoff for the rank-iteration segmented prefix sum: slices no
# longer than this are accumulated together, one vectorised pass per
# rank; longer slices get a direct per-slice ``np.cumsum``.  Both paths
# add the same float64 values in the same left-to-right order, so the
# result is bit-identical either way — the split is purely about not
# paying O(max_degree) passes for a handful of hub vertices.
_RANK_ITERATION_CUTOFF = 256


def segmented_cumsum(
    values: np.ndarray, offsets: np.ndarray, segments: np.ndarray | None = None
) -> np.ndarray:
    """Per-slice inclusive prefix sums, slice ``i`` = ``[offsets[i], offsets[i+1])``.

    ``segments`` picks the slices to accumulate (``None``: all of
    them); the result holds theirs laid end to end in the order asked
    for.  Bit-identical to running ``np.cumsum`` on every slice
    separately: each slice is accumulated strictly left-to-right in
    float64, with no cross-slice carry.  That per-slice decomposability
    is what lets the dynamic-graph path rebuild only touched vertices'
    CDFs and byte-copy the rest while remaining exactly equal to a
    from-scratch build.
    """
    values, offsets = compact_slices(
        np.asarray(values, dtype=np.float64), offsets, segments
    )
    out = values.copy()
    starts = offsets[:-1]
    degrees = offsets[1:] - starts
    if out.size == 0 or degrees.size == 0:
        return out
    max_degree = int(degrees.max())
    small = degrees <= _RANK_ITERATION_CUTOFF
    for rank in range(1, min(max_degree, _RANK_ITERATION_CUTOFF)):
        sel = starts[small & (degrees > rank)] + rank
        if sel.size == 0:
            break
        out[sel] += out[sel - 1]
    for vertex in np.nonzero(~small)[0]:
        lo = starts[vertex]
        hi = lo + degrees[vertex]
        out[lo:hi] = np.cumsum(values[lo:hi])
    return out


def its_sample_from_cdf(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an index from a single inclusive prefix-sum array."""
    total = float(cdf[-1])
    if total <= 0:
        raise SamplingError("ITS over an all-zero distribution")
    draw = rng.random() * total
    return int(np.searchsorted(cdf, draw, side="right"))


class VertexITSTables(VertexTables):
    """Per-vertex inclusive prefix sums over out-edge static weights.

    Layout matches :class:`~repro.sampling.alias.VertexAliasTables`:
    vertex ``v``'s CDF occupies its CSR edge slice in one flat array,
    with ``cdf[offsets[v+1]-1]`` equal to the vertex's total weight.
    """

    _PER_EDGE = ("_cdf",)

    @staticmethod
    def _build(values, offsets, segments=None):
        cdf = segmented_cumsum(values, offsets, segments)
        if segments is None:
            degrees = np.diff(offsets)
        else:
            degrees = offsets[segments + 1] - offsets[segments]
        ends = np.cumsum(degrees)
        nonempty = degrees > 0
        totals = np.zeros(degrees.size, dtype=np.float64)
        totals[nonempty] = cdf[ends[nonempty] - 1]
        return totals, cdf

    def _install(self, totals: np.ndarray, arrays: list[np.ndarray]) -> None:
        """Derive the global-coordinate arrays from per-vertex state.

        ``base[v]`` is the exclusive prefix sum of per-vertex totals and
        ``running`` shifts every slice into those global coordinates:
        batch sampling maps each draw to ``base[v] + u * total[v]`` and
        resolves every lane with one searchsorted.  They do depend on
        where a slice lies, so they are derived here — after a full
        build and after an epoch's update alike — never copied.
        """
        super()._install(totals, arrays)
        base = np.zeros(totals.size, dtype=np.float64)
        np.cumsum(totals[:-1], out=base[1:])
        self._base = base
        self._running = self._cdf + np.repeat(base, np.diff(self._graph.offsets))

    def cdf_of(self, vertex: int) -> np.ndarray:
        """The inclusive prefix-sum slice of ``vertex``."""
        start, end = self._graph.edge_range(vertex)
        return self._cdf[start:end]

    def sample(self, vertex: int, rng: np.random.Generator) -> int:
        """Draw a flat edge index via binary search in O(log d)."""
        start, end = self._graph.edge_range(vertex)
        total = self._totals[vertex]
        if start == end or total <= 0:
            raise SamplingError(f"vertex {vertex} has no sampleable out-edges")
        draw = rng.random() * total
        return start + int(
            np.searchsorted(self._cdf[start:end], draw, side="right")
        )

    def sample_batch(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised :meth:`sample` via one global-CDF searchsorted.

        Each lane's draw is shifted into the coordinates of the global
        prefix sum (``base[v] + u * total[v]``), so a single C-level
        ``np.searchsorted`` resolves every lane's binary search at
        once.  Equivalent to the lane-parallel search kept as
        :meth:`_sample_batch_stepped` (the tests check edge-for-edge
        agreement under a shared RNG stream).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        starts = self._graph.offsets[vertices]
        ends = self._graph.offsets[vertices + 1]
        if np.any(starts >= ends):
            raise SamplingError("sample_batch hit a vertex with no out-edges")
        totals = self._totals[vertices]
        if totals.min() <= 0:
            raise SamplingError("sample_batch hit an all-zero distribution")
        draws = self._base[vertices] + rng.random(vertices.size) * totals
        positions = np.searchsorted(self._running, draws, side="right")
        # Floating-point slack between the global prefix sum and the
        # per-vertex one can land a draw one bucket outside its slice.
        return np.clip(positions, starts, ends - 1)

    def _sample_batch_stepped(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Reference lane-parallel binary search (pre-vectorisation).

        Kept because its per-lane arithmetic is the semantic spec for
        :meth:`sample_batch`: both consume one ``rng.random`` call of
        the batch size, so under a shared seed they must agree
        edge-for-edge (up to the same clamping rule).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        low = self._graph.offsets[vertices].copy()
        high = self._graph.offsets[vertices + 1].copy()
        if np.any(low >= high):
            raise SamplingError("sample_batch hit a vertex with no out-edges")
        totals = self._totals[vertices]
        if totals.min() <= 0:
            raise SamplingError("sample_batch hit an all-zero distribution")
        draws = rng.random(vertices.size) * totals

        # Find the first index whose inclusive prefix sum exceeds draw.
        clamp = max(self._cdf.size - 1, 0)
        active = low < high
        while active.any():
            mid = (low + high) >> 1
            go_right = active & (self._cdf[np.minimum(mid, clamp)] <= draws)
            low = np.where(go_right, mid + 1, low)
            high = np.where(active & ~go_right, mid, high)
            active = low < high
        # Floating-point slack can push a draw past the last bucket.
        return np.minimum(low, self._graph.offsets[vertices + 1] - 1)
