"""The traditional full-scan baseline for dynamic random walk.

Before KnightKing, exact implementations of dynamic walks recomputed
the transition probability of *every* out-edge at each step, then drew
one edge by inverse transform sampling (paper sections 1 and 3).  The
cost is O(deg) probability computations per step — the "Full-scan
average overhead" column of Table 1 and the "traditional sampling"
series of Figure 6.

:class:`FullScanWalkEngine` implements that strategy on the same
harness as the KnightKing engine, so the two report identical
semantics and directly comparable counters.  For static programs the
scan is unnecessary (probabilities are precomputed), so it falls back
to plain table sampling with zero Pd evaluations, like real systems do.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import WalkEngine
from repro.core.kernels import GatherContext
from repro.graph.csr import CSRGraph

__all__ = ["FullScanWalkEngine", "gather_out_edges", "segmented_sample"]


def gather_out_edges(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat edge indices of all out-edges of ``vertices``.

    Returns ``(edge_indices, segment_ids, segment_offsets)`` where
    ``segment_ids[j]`` says which input lane edge ``j`` belongs to and
    ``segment_offsets`` (length ``len(vertices) + 1``) delimits each
    lane's slice in the gathered arrays.
    """
    starts = graph.offsets[vertices]
    degrees = graph.offsets[vertices + 1] - starts
    total = int(degrees.sum())
    segment_offsets = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=segment_offsets[1:])
    segment_ids = np.repeat(np.arange(vertices.size, dtype=np.int64), degrees)
    positions = np.arange(total, dtype=np.int64) - np.repeat(
        segment_offsets[:-1], degrees
    )
    edge_indices = np.repeat(starts, degrees) + positions
    return edge_indices, segment_ids, segment_offsets


def segmented_sample(
    mass: np.ndarray,
    segment_offsets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """ITS draw within each segment of a concatenated mass array.

    Returns ``(choices, totals)``: per segment, the chosen position in
    the *flat* array (or -1 when the segment's total mass is zero) and
    the segment's total mass.  This is the vectorised equivalent of
    building each vertex's CDF and binary-searching it — the full-scan
    baseline's per-step sampling procedure.

    Floating-point caveat: the search runs over one global prefix sum,
    so a segment whose total mass is below the ulp of the preceding
    cumulative mass (a ~1e-16 relative corner) samples an arbitrary
    in-segment position rather than a weight-proportional one — the
    distinction is below float resolution to begin with.
    """
    num_segments = segment_offsets.size - 1
    cumulative = np.cumsum(mass)
    base = np.where(
        segment_offsets[:-1] > 0, cumulative[segment_offsets[:-1] - 1], 0.0
    )
    ends = segment_offsets[1:]
    # Per-segment totals via reduceat, not cumsum differences: a tiny
    # segment following a large one would cancel to zero and kill a
    # walker that still has positive transition mass.
    if mass.size == 0:
        totals = np.zeros(num_segments)
    else:
        starts = np.minimum(segment_offsets[:-1], mass.size - 1)
        totals = np.add.reduceat(mass, starts)
        totals = np.where(ends > segment_offsets[:-1], totals, 0.0)

    choices = np.full(num_segments, -1, dtype=np.int64)
    viable = totals > 0
    if not viable.any():
        return choices, totals
    draws = base + rng.random(num_segments) * totals

    low = segment_offsets[:-1].copy()
    high = ends.copy()
    clamp = max(mass.size - 1, 0)
    active = viable & (low < high)
    while active.any():
        mid = (low + high) >> 1
        go_right = active & (cumulative[np.minimum(mid, clamp)] <= draws)
        low = np.where(go_right, mid + 1, low)
        high = np.where(active & ~go_right, mid, high)
        active = viable & (low < high)
    # Floating-point slack can push a draw one past the segment end.
    choices[viable] = np.minimum(low[viable], ends[viable] - 1)
    return choices, totals


class FullScanWalkEngine(WalkEngine):
    """Exact dynamic walk by per-step full scans (the Table 1 baseline).

    Shares configuration, termination, statistics, and path recording
    with :class:`~repro.core.engine.WalkEngine`; only the sampling
    strategy differs.  ``stats.counters.pd_evaluations`` counts one
    evaluation per scanned edge, and every step costs exactly one
    "trial" (the scan never rejects).
    """

    def _trial_round(self, ctx: GatherContext) -> np.ndarray:
        walker_ids, vertices = ctx.walker_ids, ctx.vertices
        if not self.program.dynamic:
            # Static probabilities are precomputed; sample directly.
            edges = self.tables.sample_batch(vertices, self._rng)
            self.stats.counters.trials += walker_ids.size
            self.stats.counters.accepts += walker_ids.size
            self._commit_moves(walker_ids, self.graph.targets[edges])
            return np.ones(walker_ids.size, dtype=bool)

        edge_indices, segment_ids, segment_offsets = gather_out_edges(
            self.graph, vertices
        )
        dynamic = self.program.batch_dynamic_comp(
            self.graph, self.walkers, walker_ids[segment_ids], edge_indices
        )
        self.stats.counters.pd_evaluations += edge_indices.size
        self.stats.counters.trials += walker_ids.size
        mass = self.tables.static_weights[edge_indices] * dynamic
        choices, _totals = segmented_sample(mass, segment_offsets, self._rng)

        moved = np.ones(walker_ids.size, dtype=bool)
        sampled = choices >= 0
        if sampled.any():
            self.stats.counters.accepts += int(sampled.sum())
            self._commit_moves(
                walker_ids[sampled],
                self.graph.targets[edge_indices[choices[sampled]]],
            )
        dead = np.flatnonzero(~sampled)
        if dead.size:
            # No out-edge with positive transition probability.
            self._kill(walker_ids[dead], "by_dead_end")
        return moved
