"""The traditional full-scan baseline for dynamic random walk.

Before KnightKing, exact implementations of dynamic walks recomputed
the transition probability of *every* out-edge at each step, then drew
one edge by inverse transform sampling (paper sections 1 and 3).  The
cost is O(deg) probability computations per step — the "Full-scan
average overhead" column of Table 1 and the "traditional sampling"
series of Figure 6.

:class:`FullScanWalkEngine` implements that strategy on the same
harness as the KnightKing engine — the scan and draw are the engine's
zero-mass guard kernel, :func:`~repro.core.kernels.full_scan_spans` —
so the two report identical semantics and directly comparable
counters.  For static programs the scan is unnecessary (probabilities
are precomputed), so it falls back to plain table sampling with zero
Pd evaluations, like real systems do.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import WalkEngine
from repro.core.kernels import GatherContext, full_scan_spans

__all__ = ["FullScanWalkEngine"]


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
        counters = self.stats.counters
        moved = np.ones(walker_ids.size, dtype=bool)
        if not self.program.dynamic:
            # Static probabilities are precomputed; sample directly.
            edges = self.tables.sample_batch(vertices, self._rng)
            counters.trials += walker_ids.size
            counters.accepts += walker_ids.size
            self._commit_moves(walker_ids, self.graph.targets[edges])
            return moved

        spans = full_scan_spans(
            self.graph, self.tables, self.program, self.walkers, walker_ids
        )
        counters.pd_evaluations += spans.flat_edges.size
        counters.trials += walker_ids.size
        sampled = spans.totals > 0.0
        if sampled.any():  # one uniform per lane, dead lanes included
            edges = spans.sample(np.arange(walker_ids.size), self._rng)
            counters.accepts += int(np.count_nonzero(sampled))
            self._commit_moves(
                walker_ids[sampled], self.graph.targets[edges[sampled]]
            )
        dead = np.flatnonzero(~sampled)
        if dead.size:
            # No out-edge with positive transition probability.
            self._kill(walker_ids[dead], "by_dead_end")
        return moved
