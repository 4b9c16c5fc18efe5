"""Unbiased static random walk — the simplest special case.

Both Ps and Pd are identically 1 (paper section 2.2): every out-edge of
the current vertex is equally likely regardless of weights.  Useful as
a baseline workload and as the simplest correctness oracle (its exact
per-step law is uniform over out-neighbours).
"""

from __future__ import annotations

import numpy as np

from repro.core.program import WalkerProgram
from repro.graph.csr import CSRGraph
from repro.sampling.tables import unit_weights

__all__ = ["UniformWalk"]


class UniformWalk(WalkerProgram):
    """Unbiased, static, first-order walk (Ps = Pd = 1)."""

    name = "uniform"
    dynamic = False
    order = 1
    supports_batch = True

    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray:
        # Explicit all-ones: ignore edge weights even on weighted graphs.
        return unit_weights(graph.num_edges)
