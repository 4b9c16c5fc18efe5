"""Personalized PageRank via random walks (paper section 2.2).

Fully-personalized PageRank is too expensive to compute exactly on
large graphs, so the standard approach (Fogaras et al.; PowerWalk)
simulates many short random walks: each walker follows out-edges with
probability proportional to weight and terminates with a fixed
probability Pt per step, so walk endpoints (and visit counts) estimate
the personalized ranking from the start vertex.

As a walk program PPR is *biased static* like DeepWalk — the difference
is purely in the extension component Pe, which here is the geometric
termination coin.  The paper uses Pt = 1/80 (expected length matching
DeepWalk's fixed 80) for Tables 3/4 and Pt = 0.149 (the PowerWalk
setting) for the straggler study of Figure 9.

:func:`estimate_ppr` turns recorded walks into a personalized ranking
estimate for queries from a given source vertex.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import source_visit_distribution
from repro.core.config import WalkConfig
from repro.core.engine import WalkResult
from repro.core.program import WalkerProgram
from repro.graph.csr import CSRGraph

__all__ = ["PPR", "ppr_config", "estimate_ppr", "DEFAULT_TERMINATION", "POWERWALK_TERMINATION"]

# Pt = 1/80 makes the expected walk length match DeepWalk's fixed 80.
DEFAULT_TERMINATION = 1.0 / 80.0
# Pt = 0.149 is the setting PowerWalk uses, adopted for Figure 9.
POWERWALK_TERMINATION = 0.149


class PPR(WalkerProgram):
    """Biased static walk with geometric termination (via config)."""

    name = "ppr"
    dynamic = False
    order = 1
    supports_batch = True

    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray | None:
        return None  # proportional to edge weight


def ppr_config(
    num_walkers: int | None = None,
    termination_probability: float = DEFAULT_TERMINATION,
    seed: int = 0,
    record_paths: bool = False,
    max_steps: int | None = None,
) -> WalkConfig:
    """PPR setup: geometric termination, no step cap by default.

    ``max_steps=None`` leaves walk lengths unbounded (the paper
    observes walks beyond 1000 steps with Pt = 1/80 — the straggler
    behaviour of Figure 5/9).
    """
    return WalkConfig(
        num_walkers=num_walkers,
        max_steps=max_steps,
        termination_probability=termination_probability,
        seed=seed,
        record_paths=record_paths,
    )


def estimate_ppr(
    result: WalkResult, source: int, num_vertices: int
) -> np.ndarray:
    """Estimate the PPR vector of ``source`` from recorded walks.

    Counts visits across all walks that started at ``source``
    (including the start itself), normalised to sum to 1 — the
    Monte-Carlo estimator of the personalized stationary distribution.
    """
    if result.paths is None:
        raise ValueError("estimate_ppr needs record_paths=True walks")
    return source_visit_distribution(result.paths, source, num_vertices)
