"""Non-backtracking random walk.

A second-order walk that forbids immediately revisiting the previous
vertex (Pd = 0 on the return edge, 1 elsewhere).  Non-backtracking
walks mix faster than simple random walks and underpin spectral
clustering and community detection methods; as a walk program they are
the minimal demonstration of second-order dynamics — the walker's
one-step history changes the transition law, but no remote adjacency
information is needed (the return-edge check is local).

Degenerate case: at a degree-1 vertex every edge is the return edge, so
the total transition mass is zero and the walk terminates (the engines'
zero-mass guard handles this, matching the paper's
no-positive-probability termination rule).
"""

from __future__ import annotations

import numpy as np

from repro.core.program import WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet, WalkerView
from repro.graph.csr import CSRGraph
from repro.sampling.tables import unit_weights

__all__ = ["NonBacktrackingWalk"]


class NonBacktrackingWalk(WalkerProgram):
    """Biased walk that never immediately returns where it came from.

    Parameters
    ----------
    biased:
        whether Ps follows edge weights (default) or is uniform.
    """

    name = "non-backtracking"
    dynamic = True
    order = 2
    supports_batch = True

    def __init__(self, biased: bool = True) -> None:
        self.biased = bool(biased)

    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray | None:
        if self.biased:
            return None
        return unit_weights(graph.num_edges)

    # ------------------------------------------------------------------
    def edge_dynamic_comp(
        self,
        graph: CSRGraph,
        walker: WalkerView,
        edge_index: int,
        query_result: object | None = None,
    ) -> float:
        if walker.prev == NO_VERTEX:
            return 1.0
        return 0.0 if int(graph.targets[edge_index]) == walker.prev else 1.0

    def upper_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=np.float64)

    def lower_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.zeros(graph.num_vertices, dtype=np.float64)

    # ------------------------------------------------------------------
    def batch_dynamic_comp(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> np.ndarray:
        previous = walkers.previous[walker_ids]
        candidates = graph.targets[candidate_edges]
        blocked = (previous != NO_VERTEX) & (candidates == previous)
        return np.where(blocked, 0.0, 1.0)

    def batch_dynamic_with_answers(
        self, graph, walkers, walker_ids, candidate_edges, answers, answered
    ) -> np.ndarray:
        # The return-edge check is purely local; answers are unused.
        return self.batch_dynamic_comp(graph, walkers, walker_ids, candidate_edges)

    def batch_state_queries(
        self, graph, walkers, walker_ids, candidate_edges
    ) -> tuple[np.ndarray, np.ndarray]:
        # Never query: Pd needs no remote vertex state.
        targets = np.full(walker_ids.size, -1, dtype=np.int64)
        return targets, graph.targets[candidate_edges]
