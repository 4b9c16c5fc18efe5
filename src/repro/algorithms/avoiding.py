"""Windowed self-avoiding walk — a higher-order (order > 2) program.

The paper's unified definition allows walker state to carry "the
previous n vertices visited" (section 2.2) even though every evaluated
algorithm needs only one step of history.  This program exercises the
engine's configurable history depth: the walker refuses to revisit any
of its last ``window`` stops (Pd = 0 on edges leading back into the
window, 1 elsewhere), a classic exploration-boosting bias used in graph
sampling.

With ``window = 1`` it degenerates to the non-backtracking walk.  A
walker whose every out-edge leads into the window dead-ends (the
zero-mass guard terminates it, per the no-positive-probability rule).
"""

from __future__ import annotations

import numpy as np

from repro.core.program import WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet, WalkerView
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.tables import unit_weights

__all__ = ["WindowedSelfAvoidingWalk"]


class WindowedSelfAvoidingWalk(WalkerProgram):
    """Walk that never revisits its last ``window`` stops.

    Parameters
    ----------
    window:
        how many recent vertices are forbidden; sets the engine's
        per-walker history depth.
    biased:
        whether Ps follows edge weights.
    """

    name = "self-avoiding"
    dynamic = True
    order = 2  # history-dependent, but all checks are local
    supports_batch = True

    def __init__(self, window: int = 2, biased: bool = True) -> None:
        if window < 1:
            raise ProgramError("window must be at least 1")
        self.window = int(window)
        self.history_depth = int(window)
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
        candidate = int(graph.targets[edge_index])
        recent = walker.recent
        blocked = bool(np.any(recent == candidate))
        return 0.0 if blocked else 1.0

    def upper_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=np.float64)

    def lower_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.zeros(graph.num_vertices, dtype=np.float64)

    # ------------------------------------------------------------------
    def _recent_matrix(self, walkers: WalkerSet, walker_ids: np.ndarray):
        if walkers.history is not None:
            return walkers.history[walker_ids]
        return walkers.previous[walker_ids][:, None]

    def batch_dynamic_comp(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> np.ndarray:
        candidates = graph.targets[candidate_edges]
        recent = self._recent_matrix(walkers, walker_ids)
        blocked = np.any(recent == candidates[:, None], axis=1)
        # NO_VERTEX padding never equals a real candidate id (>= 0).
        return np.where(blocked, 0.0, 1.0)

    def batch_dynamic_with_answers(
        self, graph, walkers, walker_ids, candidate_edges, answers, answered
    ) -> np.ndarray:
        return self.batch_dynamic_comp(graph, walkers, walker_ids, candidate_edges)

    def batch_state_queries(
        self, graph, walkers, walker_ids, candidate_edges
    ) -> tuple[np.ndarray, np.ndarray]:
        # History is local walker state: no remote queries ever.
        targets = np.full(walker_ids.size, -1, dtype=np.int64)
        return targets, graph.targets[candidate_edges]
