"""The walker-centric programming model (paper section 5.2).

A random walk algorithm is specified by subclassing
:class:`WalkerProgram` and overriding the hooks that correspond one-to-
one to KnightKing's APIs:

==========================  =======================================
paper API (Figure 4)        WalkerProgram hook
==========================  =======================================
``edgeStaticComp``          :meth:`WalkerProgram.edge_static_comp`
``edgeDynamicComp``         :meth:`WalkerProgram.edge_dynamic_comp`
``dynamicCompUpperBound``   :meth:`WalkerProgram.dynamic_upper_bound`
``dynamicCompLowerBound``   :meth:`WalkerProgram.dynamic_lower_bound`
``postStateQuery``          :meth:`WalkerProgram.state_query`
(query execution)           :meth:`WalkerProgram.answer_state_query`
(outlier declaration)       :meth:`WalkerProgram.outlier_specs`
==========================  =======================================

The unified transition probability is
``P(e) = Ps(e) * Pd(e, v, w) * Pe(v, w)``: Ps comes from
``edge_static_comp`` (pre-processed into alias/ITS tables at init), Pd
from ``edge_dynamic_comp`` (evaluated lazily per rejection-sampling
trial), and Pe from the termination configuration plus
:meth:`WalkerProgram.should_continue`.

Programs may additionally provide *batch* hooks
(:attr:`supports_batch`, :meth:`batch_dynamic_comp`,
:meth:`batch_outliers`); the engines then process walkers in vectorised
numpy batches instead of one Python call per trial.  The scalar hooks
remain the semantic definition — tests assert the two paths agree.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.walker import WalkerSet, WalkerView
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.rejection import OutlierSpec

__all__ = ["WalkerProgram", "StateQuery"]


class StateQuery(NamedTuple):
    """A walker-to-vertex state query (paper section 5.1).

    ``target_vertex`` is the vertex whose owner must answer (node2vec
    asks the walker's previous stop); ``payload`` is algorithm-defined
    (node2vec sends the candidate vertex to test adjacency against).
    """

    target_vertex: int
    payload: int


class WalkerProgram:
    """Base class for random walk algorithm definitions.

    Class attributes
    ----------------
    name:
        human-readable algorithm name (used in reports).
    dynamic:
        whether the algorithm has a non-trivial Pd.  Static programs
        (``dynamic = False``) skip Pd evaluation entirely: the engine
        sets upper == lower so every trial pre-accepts, morphing
        rejection sampling into plain alias/ITS sampling.
    order:
        1 for first-order walks; 2 for second-order (the engine then
        runs the two-round walker-to-vertex query protocol in
        distributed mode).
    supports_batch:
        whether the batch hooks are implemented.
    history_depth:
        how many recent stops the engine must keep per walker (the
        paper's unified definition lets walker state carry "the
        previous n vertices visited"; 1 is enough for the second-order
        algorithms it evaluates).
    """

    name: str = "custom"
    dynamic: bool = False
    order: int = 1
    supports_batch: bool = False
    history_depth: int = 1

    # ------------------------------------------------------------------
    # Static component Ps
    # ------------------------------------------------------------------
    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray | None:
        """Per-edge static components as a flat array, or ``None``.

        ``None`` (the default) means "use edge weights, or 1.0 when the
        graph is unweighted" — the convention of the paper's sample
        code, where ``edgeStaticComp`` returns ``e.weight``.
        """
        return None

    # ------------------------------------------------------------------
    # Dynamic component Pd and its bounds
    # ------------------------------------------------------------------
    def dynamic_upper_bound(self, graph: CSRGraph, vertex: int) -> float:
        """Per-vertex envelope Q(v); mandatory for dynamic programs.

        Must upper-bound Pd over all *non-outlier* edges of ``vertex``
        for every possible walker state.
        """
        return 1.0

    def dynamic_lower_bound(self, graph: CSRGraph, vertex: int) -> float:
        """Optional pre-acceptance bound L(v); 0 disables it.

        Must lower-bound Pd over all edges of ``vertex`` for every
        possible walker state.
        """
        return 0.0

    def upper_bound_array(self, graph: CSRGraph) -> np.ndarray:
        """Vectorised per-vertex envelopes; defaults to looping the
        scalar hook.  Programs with constant bounds should override."""
        return np.asarray(
            [
                self.dynamic_upper_bound(graph, vertex)
                for vertex in range(graph.num_vertices)
            ],
            dtype=np.float64,
        )

    def lower_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.asarray(
            [
                self.dynamic_lower_bound(graph, vertex)
                for vertex in range(graph.num_vertices)
            ],
            dtype=np.float64,
        )

    def edge_dynamic_comp(
        self,
        graph: CSRGraph,
        walker: WalkerView,
        edge_index: int,
        query_result: object | None = None,
    ) -> float:
        """Dynamic component Pd of one candidate edge.

        For second-order programs the engine first runs the state-query
        round and passes the answer in ``query_result``; first-order
        programs receive ``None``.
        """
        return 1.0

    # ------------------------------------------------------------------
    # Walker-to-vertex state queries (second order)
    # ------------------------------------------------------------------
    def state_query(
        self, graph: CSRGraph, walker: WalkerView, edge_index: int
    ) -> StateQuery | None:
        """Query to post for a candidate edge, or ``None`` if this
        trial needs no remote state (paper: ``postStateQuery``)."""
        return None

    def answer_state_query(self, graph: CSRGraph, query: StateQuery) -> object:
        """Execute a query at the node owning ``query.target_vertex``.

        The default implements the standard ``postNeighbourQuery``
        utility: is ``payload`` a neighbour of ``target_vertex``?
        """
        return graph.has_edge(query.target_vertex, query.payload)

    # ------------------------------------------------------------------
    # Outlier folding (paper section 4.2)
    # ------------------------------------------------------------------
    def outlier_specs(
        self, graph: CSRGraph, walker: WalkerView
    ) -> tuple[OutlierSpec, ...]:
        """Outlier edges whose Pd may exceed the envelope, with their
        own bounds.  Default: none."""
        return ()

    # ------------------------------------------------------------------
    # Walker lifecycle and the extension component Pe
    # ------------------------------------------------------------------
    def setup_walkers(
        self, graph: CSRGraph, walkers: WalkerSet, rng: np.random.Generator
    ) -> None:
        """Initialise custom per-walker state (e.g. Meta-path scheme
        assignment).  Default: nothing."""

    def should_continue(self, graph: CSRGraph, walker: WalkerView) -> bool:
        """Extra algorithm-specific continuation test, checked after
        the configured step-limit/termination-probability components of
        Pe.  Default: always continue."""
        return True

    def batch_should_continue(
        self, graph: CSRGraph, walkers: WalkerSet, walker_ids: np.ndarray
    ) -> np.ndarray:
        """:meth:`should_continue` per walker of ``walker_ids`` as one
        bool array — the hook the engines call.  The default loops the
        scalar hook."""
        return np.fromiter(
            (self.should_continue(graph, walkers.view(int(w))) for w in walker_ids),
            dtype=bool,
            count=walker_ids.size,
        )

    def teleport_targets(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Walkers that jump this iteration instead of sampling an edge.

        Returns aligned ``(walker_ids, target_vertices)`` for the
        subset that teleports, or ``None`` (default) for algorithms
        without teleportation.  Supports restart-style walks (random
        walk with restart jumps back to its start vertex with a fixed
        probability each step).  A teleport counts as a step.
        """
        return None

    # ------------------------------------------------------------------
    # Optional vectorised hooks
    # ------------------------------------------------------------------
    def batch_dynamic_comp(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> np.ndarray:
        """Vectorised Pd for aligned (walker, candidate edge) pairs."""
        raise ProgramError(
            f"{type(self).__name__} does not implement batch_dynamic_comp"
        )

    def batch_outliers(
        self, graph: CSRGraph, walkers: WalkerSet, walker_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """At most one outlier per walker, as aligned arrays
        ``(edges, pd_bounds, widths, static_masses)`` with edge -1
        meaning "none".  ``widths`` are estimated (upper-bound) static
        masses used for appendix sizing; ``static_masses`` the exact
        masses used in the acceptance correction.  ``None`` (default)
        disables vectorised outlier folding."""
        return None

    def batch_state_queries(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Queries to post per (walker, candidate) pair, as aligned
        ``(target_vertices, payloads)`` arrays; target -1 means Pd is
        resolvable locally and no message is needed.

        The distributed engine batches these into the two-round
        walker-to-vertex exchange (steps 2-4 of the paper's iteration).
        The default loops the scalar :meth:`state_query` hook.
        """
        targets = np.full(walker_ids.size, -1, dtype=np.int64)
        payloads = np.zeros(walker_ids.size, dtype=np.int64)
        for lane, (walker_id, edge) in enumerate(zip(walker_ids, candidate_edges)):
            query = self.state_query(
                graph, walkers.view(int(walker_id)), int(edge)
            )
            if query is not None:
                targets[lane] = query.target_vertex
                payloads[lane] = query.payload
        return targets, payloads

    def batch_answer_queries(
        self,
        graph: CSRGraph,
        query_targets: np.ndarray,
        payloads: np.ndarray,
    ) -> np.ndarray:
        """Vectorised query execution at the owning node.

        Default: the standard neighbour query (is ``payload`` adjacent
        to ``target``?), matching :meth:`answer_state_query`.
        """
        return graph.has_edges_batch(query_targets, payloads).astype(np.float64)

    def batch_dynamic_with_answers(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
        answers: np.ndarray,
        answered: np.ndarray,
    ) -> np.ndarray:
        """Pd for aligned (walker, candidate) pairs given query answers.

        ``answers[i]`` is valid where ``answered[i]`` is True (the lane
        posted a query in this iteration).  First-order programs ignore
        the answers; the default delegates to :meth:`batch_dynamic_comp`.
        """
        return self.batch_dynamic_comp(graph, walkers, walker_ids, candidate_edges)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Sanity-check attribute combinations."""
        if self.order not in (1, 2):
            raise ProgramError("order must be 1 or 2")
        if self.order == 2 and not self.dynamic:
            raise ProgramError("second-order programs are dynamic by definition")
        if self.history_depth < 1:
            raise ProgramError("history_depth must be at least 1")

    def __repr__(self) -> str:
        kind = "dynamic" if self.dynamic else "static"
        return f"{type(self).__name__}(name={self.name!r}, {kind}, order={self.order})"
