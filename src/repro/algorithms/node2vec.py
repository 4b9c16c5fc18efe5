"""node2vec (Grover & Leskovec, KDD 2016) — second-order random walk.

node2vec's dynamic component depends on the distance ``d_tx`` between
the walker's previous stop ``t`` and a candidate ``x`` (paper Eq. 2):

* ``d_tx = 0`` (x is t, the *return edge*): Pd = 1/p
* ``d_tx = 1`` (x adjacent to t):            Pd = 1
* ``d_tx = 2`` (otherwise):                  Pd = 1/q

Checking ``d_tx = 1`` requires knowing whether ``t`` and ``x`` are
neighbours — walker-to-vertex state handled through the engine's query
protocol in distributed mode (``postNeighbourQuery`` in the paper's
sample code) or a direct ``has_edge`` locally.

This program implements everything section 4 develops on the node2vec
running example:

* rejection sampling with envelope ``max(1/p, 1, 1/q)``;
* optional *outlier folding* — when ``1/p`` towers above
  ``max(1, 1/q)``, the return edge is folded into an appendix so the
  envelope drops to ``max(1, 1/q)`` (Figure 3b); and
* the lower bound ``min(1/p, 1, 1/q)`` for pre-acceptance (Figure 3c,
  engine toggle ``use_lower_bound``).

On the first step (no previous vertex) Pd is defined as 1 for all
edges, i.e. the first hop follows the static distribution alone.  (The
paper's sample code returns the constant ``max(1/p, 1, 1/q)`` instead;
any constant yields the same law, and 1 keeps the folded envelope
valid.)
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DEFAULT_WALK_LENGTH, WalkConfig
from repro.core.program import StateQuery, WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet, WalkerView
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.rejection import OutlierSpec
from repro.sampling.tables import unit_weights

__all__ = ["Node2Vec", "node2vec_config"]


class Node2Vec(WalkerProgram):
    """Second-order biased/unbiased walk with p/q hyper-parameters.

    Parameters
    ----------
    p:
        return parameter; the return edge has Pd = 1/p.
    q:
        in-out parameter; non-neighbour candidates have Pd = 1/q.
    biased:
        whether Ps follows edge weights (biased node2vec) or is uniform.
    fold_outlier:
        fold the return edge out of the envelope when 1/p exceeds
        max(1, 1/q).  ``None`` (default) enables folding exactly when
        it helps; ``False`` reproduces the paper's "naïve" Table 5
        variant; ``True`` insists (a no-op when 1/p is not the max).
    """

    name = "node2vec"
    dynamic = True
    order = 2
    supports_batch = True

    def __init__(
        self,
        p: float = 1.0,
        q: float = 1.0,
        biased: bool = True,
        fold_outlier: bool | None = None,
    ) -> None:
        if p <= 0 or q <= 0:
            raise ProgramError("node2vec parameters p and q must be positive")
        self.p = float(p)
        self.q = float(q)
        self.biased = bool(biased)
        self.return_pd = 1.0 / self.p
        self.inout_pd = 1.0 / self.q
        base_envelope = max(1.0, self.inout_pd)
        wants_folding = fold_outlier if fold_outlier is not None else True
        self.folding = bool(wants_folding) and self.return_pd > base_envelope
        self.envelope = base_envelope if self.folding else max(
            self.return_pd, base_envelope
        )
        self.floor = min(self.return_pd, 1.0, self.inout_pd)

    # ------------------------------------------------------------------
    # Static component
    # ------------------------------------------------------------------
    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray | None:
        if self.biased:
            return None  # graph weights (1.0 when unweighted)
        return unit_weights(graph.num_edges)

    def _static_of(self, graph: CSRGraph, edge_index: int) -> float:
        if self.biased and graph.weights is not None:
            return float(graph.weights[edge_index])
        return 1.0

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def upper_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.full(graph.num_vertices, self.envelope, dtype=np.float64)

    def lower_bound_array(self, graph: CSRGraph) -> np.ndarray:
        return np.full(graph.num_vertices, self.floor, dtype=np.float64)

    def dynamic_upper_bound(self, graph: CSRGraph, vertex: int) -> float:
        return self.envelope

    def dynamic_lower_bound(self, graph: CSRGraph, vertex: int) -> float:
        return self.floor

    # ------------------------------------------------------------------
    # Dynamic component (scalar)
    # ------------------------------------------------------------------
    def edge_dynamic_comp(
        self,
        graph: CSRGraph,
        walker: WalkerView,
        edge_index: int,
        query_result: object | None = None,
    ) -> float:
        previous = walker.prev
        if previous == NO_VERTEX:
            return 1.0
        candidate = int(graph.targets[edge_index])
        if candidate == previous:
            return self.return_pd  # d_tx = 0
        adjacent = (
            bool(query_result)
            if query_result is not None
            else graph.has_edge(previous, candidate)
        )
        return 1.0 if adjacent else self.inout_pd

    def state_query(
        self, graph: CSRGraph, walker: WalkerView, edge_index: int
    ) -> StateQuery | None:
        previous = walker.prev
        if previous == NO_VERTEX:
            return None
        candidate = int(graph.targets[edge_index])
        if candidate == previous:
            return None  # return edge needs no adjacency check
        return StateQuery(target_vertex=previous, payload=candidate)

    # answer_state_query: inherited postNeighbourQuery semantics.

    # ------------------------------------------------------------------
    # Outlier folding (scalar)
    # ------------------------------------------------------------------
    def outlier_specs(
        self, graph: CSRGraph, walker: WalkerView
    ) -> tuple[OutlierSpec, ...]:
        if not self.folding or walker.prev == NO_VERTEX:
            return ()
        first = graph.edge_index(walker.current, walker.prev)
        if first < 0:
            return ()  # no return edge on this (directed) graph
        # Cover parallel return edges with one appendix of their
        # combined static mass.
        start, end = graph.edge_range(walker.current)
        mass = 0.0
        index = first
        while index < end and graph.targets[index] == walker.prev:
            mass += self._static_of(graph, index)
            index += 1
        return (
            OutlierSpec(
                edge=first,
                pd_bound=self.return_pd,
                width=mass,
                static_mass=mass,
            ),
        )

    # ------------------------------------------------------------------
    # Batch hooks
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
        # One adjacency query per lane: asking for the return and
        # first-step lanes too (the latter about vertex 0) and
        # overwriting them costs less than indexing around them.
        adjacent = graph.has_edges_batch(np.maximum(previous, 0), candidates)
        values = np.where(adjacent, 1.0, self.inout_pd)
        values[candidates == previous] = self.return_pd
        values[previous == NO_VERTEX] = 1.0
        return values

    def batch_state_queries(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post a neighbour query for candidates that are neither the
        return edge nor a first step — the only lanes where d_tx must
        be resolved remotely."""
        previous = walkers.previous[walker_ids]
        candidates = graph.targets[candidate_edges]
        needs = (previous != NO_VERTEX) & (candidates != previous)
        targets = np.where(needs, previous, -1)
        return targets, candidates

    def batch_dynamic_with_answers(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        candidate_edges: np.ndarray,
        answers: np.ndarray,
        answered: np.ndarray,
    ) -> np.ndarray:
        previous = walkers.previous[walker_ids]
        candidates = graph.targets[candidate_edges]
        values = np.full(walker_ids.size, self.inout_pd, dtype=np.float64)
        values[answered & (answers > 0.0)] = 1.0
        values[candidates == previous] = self.return_pd
        values[previous == NO_VERTEX] = 1.0
        return values

    def batch_outliers(
        self, graph: CSRGraph, walkers: WalkerSet, walker_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        if not self.folding:
            return None
        previous = walkers.previous[walker_ids]
        current = walkers.current[walker_ids]
        edges = np.full(walker_ids.size, -1, dtype=np.int64)
        masses = np.zeros(walker_ids.size, dtype=np.float64)

        valid = np.flatnonzero(previous != NO_VERTEX)
        if valid.size:
            first, counts = graph.edge_span_batch(
                current[valid], previous[valid]
            )
            found = first >= 0
            lanes = valid[found]
            edges[lanes] = first[found]
            if self.biased and graph.weights is not None and lanes.size:
                # Segment sums over the (start, start+count) spans in
                # one reduceat: interleave starts and ends, keep the
                # even slots.  Weights are padded with a trailing zero
                # so an end index of |E| stays legal.
                padded = self._padded_weights(graph)
                starts = first[found]
                segments = np.empty(2 * starts.size, dtype=np.int64)
                segments[0::2] = starts
                segments[1::2] = starts + counts[found]
                masses[lanes] = np.add.reduceat(padded, segments)[0::2]
            else:
                masses[lanes] = counts[found].astype(np.float64)

        bounds = np.full(walker_ids.size, self.return_pd, dtype=np.float64)
        return edges, bounds, masses, masses

    def _padded_weights(self, graph: CSRGraph) -> np.ndarray:
        """Graph weights with one trailing zero, cached per graph."""
        cached = getattr(self, "_padded_weight_cache", None)
        if cached is None or cached[0] is not graph.weights:
            padded = np.concatenate(
                [graph.weights, np.zeros(1, dtype=np.float64)]
            )
            self._padded_weight_cache = (graph.weights, padded)
            return padded
        return cached[1]


def node2vec_config(
    num_walkers: int | None = None,
    walk_length: int = DEFAULT_WALK_LENGTH,
    seed: int = 0,
    record_paths: bool = False,
) -> WalkConfig:
    """The paper's node2vec setup: |V| walkers, fixed length 80."""
    return WalkConfig(
        num_walkers=num_walkers,
        max_steps=walk_length,
        termination_probability=0.0,
        seed=seed,
        record_paths=record_paths,
    )
