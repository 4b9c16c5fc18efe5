"""node2vec with Ps folded into Pd — the Figure 8 "mixed" ablation.

The paper argues that *decoupling* the static component (edge weights)
from the dynamic component is a performance feature, not just an API
nicety: traditional dynamic sampling computes the product
``weight * pd`` per edge, so a rejection sampler built on it must draw
candidates uniformly and use an envelope of
``max_weight(v) * max(1/p, 1, 1/q)`` — the weight's dynamic range
inflates the dartboard's dead area, and heavy-tailed weights make it
worse (Figure 8's "mixed" series grows with the maximum edge weight
while the "decoupled" series stays flat).

:class:`MixedNode2Vec` implements exactly that mixed formulation on the
same engine, isolating the effect of the unified Ps/Pd decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.node2vec import Node2Vec
from repro.core.walker import WalkerSet
from repro.graph.csr import CSRGraph
from repro.sampling.tables import unit_weights

__all__ = ["MixedNode2Vec"]


class MixedNode2Vec(Node2Vec):
    """node2vec sampling ``weight * Pd`` dynamically over uniform
    candidates (no static pre-processing of the weights)."""

    name = "node2vec-mixed"

    def __init__(self, p: float = 1.0, q: float = 1.0) -> None:
        # biased=True semantically, but the weight is applied inside
        # the dynamic component below; folding is disabled because the
        # envelope already has to absorb the weight range.
        super().__init__(p=p, q=q, biased=True, fold_outlier=False)

    def edge_static_comp(self, graph: CSRGraph) -> np.ndarray:
        """Uniform candidates: the weight is NOT pre-processed."""
        return unit_weights(graph.num_edges)

    def _mixed_weights(self, graph: CSRGraph) -> np.ndarray:
        if graph.weights is None:
            return unit_weights(graph.num_edges)
        return graph.weights

    def upper_bound_array(self, graph: CSRGraph) -> np.ndarray:
        """Envelope must cover max(weight) * max(Pd) per vertex."""
        weights = self._mixed_weights(graph)
        max_weight = np.zeros(graph.num_vertices, dtype=np.float64)
        for vertex in range(graph.num_vertices):
            start, end = graph.edge_range(vertex)
            if start < end:
                max_weight[vertex] = weights[start:end].max()
        # Vertices with no edges never sample; give them a positive
        # envelope so validation passes.
        max_weight[max_weight == 0.0] = 1.0
        return max_weight * max(self.return_pd, 1.0, self.inout_pd)

    def lower_bound_array(self, graph: CSRGraph) -> np.ndarray:
        weights = self._mixed_weights(graph)
        min_weight = np.zeros(graph.num_vertices, dtype=np.float64)
        for vertex in range(graph.num_vertices):
            start, end = graph.edge_range(vertex)
            if start < end:
                min_weight[vertex] = weights[start:end].min()
        return min_weight * self.floor

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        base = super().edge_dynamic_comp(graph, walker, edge_index, query_result)
        return base * float(self._mixed_weights(graph)[edge_index])

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        base = super().batch_dynamic_comp(
            graph, walkers, walker_ids, candidate_edges
        )
        return base * self._mixed_weights(graph)[candidate_edges]

    def batch_dynamic_with_answers(
        self, graph, walkers, walker_ids, candidate_edges, answers, answered
    ):
        base = super().batch_dynamic_with_answers(
            graph, walkers, walker_ids, candidate_edges, answers, answered
        )
        return base * self._mixed_weights(graph)[candidate_edges]

    def batch_outliers(
        self, graph: CSRGraph, walkers: WalkerSet, walker_ids: np.ndarray
    ):
        return None  # naive mixed formulation: no folding

    def outlier_specs(self, graph, walker):
        return ()
