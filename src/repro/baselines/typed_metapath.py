"""Meta-path walking via per-edge-type precomputed tables.

The algorithm-specific alternative to rejection sampling that paper
section 3 attributes to Euler: pre-build one alias table per
(vertex, edge type) partition, then sample each Meta-path step in O(1)
with zero dynamic-probability evaluations.  Exact, and as fast as
static sampling — but it *only* works because Meta-path's dynamic
component is an indicator over a static edge attribute; it cannot
generalise to node2vec-style walker-history-dependent probabilities.

:class:`TypedMetaPathWalkEngine` runs a
:class:`~repro.algorithms.metapath.MetaPathWalk` program on this
strategy, sharing all harness semantics with the other engines so the
ablation benchmark can compare the three exact approaches (full-scan,
rejection, typed tables) head-to-head.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.metapath import SCHEME_STATE, MetaPathWalk
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.kernels import GatherContext
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.typed import TypedVertexAliasTables

__all__ = ["TypedMetaPathWalkEngine"]


class TypedMetaPathWalkEngine(WalkEngine):
    """Exact Meta-path execution over per-type alias tables."""

    def __init__(
        self,
        graph: CSRGraph,
        program: MetaPathWalk,
        config: WalkConfig | None = None,
    ) -> None:
        if not isinstance(program, MetaPathWalk):
            raise ProgramError(
                "TypedMetaPathWalkEngine only runs MetaPathWalk programs"
            )
        super().__init__(graph, program, config)
        self.typed_tables = TypedVertexAliasTables(
            graph, self.tables.static_weights
        )
        # Pre-resolve each walker's scheme as arrays for fast lookup.
        self._scheme_matrix = program._matrix
        self._scheme_lengths = program._lengths

    def _required_types(self, walker_ids: np.ndarray) -> np.ndarray:
        scheme_ids = self.walkers.state(SCHEME_STATE)[walker_ids]
        steps = self.walkers.steps[walker_ids]
        positions = steps % self._scheme_lengths[scheme_ids]
        return self._scheme_matrix[scheme_ids, positions]

    def _trial_round(self, ctx: GatherContext) -> np.ndarray:
        walker_ids, vertices = ctx.walker_ids, ctx.vertices
        required = self._required_types(walker_ids)
        edges = self.typed_tables.sample_batch(vertices, required, self._rng)
        self.stats.counters.trials += walker_ids.size

        sampled = edges >= 0
        moved = np.ones(walker_ids.size, dtype=bool)
        if sampled.any():
            movers = walker_ids[sampled]
            targets = self.graph.targets[edges[sampled]]
            self.stats.counters.accepts += movers.size
            self._commit_moves(movers, targets)
        dead = np.flatnonzero(~sampled)
        if dead.size:
            # No edge of the required type: the walk terminates, per
            # the no-positive-probability rule.
            self._kill(walker_ids[dead], "by_dead_end")
        return moved
