"""Gemini-adapted random walk — the paper's system baseline.

The paper compares KnightKing against random-walk-adapted Gemini, the
state-of-the-art distributed graph engine (section 7.1).  Gemini's
chunk-based partitioning spreads a vertex's out-edges over multiple
nodes as *mirrors*, which forces a **two-phase sampling** scheme:

* phase 1 — the walker's master samples which node to walk through,
  by ITS over the per-node totals of its out-edge weights;
* phase 2 — the chosen node's mirror samples a specific local edge.

For *static* walks both phases use precomputed distributions, so the
per-step penalty versus KnightKing is purely communication: the
phase-2 round trip, plus Gemini's push-style **mirror broadcast** (a
vertex update notifies all its mirrors, wasteful when a walker follows
a single edge), plus walker migration.

For *dynamic* walks nothing can be precomputed: every step recomputes
the transition probability of **every** out-edge across all mirrors
(the O(deg) explosion of Tables 3/4), and the per-node sums must be
collected by the master before phase 1 — one request/response pair per
remote mirror per step.  Mirror scattering also rules out rejection
sampling: reading one specific edge from the master costs a two-round
exchange, so candidate-then-check is no cheaper than scanning.

:class:`GeminiWalkEngine` implements this on the cluster simulator:
the walk itself is exact (two-phase sampling draws from the same joint
law as direct sampling), while work and messages are counted per node
under Gemini's layout and charged to the same cost model as
KnightKing's engine — apples-to-apples simulated seconds.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cost_model import CostModel
from repro.cluster.engine import DistributedWalkEngine
from repro.cluster.network import MessageKind
from repro.cluster.scheduler import ThreadPolicy
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.kernels import GatherContext, full_scan_spans
from repro.core.program import WalkerProgram
from repro.graph.csr import CSRGraph
from repro.graph.partition import MirroredPartition

__all__ = ["GeminiWalkEngine"]


class GeminiWalkEngine(DistributedWalkEngine):
    """Random-walk-adapted Gemini on the cluster simulator."""

    def __init__(
        self,
        graph: CSRGraph,
        program: WalkerProgram,
        config: WalkConfig | None = None,
        num_nodes: int = 8,
        thread_policy: ThreadPolicy | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(
            graph,
            program,
            config,
            num_nodes=num_nodes,
            thread_policy=thread_policy,
            cost_model=cost_model,
        )
        self.mirrored = MirroredPartition(graph, num_nodes)
        self._mirror_counts = self.mirrored.mirror_counts
        # Whether each vertex's master also hosts some of its out-edges
        # (then one "mirror" interaction is local and free).
        self._master_is_mirror = self.mirrored.hosts_edges(
            np.arange(graph.num_vertices), self._owner_table
        )

    # ------------------------------------------------------------------
    def _trial_round(self, ctx: GatherContext) -> np.ndarray:
        graph, program, walkers = self.graph, self.program, self.walkers
        counters = self.stats.counters
        walker_ids, vertices = ctx.walker_ids, ctx.vertices
        masters = self._owner_table[vertices]

        remote_mirrors = (
            self._mirror_counts[vertices]
            - self._master_is_mirror[vertices].astype(np.int64)
        )

        if program.dynamic:
            # Recompute Pd for every out-edge, attributed to the node
            # hosting each edge, then collect per-node sums (one
            # request/response pair per remote mirror) and ITS-sample.
            spans = full_scan_spans(graph, self.tables, program, walkers, walker_ids)
            counters.pd_evaluations += spans.flat_edges.size
            np.add.at(self._node_pd, self.mirrored.edge_owners[spans.flat_edges], 1)

            # Second-order connectivity checks (node2vec's d_tx) stay
            # local under Gemini's layout: the node scanning candidate
            # edge (v, x) is owner(x), which also hosts every edge
            # *into* x, so "does t -> x exist?" is a local binary
            # search.  The dominance of connectivity-check cost the
            # paper reports is therefore the sheer per-step *volume* of
            # checks (one per scanned edge), charged via pd_cost above.
            sampled = spans.totals > 0.0
            if sampled.any():
                # One uniform per lane, dead lanes included; only the
                # sampled lanes' edges are read below.
                edges = spans.sample(np.arange(walker_ids.size), self._rng)

            scan_requests = 2 * remote_mirrors
            self.stats.messages_sent += self.network.record_scatter(
                MessageKind.STATE_QUERY, masters, scan_requests
            )
            np.add.at(self._node_msgs, masters, scan_requests)
            counters.trials += walker_ids.size
        else:
            # Both phases precomputed; drawing the edge directly from
            # the global tables is distributionally identical to
            # phase-1 (node) then phase-2 (edge) ITS draws.
            edges = self.tables.sample_batch(vertices, self._rng)
            sampled = np.ones(walker_ids.size, dtype=bool)
            counters.trials += 2 * walker_ids.size  # two ITS draws

        moved = np.ones(walker_ids.size, dtype=bool)
        if sampled.any():
            lanes = np.flatnonzero(sampled)
            chosen = edges[lanes]
            chosen_owner = self.mirrored.edge_owners[chosen]
            # Phase 2 hand-off to the node hosting the sampled edge.
            self._exchange(masters[lanes], chosen_owner)

            # Push-style mirror broadcast: the moving vertex notifies
            # every remote mirror (the waste the paper calls out).
            broadcast = remote_mirrors[lanes]
            self.stats.messages_sent += self.network.record_scatter(
                MessageKind.WALKER_MIGRATE, masters[lanes], broadcast
            )
            np.add.at(self._node_msgs, masters[lanes], broadcast)

            # Walker migration to the new vertex's master.
            new_vertices = graph.targets[chosen]
            new_masters = self._owner_table[new_vertices]
            self._migrate(chosen_owner, new_masters)

            counters.accepts += lanes.size
            # The migration above is charged under Gemini's layout
            # (edge host -> new master), so skip the distributed hook's
            # KnightKing master -> master accounting.
            WalkEngine._commit_moves(self, walker_ids[lanes], new_vertices)

        dead = np.flatnonzero(~sampled)
        if dead.size:
            self._kill(walker_ids[dead], "by_dead_end")
        return moved
