"""Per-node thread scheduling policy, including straggler light mode.

Paper section 6.2: each node runs as many computation threads as cores
(16 in the evaluation) plus two message-passing threads.  During the
long tail of a walk — very few active walkers, caused by PPR's
geometric termination or by second-order rejection stragglers — the
overhead of maintaining the full pool outweighs parallelism, so a node
switches to *light mode*: three threads total (one compute, two
communication) whenever its active walker count drops below 4000.

This module also holds the straggler layer's scheduling decisions:
:class:`StragglerPolicy` (speculate, rebalance, and when moving pays)
and :class:`WalkerRebalancer`, which plans walker migrations off
suspected nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusterError

__all__ = [
    "ThreadPolicy",
    "StragglerPolicy",
    "WalkerRebalancer",
    "LIGHT_MODE_THRESHOLD",
    "LIGHT_MODE_THREADS",
]

# "a KnightKing node switches to its light mode by retaining only three
# threads ... when its number of active walkers fall below a threshold,
# set at 4000 in our experiments" — paper section 6.2.
LIGHT_MODE_THRESHOLD = 4000
LIGHT_MODE_THREADS = 3


@dataclass(frozen=True)
class ThreadPolicy:
    """Chooses a node's thread count from its active walker count.

    Parameters
    ----------
    full_threads:
        pool size in normal operation: compute threads (cores) plus the
        two message threads — 18 for the paper's 16-core nodes.
    light_mode:
        whether the straggler optimization is enabled (the Figure 9
        ablation turns it off).
    threshold:
        active-walker count below which light mode engages.
    """

    full_threads: int = 18
    light_mode: bool = True
    threshold: int = LIGHT_MODE_THRESHOLD

    def __post_init__(self) -> None:
        if self.full_threads < LIGHT_MODE_THREADS:
            raise ClusterError(
                f"full_threads must be >= {LIGHT_MODE_THREADS}"
            )
        if self.threshold < 0:
            raise ClusterError("threshold must be non-negative")

    def threads_for(self, active_walkers: int) -> int:
        """Thread count a node uses this superstep."""
        if self.light_mode and active_walkers < self.threshold:
            return LIGHT_MODE_THREADS
        return self.full_threads


@dataclass(frozen=True)
class StragglerPolicy:
    """Knobs of the degraded-node tolerance layer.

    Parameters
    ----------
    speculate:
        re-execute a suspected node's superstep speculatively on the
        least-loaded healthy node; the barrier waits only for whichever
        copy finishes first, and the loser's walker migrations are
        discarded by the receiver's dedup layer.
    rebalance:
        migrate queued walkers off suspected nodes by re-homing their
        vertices in the engine's owner table (and back once suspicion
        clears).
    rebalance_fraction:
        share of a suspect's queued walkers the rebalancer tries to
        move per migration.
    payback_horizon:
        supersteps over which the estimated per-superstep saving must
        exceed the one-off migration message cost — the cost-model gate
        that stops churn near the end of a walk.
    min_walkers:
        suspects hosting fewer queued walkers than this are left alone
        (too little load for migration to matter).
    """

    speculate: bool = True
    rebalance: bool = True
    rebalance_fraction: float = 0.5
    payback_horizon: int = 4
    min_walkers: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.rebalance_fraction <= 1.0:
            raise ClusterError("rebalance_fraction must be in (0, 1]")
        if self.payback_horizon < 1:
            raise ClusterError("payback_horizon must be at least 1")
        if self.min_walkers < 1:
            raise ClusterError("min_walkers must be at least 1")


class WalkerRebalancer:
    """Plans walker migrations off suspected nodes.

    The engine supplies where walkers currently live; the rebalancer
    decides *whether* moving pays (cost-model gate: saved straggler
    time over the payback horizon versus migration message cost) and
    *where* to (healthy nodes, least-loaded first).  Migration operates
    on whole vertices — entries of the same owner table degraded-mode
    crash recovery rewrites — choosing the suspect's most walker-crowded
    vertices first so few re-homed vertices move many walkers.  All
    ordering is by deterministic keys (walker counts, EWMA times, node
    ids), never RNG.
    """

    def __init__(self, num_nodes: int, cost_model, policy: StragglerPolicy) -> None:
        if num_nodes <= 0:
            raise ClusterError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.cost_model = cost_model
        self.policy = policy
        # vertices moved off each suspect, for restoration on clear
        self._moved: dict[int, list[np.ndarray]] = {}

    def plan(
        self,
        node: int,
        vertices: np.ndarray,
        owners: np.ndarray,
        ewma: np.ndarray,
        suspected: np.ndarray,
        alive: np.ndarray,
    ):
        """Migration plan for one suspect, or ``None`` when moving
        does not pay.

        Returns ``(moved_vertices, target_per_vertex, moved_walkers)``:
        the suspect's most-crowded vertices (covering about
        ``rebalance_fraction`` of its queued walkers) and the healthy
        node each should be re-homed to.
        """
        healthy = np.flatnonzero(alive & ~suspected)
        healthy = healthy[healthy != node]
        if healthy.size == 0:
            return None
        mask = owners == node
        total = int(np.count_nonzero(mask))
        if total < self.policy.min_walkers:
            return None
        target_moved = int(total * self.policy.rebalance_fraction)
        if target_moved == 0:
            return None

        verts, counts = np.unique(vertices[mask], return_counts=True)
        order = np.argsort(-counts, kind="stable")
        cumulative = np.cumsum(counts[order])
        cutoff = int(np.searchsorted(cumulative, target_moved)) + 1
        chosen = verts[order[:cutoff]]
        moved = int(cumulative[cutoff - 1])

        # Cost-model gate: the suspect's excess over the healthy median
        # scales with the share of its walkers we take away; that
        # saving, over the payback horizon, must beat the migration
        # messages it costs.
        healthy_median = float(np.median(ewma[healthy]))
        excess = max(float(ewma[node]) - healthy_median, 0.0)
        saving = excess * (moved / total)
        cost = moved * self.cost_model.message_cost
        if self.policy.payback_horizon * saving <= cost:
            return None

        # Round-robin the re-homed vertices across healthy nodes,
        # least-loaded (by EWMA time, then node id) first.
        ranked = healthy[np.lexsort((healthy, ewma[healthy]))]
        targets = ranked[np.arange(chosen.size) % ranked.size]
        return chosen, targets, moved

    def record(self, node: int, moved_vertices: np.ndarray) -> None:
        """Remember vertices moved off ``node`` for later restoration."""
        self._moved.setdefault(node, []).append(moved_vertices.copy())

    def take_restorable(self, node: int) -> np.ndarray:
        """Vertices to re-home back onto a no-longer-suspected node;
        clears the record."""
        chunks = self._moved.pop(node, [])
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))

    # -- serialisation (disk checkpoints) ------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        nodes = sorted(self._moved)
        flat = [
            np.unique(np.concatenate(self._moved[node])) for node in nodes
        ]
        lengths = np.asarray([chunk.size for chunk in flat], dtype=np.int64)
        return {
            "rebalance_nodes": np.asarray(nodes, dtype=np.int64),
            "rebalance_lengths": lengths,
            "rebalance_vertices": (
                np.concatenate(flat).astype(np.int64)
                if flat
                else np.zeros(0, dtype=np.int64)
            ),
        }

    def load_arrays(self, state) -> None:
        self._moved = {}
        nodes = np.asarray(state["rebalance_nodes"], dtype=np.int64)
        lengths = np.asarray(state["rebalance_lengths"], dtype=np.int64)
        flat = np.asarray(state["rebalance_vertices"], dtype=np.int64)
        start = 0
        for node, length in zip(nodes, lengths):
            self._moved[int(node)] = [flat[start : start + int(length)]]
            start += int(length)
