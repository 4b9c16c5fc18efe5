"""Checkpoint-based crash recovery for the distributed engine.

KnightKing-style walkers are independent and cheaply restartable, which
makes coordinated checkpointing at BSP barriers the natural recovery
scheme: every K supersteps the engine captures its complete dynamic
state (walker shards, RNG stream, statistics, logical network
counters); when a simulated node crashes, the lost shard is restored
from the last checkpoint and the supersteps since then are replayed.

Because the walk RNG is part of the checkpoint and fault randomness
lives on a separate stream, a replay re-executes the *same* walk —
recovery is not just distribution-preserving but bit-identical, which
the chaos tests assert path-for-path.

Rollback restores logical state only.  Physical truths — wasted
superstep times, injected-fault counters, retransmission/dedup totals —
accumulate forward across rollbacks: a recovered run reports the same
walk as a healthy one, at a measurably higher simulated cost.

The optional graceful-degradation mode handles permanent node loss:
instead of aborting, the dead node's contiguous vertex range is
re-partitioned across the survivors (rewritten in the engine's owner
table) and the walk continues on the smaller cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NodeCrashError
from repro.obs.counted import Counted, counter, state
from repro.sampling.rng import restore_rng_words, rng_state_words

__all__ = [
    "RecoveryStats",
    "ClusterCheckpoint",
    "capture_cluster_state",
    "restore_cluster_state",
    "reassign_dead_vertices",
]


@dataclass
class RecoveryStats(Counted, prefix="cluster"):
    """Fault-tolerance accounting for one distributed execution."""

    crashes: int = counter("injected node crashes")
    restarts: int = counter("crashed nodes restarted")
    checkpoints_taken: int = counter("recovery checkpoints")
    replayed_supersteps: int = counter("supersteps replayed during recovery")
    degraded_nodes: list[int] = state(list)
    recovery_seconds: float = counter("simulated seconds spent recovering", default=0.0)


@dataclass
class ClusterCheckpoint:
    """One in-memory recovery point.

    ``iterations`` is the logical superstep count at capture time;
    ``state`` holds deep copies of every mutable structure the engine
    advances (the checkpoint must survive being restored twice —
    nothing in it may alias live engine state).
    """

    iterations: int
    state: dict


def capture_cluster_state(engine) -> ClusterCheckpoint:
    """Snapshot a :class:`DistributedWalkEngine`'s dynamic state."""
    walkers = engine.walkers
    state = {
        "current": walkers.current.copy(),
        "previous": walkers.previous.copy(),
        "steps": walkers.steps.copy(),
        "alive": walkers.alive.copy(),
        "history": None if walkers.history is None else walkers.history.copy(),
        "custom": {name: walkers.state(name).copy() for name in walkers._custom},
        "rejection_streak": engine._rejection_streak.copy(),
        "rng_state": rng_state_words(engine._rng),
        "stats": engine.stats.pack(),
        "active_per_iteration": list(engine.stats.active_per_iteration),
        "trials_per_node": engine.cluster.trials_per_node.copy(),
        "pd_evaluations_per_node": engine.cluster.pd_evaluations_per_node.copy(),
        "walker_supersteps_per_node": (
            engine.cluster.walker_supersteps_per_node.copy()
        ),
        "light_mode_node_supersteps": engine.cluster.light_mode_node_supersteps,
        "network": engine.network.snapshot_state(),
    }
    return ClusterCheckpoint(iterations=engine.stats.iterations, state=state)


def restore_cluster_state(engine, checkpoint: ClusterCheckpoint) -> None:
    """Rewind the engine's logical state to ``checkpoint``, in place.

    Deliberately untouched: superstep times already paid (wasted work
    stays on the bill), the fault plane (external events never rewind),
    node liveness, and the owner table (re-homed vertices stay re-homed).
    ``engine.stats`` is the same object afterwards — only its
    checkpointed counters are rewound, so its host clocks keep
    accumulating, its ``maintenance`` stays the graph's live reference,
    and a result a paused run already returned is not orphaned.
    """
    state = checkpoint.state
    walkers = engine.walkers
    walkers.current[:] = state["current"]
    walkers.previous[:] = state["previous"]
    walkers.steps[:] = state["steps"]
    walkers.alive[:] = state["alive"]
    if walkers.history is not None:
        walkers.history[:] = state["history"]
    for name, values in state["custom"].items():
        walkers.state(name)[:] = values
    engine._rejection_streak[:] = state["rejection_streak"]
    restore_rng_words(engine._rng, state["rng_state"])
    engine.stats.unpack(state["stats"])
    engine.stats.active_per_iteration[:] = state["active_per_iteration"]
    engine.cluster.trials_per_node[:] = state["trials_per_node"]
    engine.cluster.pd_evaluations_per_node[:] = state["pd_evaluations_per_node"]
    engine.cluster.walker_supersteps_per_node[:] = state[
        "walker_supersteps_per_node"
    ]
    engine.cluster.light_mode_node_supersteps = state["light_mode_node_supersteps"]
    engine.network.restore_state(state["network"])
    if engine._recorder is not None:
        # Recorded counts equal walkers.steps, so restoring the steps
        # is the whole rollback (see PathRecorder.rewind).
        engine._recorder.rewind(state["steps"])


def reassign_dead_vertices(
    owner_table: np.ndarray, dead_node: int, alive_nodes: np.ndarray
) -> None:
    """Graceful degradation: spread a dead node's vertices over the
    survivors, in place in the engine's ``|V|`` owner table.

    The dead node's vertices are split into contiguous chunks dealt
    round-robin to the surviving nodes (preserving the 1-D locality the
    cost model assumes).  Composes across repeated crashes and with
    rebalancing — whatever the table says the dead node owns now moves.
    """
    survivors = np.flatnonzero(alive_nodes)
    if survivors.size == 0:
        raise NodeCrashError("no surviving node to take over the dead shard")
    orphaned = np.flatnonzero(owner_table == dead_node)
    for survivor, chunk in zip(survivors, np.array_split(orphaned, survivors.size)):
        owner_table[chunk] = survivor
