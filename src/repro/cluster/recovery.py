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
re-partitioned across the survivors (an owner-lookup overlay on the
original 1-D partition) and the walk continues on the smaller cluster.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NodeCrashError

__all__ = [
    "RecoveryStats",
    "ClusterCheckpoint",
    "capture_cluster_state",
    "restore_cluster_state",
    "reassign_dead_vertices",
]


@dataclass
class RecoveryStats:
    """Fault-tolerance accounting for one distributed execution."""

    crashes: int = 0
    restarts: int = 0
    checkpoints_taken: int = 0
    replayed_supersteps: int = 0
    degraded_nodes: list[int] = field(default_factory=list)
    recovery_seconds: float = 0.0


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
        "rng_state": copy.deepcopy(engine._rng.bit_generator.state),
        "stats": copy.deepcopy(engine.stats),
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
    node liveness, and any degraded-mode owner overlay.
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
    engine._rng.bit_generator.state = copy.deepcopy(state["rng_state"])
    engine.stats = copy.deepcopy(state["stats"])
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
    partition,
    owner_lookup: np.ndarray | None,
    dead_node: int,
    alive_nodes: np.ndarray,
    num_vertices: int,
) -> np.ndarray:
    """Graceful degradation: spread a dead node's vertices over the
    survivors.

    Returns a full ``|V|`` owner-lookup array overriding the base
    partition: the dead node's vertices are split into contiguous
    chunks dealt round-robin to the surviving nodes (preserving the
    1-D locality the cost model assumes).  Composes across repeated
    crashes — an existing overlay is the starting point.
    """
    survivors = np.flatnonzero(alive_nodes)
    if survivors.size == 0:
        raise NodeCrashError("no surviving node to take over the dead shard")
    if owner_lookup is None:
        owner_lookup = partition.owners(
            np.arange(num_vertices, dtype=np.int64)
        ).astype(np.int64)
    else:
        owner_lookup = owner_lookup.copy()
    orphaned = np.flatnonzero(owner_lookup == dead_node)
    if orphaned.size:
        chunks = np.array_split(orphaned, survivors.size)
        for survivor, chunk in zip(survivors, chunks):
            owner_lookup[chunk] = survivor
    return owner_lookup
