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
    """Snapshot a :class:`DistributedWalkEngine`'s logical state: a
    copy of everything its ``state_arrays()`` enumerates."""
    state = {key: np.copy(value) for key, value in engine.state_arrays().items()}
    return ClusterCheckpoint(iterations=engine.stats.iterations, state=state)


def restore_cluster_state(engine, checkpoint: ClusterCheckpoint) -> None:
    """Rewind the engine's logical state to ``checkpoint``, in place.

    Deliberately untouched, because the engine's run state does not
    hold them: superstep times already paid (wasted work stays on the
    bill), the fault plane (external events never rewind), node
    liveness, and the owner table (re-homed vertices stay re-homed).
    ``engine.stats`` is the same object afterwards — only its
    checkpointed counters are rewound, so its host clocks keep
    accumulating, its ``maintenance`` stays the graph's live reference,
    and a result a paused run already returned is not orphaned.
    """
    # What recovery has cost so far is a physical truth too, but it is
    # packed beside the logical cluster counters: carry it across.
    recovery = engine.cluster.recovery
    paid = recovery.pack()
    engine.load_state_arrays(checkpoint.state)
    recovery.unpack(paid)


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
