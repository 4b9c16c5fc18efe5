"""The distributed walk engine over the cluster simulator.

:class:`DistributedWalkEngine` executes the same walker programs as the
single-process :class:`~repro.core.engine.WalkEngine`, but over a
partitioned graph on ``num_nodes`` simulated nodes, implementing the
five-step iteration of paper section 5.1 with explicit message
accounting:

1. each node generates candidate edges for its local walkers and
   pre-screens them (pre-acceptance, locally-resolvable Pd cases,
   outlier appendices — node2vec's return edge is always local);
2. walkers post walker-to-vertex state queries for the remaining
   candidates, batched by the owning node of the queried vertex;
3. owning nodes execute the queries and send responses;
4. walkers retrieve results and finish their Pd evaluations;
5. walkers accept/reject; accepted walkers move, migrating to the new
   vertex's owner when it lives on another node.

The simulator is *work-exact*: trials, Pd evaluations, and messages are
counted precisely per node and per superstep; simulated run time comes
from the calibrated :class:`~repro.cluster.cost_model.CostModel`
(slowest node per superstep, BSP).  The walk itself is executed for
real — results are bit-identical in distribution to the local engine's.

Straggler-aware scheduling (section 6.2) is modelled through
:class:`~repro.cluster.scheduler.ThreadPolicy`: a node whose active
walker count falls under the threshold drops to three threads,
shrinking its per-superstep thread overhead.

Fault tolerance (see :mod:`repro.cluster.faults` and
:mod:`repro.cluster.recovery`): given a :class:`FaultPlan`, every
remote message batch runs through seeded faulty delivery with
retransmission and dedup, the engine checkpoints its dynamic state
every K supersteps, and injected node crashes are recovered by
restoring the lost shard from the last checkpoint and replaying —
or, in degraded mode, by re-partitioning a permanently dead node's
vertices across the survivors.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import NamedTuple

import numpy as np

from repro.cluster.cost_model import CostModel, NodeWork
from repro.cluster.faults import DeliveryStats, FaultPlan, FaultPlane, NodeCrash
from repro.cluster.health import HealthMonitor, HealthStats
from repro.cluster.network import MessageKind, Network
from repro.cluster.recovery import (
    ClusterCheckpoint,
    RecoveryStats,
    capture_cluster_state,
    reassign_dead_vertices,
    restore_cluster_state,
)
from repro.cluster.scheduler import StragglerPolicy, ThreadPolicy, WalkerRebalancer
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine, WalkResult
from repro.core.program import WalkerProgram
from repro.errors import FaultError, NodeCrashError, ProgramError, SnapshotError
from repro.graph.csr import CSRGraph
from repro.graph.partition import ContiguousPartition, partition_graph
from repro.obs.counted import Counted, counter, group, series, state
from repro.obs.metrics import SUPERSTEP_SECONDS_BUCKETS

__all__ = [
    "DistributedWalkEngine",
    "ClusterStats",
    "DistributedWalkResult",
    "SuperstepBill",
    "DEFAULT_CHECKPOINT_INTERVAL",
]

# Checkpoint cadence (supersteps) when fault tolerance is on and the
# caller did not choose one.  Small K replays little on a crash but
# pays checkpoint cost often; the INTERNALS.md section discusses the
# trade-off.
DEFAULT_CHECKPOINT_INTERVAL = 8

# Checkpoint-file key prefix of the in-memory recovery point: its run
# state, key by key, and the iteration it was captured at.
_RECOVERY = "recovery_"


def _per_node(help_text: str, export: str):
    return counter(help_text, export=export, keyed="node", default=None)


@dataclass
class ClusterStats(Counted, prefix="cluster"):
    """System-level statistics of one distributed execution."""

    num_nodes: int = state(MISSING)
    superstep_times: list[float] = series(
        "simulated per-superstep barrier times",
        SUPERSTEP_SECONDS_BUCKETS,
        fold="samples",
        export="cluster_superstep_seconds",
    )
    light_mode_node_supersteps: int = counter(
        "node-supersteps run in light mode (section 6.2)"
    )
    network: Network | None = state(None)
    # Per-node lifetime load (paper section 6.1: the 1-D partition
    # balances memory, not necessarily walk processing).
    trials_per_node: np.ndarray | None = _per_node(
        "lifetime rejection trials per node", "cluster_node_trials"
    )
    pd_evaluations_per_node: np.ndarray | None = _per_node(
        "lifetime Pd evaluations per node", "cluster_node_pd_evaluations"
    )
    walker_supersteps_per_node: np.ndarray | None = _per_node(
        "lifetime active walker-supersteps per node", "cluster_node_walker_supersteps"
    )
    # Fault-tolerance accounting (always present; all-zero on healthy
    # runs).  Physical-layer delivery counters (None without a plan)
    # and straggler-tolerance accounting (None unless the health monitor
    # is active — degraded fault plan or explicit StragglerPolicy) are
    # live references to the fault plane's and the monitor's own stats.
    recovery: RecoveryStats = group(RecoveryStats)
    delivery: DeliveryStats | None = group(None, fold="keep")
    health: HealthStats | None = group(None, fold="keep")

    @property
    def num_supersteps(self) -> int:
        return len(self.superstep_times)

    @property
    def simulated_seconds(self) -> float:
        """Simulated time elapsed — derived from the authoritative lists,
        so checkpoint rollbacks (which rewind ``superstep_times``) and
        recovery charges are always in."""
        return float(np.sum(self.superstep_times)) + self.recovery.recovery_seconds

    def to_registry(self, registry=None, **labels):
        """The declared fields, plus what is configured or computed
        rather than counted: cluster size, superstep count, simulated
        time, the network's totals."""
        reg = super().to_registry(registry, **labels)
        reg.gauge("cluster_nodes", "simulated cluster size", **labels).set(
            self.num_nodes
        )
        computed = [
            ("cluster_supersteps", "BSP supersteps executed", self.num_supersteps),
            ("cluster_simulated_seconds", "simulated run time (cost model)",
             self.simulated_seconds),
        ]
        if self.network is not None:
            messages, wire_bytes, local = self.network.totals_snapshot()
            computed += [
                ("cluster_messages", "remote messages delivered", messages),
                ("cluster_message_bytes", "remote bytes on the wire", wire_bytes),
                ("cluster_local_deliveries", "same-node walker deliveries", local),
            ]
        for name, help_text, value in computed:
            reg.counter(name, help_text, **labels).inc(value)
        return reg

    def report(self) -> str:
        """Multi-line run report including the robustness bill."""
        lines = [
            f"cluster: {self.num_nodes} nodes, {self.num_supersteps} "
            f"supersteps, {self.simulated_seconds:.4f}s simulated"
        ]
        if self.network is not None:
            lines.append(
                f"network: {self.network.total_messages()} remote messages, "
                f"{self.network.total_bytes()} bytes, "
                f"{self.network.local_deliveries()} local deliveries"
            )
        if self.delivery is not None:
            total = self.delivery.total()
            lines.append(
                f"delivery: {total.retransmissions} retransmissions, "
                f"{total.dedups} dedups "
                f"(injected: {total.drops} drops, "
                f"{total.duplicates} duplicates, "
                f"{total.delays} delays)"
            )
        if self.health is not None:
            lines.extend(self.health.report_lines())
        recovery = self.recovery
        lines.append(
            f"recovery: {recovery.crashes} crashes, "
            f"{recovery.checkpoints_taken} checkpoints taken, "
            f"{recovery.replayed_supersteps} supersteps replayed, "
            f"{recovery.recovery_seconds:.4f}s recovering"
            + (
                f", degraded nodes {recovery.degraded_nodes}"
                if recovery.degraded_nodes
                else ""
            )
        )
        return "\n".join(lines)

    def compute_balance(self) -> float:
        """max/mean of per-node processing load (trials + Pd
        evaluations); 1.0 is perfectly balanced."""
        if self.trials_per_node is None or self.pd_evaluations_per_node is None:
            return 1.0
        loads = (
            self.trials_per_node + self.pd_evaluations_per_node
        ).astype(np.float64)
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 1.0


class SuperstepBill(NamedTuple):
    """What one superstep was charged, per alive node (the four aligned
    sequences) and at the barrier — the ``superstep_end`` event payload."""

    node_ids: list[int]
    works: list[NodeWork]
    threads: list[int]
    times: np.ndarray
    barrier: float
    retry_latency: float
    checkpoint_time: float


@dataclass
class DistributedWalkResult(WalkResult):
    """Walk result plus cluster-simulation statistics."""

    cluster: ClusterStats = None  # type: ignore[assignment]


class DistributedWalkEngine(WalkEngine):
    """KnightKing's distributed execution on the cluster simulator.

    Parameters
    ----------
    num_nodes:
        simulated cluster size (the paper uses 8).
    thread_policy:
        per-node thread scheduling, including the light-mode straggler
        optimization.  Default: 16 compute + 2 message threads, light
        mode on (the paper's configuration).
    cost_model:
        converts counted work into simulated seconds.
    fault_plan:
        seeded fault injection (crashes + message faults); ``None``
        simulates a healthy cluster with zero overhead.
    checkpoint_every:
        recovery-checkpoint cadence K in supersteps.  ``None`` picks
        :data:`DEFAULT_CHECKPOINT_INTERVAL` when a fault plan is given;
        ``0`` disables checkpointing — a node crash then aborts the run
        with :class:`~repro.errors.NodeCrashError`.
    degrade_on_crash:
        how to treat a crash with ``restart=False``: re-partition the
        dead node's vertices across survivors and continue (True), or
        abort (False, the default).
    straggler_policy:
        degraded-node tolerance (speculative re-execution and walker
        rebalancing).  ``None`` enables the default policy when the
        fault plan degrades nodes or links, and disables the machinery
        otherwise — healthy runs and pure crash/message-fault runs are
        numerically unchanged.
    """

    def __init__(
        self,
        graph: CSRGraph,
        program: WalkerProgram,
        config: WalkConfig | None = None,
        num_nodes: int = 8,
        thread_policy: ThreadPolicy | None = None,
        cost_model: CostModel | None = None,
        use_lower_bound: bool = True,
        validate_bounds: bool = False,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int | None = None,
        degrade_on_crash: bool = False,
        straggler_policy: StragglerPolicy | None = None,
    ) -> None:
        if not program.supports_batch:
            # The per-node compute and its work accounting run on the
            # batch kernels only; fail before any state is built, not
            # from inside the first round.
            raise ProgramError(
                f"{type(program).__name__} sets supports_batch = False; "
                "the distributed engine needs the batch hooks "
                "(supports_batch = True)"
            )
        super().__init__(
            graph,
            program,
            config,
            use_lower_bound=use_lower_bound,
            validate_bounds=validate_bounds,
        )
        # self.graph, not the raw argument: the prepared graph's CSR.
        self.partition: ContiguousPartition = partition_graph(
            self.graph, num_nodes
        )
        self.num_nodes = num_nodes
        self.thread_policy = (
            thread_policy if thread_policy is not None else ThreadPolicy()
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.fault_plan = fault_plan
        self.fault_plane = (
            FaultPlane(fault_plan, num_nodes) if fault_plan is not None else None
        )
        self.network = Network(num_nodes, fault_plane=self.fault_plane)
        if checkpoint_every is None and fault_plan is not None:
            checkpoint_every = DEFAULT_CHECKPOINT_INTERVAL
        # 0 (or None) means no checkpoints are ever taken.
        self.checkpoint_every = checkpoint_every if checkpoint_every else None
        self.degrade_on_crash = degrade_on_crash
        if (
            fault_plan is not None
            and fault_plan.has_crashes
            and self.config.stream_paths_to is not None
        ):
            raise FaultError(
                "crash recovery cannot rewind streamed paths; use "
                "record_paths or disable path output under a crash plan"
            )
        # Straggler tolerance engages when asked for explicitly, or
        # automatically when the plan degrades nodes/links.  Healthy
        # runs and pure crash/message-fault runs stay numerically
        # identical to before this layer existed.
        monitor_on = straggler_policy is not None or (
            fault_plan is not None and fault_plan.has_degradations
        )
        self.straggler_policy = (
            straggler_policy if straggler_policy is not None else StragglerPolicy()
        )
        self.health = HealthMonitor(num_nodes) if monitor_on else None
        # The heartbeat only reads the bill; speculation and rebalancing
        # change it or the owner table, so they stay engine steps.
        self.observe(self.health)
        self.rebalancer = (
            WalkerRebalancer(num_nodes, self.cost_model, self.straggler_policy)
            if monitor_on and self.straggler_policy.rebalance
            else None
        )
        self.cluster = ClusterStats(
            num_nodes=num_nodes,
            network=self.network,
            trials_per_node=np.zeros(num_nodes, dtype=np.int64),
            pd_evaluations_per_node=np.zeros(num_nodes, dtype=np.int64),
            walker_supersteps_per_node=np.zeros(num_nodes, dtype=np.int64),
            delivery=self.fault_plane.stats if self.fault_plane else None,
            health=self.health.stats if self.health else None,
        )
        # Per-superstep, per-node work accumulators.
        self._node_trials = np.zeros(num_nodes, dtype=np.int64)
        self._node_pd = np.zeros(num_nodes, dtype=np.int64)
        self._node_msgs = np.zeros(num_nodes, dtype=np.int64)
        # Fault-tolerance runtime state.
        self._alive_nodes = np.ones(num_nodes, dtype=bool)
        # Owning node per vertex.  The engine's own copy: degraded-mode
        # recovery and walker rebalancing re-home vertices in place.
        self._owner_table = self.partition.owner_table.copy()
        self._checkpoint: ClusterCheckpoint | None = None
        self._executed_supersteps = 0

    # ------------------------------------------------------------------
    # Run state adds the cluster's logical counters.  Superstep times,
    # the fault plane, node liveness and the owner table are physical
    # truths, not run state: a checkpoint file stores them beside this
    # dict, a rollback leaves them alone.
    def _live_state(self) -> dict[str, np.ndarray]:
        cluster = self.cluster
        return {
            **super()._live_state(),
            "cluster_trials_per_node": cluster.trials_per_node,
            "cluster_pd_per_node": cluster.pd_evaluations_per_node,
            "cluster_walker_supersteps_per_node": cluster.walker_supersteps_per_node,
        }

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            **super().state_arrays(),
            "cluster_scalars": self.cluster.pack(),
            **self.network.state_arrays(),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        super().load_state_arrays(arrays)
        self.cluster.unpack(arrays["cluster_scalars"])
        self.network.load_arrays(arrays)

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The run state plus the physical truths a rollback never
        touches — liveness, owner table, superstep times, degraded
        nodes, the fault plane's, monitor's and rebalancer's state —
        and the recovery point a later crash replays from."""
        cluster = self.cluster
        arrays = {
            **super().checkpoint_arrays(),
            "cluster_num_nodes": np.asarray([self.num_nodes], dtype=np.int64),
            "cluster_alive_nodes": self._alive_nodes,
            "cluster_owner_lookup": self._owner_table,
            "cluster_executed_supersteps": np.asarray(
                [self._executed_supersteps], dtype=np.int64
            ),
            "cluster_superstep_times": np.asarray(
                cluster.superstep_times, dtype=np.float64
            ),
            "cluster_degraded_nodes": np.asarray(
                cluster.recovery.degraded_nodes, dtype=np.int64
            ),
        }
        for part in (self.fault_plane, self.health, self.rebalancer):
            if part is not None:
                arrays.update(part.state_arrays())
        if self._checkpoint is not None:
            point = self._checkpoint
            for key, value in point.state.items():
                arrays[_RECOVERY + key] = value
            arrays[_RECOVERY + "iterations"] = np.asarray([point.iterations], np.int64)
        return arrays

    def load_checkpoint_arrays(self, data: dict[str, np.ndarray]) -> None:
        # A file without a recovery point takes a fresh one on resume.
        if self.checkpoint_every is not None and _RECOVERY + "iterations" in data:
            point = ClusterCheckpoint(
                iterations=int(data[_RECOVERY + "iterations"][0]),
                state={key: data[_RECOVERY + key] for key in self.state_arrays()},
            )
            # Loaded once now, so a malformed one fails here rather than
            # at the crash that needs it; the run state overwrites it.
            self.load_state_arrays(point.state)
            self._checkpoint = point
        super().load_checkpoint_arrays(data)
        cluster = self.cluster
        self._alive_nodes[:] = data["cluster_alive_nodes"]
        self._executed_supersteps = int(data["cluster_executed_supersteps"][0])
        cluster.superstep_times[:] = data["cluster_superstep_times"].tolist()
        cluster.recovery.degraded_nodes = data["cluster_degraded_nodes"].tolist()
        # Without the key the partition's own table stands — what a
        # run that never re-homed a vertex would have saved.
        self._owner_table[:] = self._checked_owner_table(
            data.get("cluster_owner_lookup", self._owner_table)
        )
        for part, key in (
            (self.fault_plane, "fault_rng_state"),
            (self.health, "health_ewma"),
            (self.rebalancer, "rebalance_nodes"),
        ):
            if part is not None and key in data:
                part.load_arrays(data)

    def _checked_owner_table(self, table: np.ndarray) -> np.ndarray:
        """``table`` if it can be this graph's and the restored cluster's
        owner table, else :class:`SnapshotError` — its values index the
        per-node accounting arrays and become message endpoints."""
        if table.shape != self._owner_table.shape or table.dtype.kind not in "iu":
            raise SnapshotError("checkpoint owner table does not match the graph")
        if table.size and not (0 <= table.min() and table.max() < self.num_nodes):
            raise SnapshotError(
                f"checkpoint owner table names nodes outside [0, {self.num_nodes})"
            )
        if not self._alive_nodes[table].all():
            raise SnapshotError(
                "checkpoint owner table assigns vertices to a dead node"
            )
        return table

    def _result(self, status: str) -> DistributedWalkResult:
        return DistributedWalkResult(
            self.stats, self.walkers, self._finish_paths(), status, self.cluster
        )

    # ------------------------------------------------------------------
    def _iteration(self) -> None:
        """One BSP superstep.  The run loop's ``deadline`` / ``cancel``
        checks sit at the barrier between supersteps, so a partial
        result is always a consistent superstep boundary (no in-flight
        messages)."""
        if self.checkpoint_every is not None and self._checkpoint is None:
            # Recovery point zero: a crash before the first periodic
            # checkpoint replays from the initial state.
            self._take_checkpoint()
        if self.fault_plane is not None:
            self.fault_plane.begin_superstep(self._executed_supersteps)
            for crash in self.fault_plane.crashes_at(self._executed_supersteps):
                self._handle_crash(crash)
        self._node_trials[:] = 0
        self._node_pd[:] = 0
        self._node_msgs[:] = 0
        # After crash handling: a rollback rewinds the simulated clock
        # subscribers read at this event.
        for hook in self._hooks["superstep_begin"]:
            hook()
        if self.rebalancer is not None:
            # Act on last barrier's suspicion before this superstep's
            # work is assigned: migrated walkers compute on their new
            # homes immediately.
            self._rebalance_walkers()
        active = self.walkers.active_ids()
        self.stats.active_per_iteration.append(active.size)
        self.stats.iterations += 1
        active_per_node = np.bincount(
            self._owner_table[self.walkers.current[active]],
            minlength=self.num_nodes,
        )

        survivors = self._advance_walkers(active)
        if survivors.size:
            self._move_walkers(survivors)
        self._close_superstep(active_per_node)

    # ------------------------------------------------------------------
    # Hook overrides: per-node message and work accounting
    # ------------------------------------------------------------------
    def _commit_moves(self, movers: np.ndarray, targets: np.ndarray) -> None:
        """Moves migrate walkers to the new vertex's owner."""
        old_owners = self._owner_table[self.walkers.current[movers]]
        new_owners = self._owner_table[targets]
        self._migrate(old_owners, new_owners)
        super()._commit_moves(movers, targets)

    def _deliver(
        self,
        kind: MessageKind,
        sources: np.ndarray,
        destinations: np.ndarray,
        pairs: np.ndarray,
    ) -> None:
        """Announce, record and bill one message batch — the one place
        any engine sends.  ``pairs`` is the batch's per-node-pair count.
        Each message costs its sending and its receiving node one
        handling; intra-node ones pass through the same queues (the
        engines use one messaging stack) and are charged equally, which
        keeps single-node runs comparable for the Figure 7
        normalization.  Only remote ones count as sent."""
        for hook in self._hooks["delivery"]:
            hook(kind.name, sources, destinations)
        self.stats.messages_sent += self.network.record_batch(
            kind, sources, destinations, pairs
        )
        self._node_msgs += pairs.sum(axis=0) + pairs.sum(axis=1)

    def _exchange(self, askers: np.ndarray, answerers: np.ndarray) -> None:
        """One query, and its response back, per (asker, answerer)."""
        pairs = self.network.pair_counts(askers, answerers)
        self._deliver(MessageKind.STATE_QUERY, askers, answerers, pairs)
        self._deliver(MessageKind.QUERY_RESPONSE, answerers, askers, pairs.T)

    def _migrate(self, sources: np.ndarray, destinations: np.ndarray) -> None:
        """Ship one walker per (source, destination) node pair."""
        pairs = self.network.pair_counts(sources, destinations)
        self._deliver(MessageKind.WALKER_MIGRATE, sources, destinations, pairs)

    def _run_guard(self, ids: np.ndarray) -> None:
        """The zero-mass guard charges its full-scan Pd evaluations to
        each walker's node.  Owners are read before the guard moves the
        walkers."""
        nodes = self._owner_table[self.walkers.current[ids]]
        evaluations = self._guard_batch(ids)
        np.add.at(self._node_pd, nodes, evaluations)

    def _account_lane_work(
        self,
        vertices: np.ndarray,
        trials: np.ndarray | int,
        pd_lanes: np.ndarray | slice,
        pd: np.ndarray | int,
    ) -> None:
        """Charge sampling work to the nodes owning ``vertices``."""
        nodes = self._owner_table[vertices]
        np.add.at(self._node_trials, nodes, trials)
        np.add.at(self._node_pd, nodes[pd_lanes], pd)

    def _close_superstep(self, active_per_node: np.ndarray) -> None:
        """Charge the superstep to the cost model.

        With the straggler layer active this also stretches degraded
        nodes' times by their slowdown factors, speculatively
        re-executes suspected nodes on healthy buddies (the barrier
        waits for whichever copy finishes first), and feeds the raw
        per-node times — the BSP heartbeat — to the health monitor.
        """
        self.cluster.trials_per_node += self._node_trials
        self.cluster.pd_evaluations_per_node += self._node_pd
        self.cluster.walker_supersteps_per_node += active_per_node
        retry_latency = 0.0
        factors = None
        if self.fault_plane is not None:
            # Physical-layer overhead: retransmission sends and dedup
            # discards are real message handling for their nodes, and
            # the worst retry/absorbed-delay chain stretches the
            # barrier.
            overhead, latency_units = self.fault_plane.drain_superstep()
            self._node_msgs += overhead
            retry_latency = self.cost_model.retry_latency(latency_units)
            if self.fault_plan.has_slowdowns:
                factors = self.fault_plane.node_factors()
        node_ids = []
        works = []
        threads = []
        times = []
        for node in range(self.num_nodes):
            if not self._alive_nodes[node]:
                continue  # a degraded-away node pays nothing further
            work = NodeWork(
                trials=int(self._node_trials[node]),
                pd_evaluations=int(self._node_pd[node]),
                messages=int(self._node_msgs[node]),
                active_walkers=int(active_per_node[node]),
            )
            node_threads = self.thread_policy.threads_for(
                int(active_per_node[node])
            )
            if node_threads < self.thread_policy.full_threads:
                self.cluster.light_mode_node_supersteps += 1
            node_time = self.cost_model.node_time(work, node_threads)
            if factors is not None:
                node_time *= float(factors[node])
            node_ids.append(node)
            works.append(work)
            threads.append(node_threads)
            times.append(node_time)
        times = np.asarray(times, dtype=np.float64)
        # The bill keeps the *raw* stretched times — the monitor's
        # heartbeat: suspicion must keep tracking a node's intrinsic
        # slowness even while speculation masks it at the barrier.
        effective = (
            self._speculate(node_ids, works, threads, times, active_per_node, factors)
            if self.health is not None
            else times
        )
        barrier = float(effective.max()) if effective.size else 0.0
        self.cluster.superstep_times.append(barrier + retry_latency)
        self._executed_supersteps += 1
        checkpoint_time = 0.0
        if (
            self.checkpoint_every is not None
            and self.stats.iterations % self.checkpoint_every == 0
        ):
            self._take_checkpoint()
            # The checkpoint is taken inside the barrier it follows.
            checkpoint_time = self.cost_model.checkpoint_time(
                self.walkers.num_walkers
            )
            self.cluster.superstep_times[-1] += checkpoint_time
        bill = SuperstepBill(
            node_ids, works, threads, times,
            barrier, retry_latency, checkpoint_time,
        )
        for hook in self._hooks["superstep_end"]:
            hook(bill)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def _take_checkpoint(self) -> None:
        self._checkpoint = capture_cluster_state(self)
        self.cluster.recovery.checkpoints_taken += 1

    def _handle_crash(self, crash: NodeCrash) -> None:
        """Recover from one injected node failure.

        The crashed node's walker shard is gone; recovery restores the
        last checkpoint and replays the supersteps since (the replay is
        bit-identical — the walk RNG is part of the checkpoint).  A
        non-restarting crash additionally removes the node: in degraded
        mode its vertices are re-partitioned across survivors,
        otherwise the run aborts.
        """
        node = crash.node
        if not self._alive_nodes[node]:
            return  # already dead: nothing left to kill
        recovery = self.cluster.recovery
        recovery.crashes += 1
        if self._checkpoint is None:
            raise NodeCrashError(
                f"node {node} crashed at superstep "
                f"{self._executed_supersteps} with checkpointing disabled"
            )
        if crash.restart:
            recovery.restarts += 1
        elif self.degrade_on_crash:
            self._alive_nodes[node] = False
            if not self._alive_nodes.any():
                raise NodeCrashError(
                    "last surviving node crashed; nothing to degrade onto"
                )
            reassign_dead_vertices(self._owner_table, node, self._alive_nodes)
            recovery.degraded_nodes.append(node)
        else:
            raise NodeCrashError(
                f"node {node} crashed permanently at superstep "
                f"{self._executed_supersteps} (degrade_on_crash is off)"
            )
        recovery.replayed_supersteps += (
            self.stats.iterations - self._checkpoint.iterations
        )
        restore_cluster_state(self, self._checkpoint)
        recovery.recovery_seconds += self.cost_model.restore_time(
            self.walkers.num_walkers
        )

    # ------------------------------------------------------------------
    # Straggler tolerance
    # ------------------------------------------------------------------
    def _speculate(
        self,
        node_ids: list[int],
        works: list[NodeWork],
        threads: list[int],
        times: np.ndarray,
        active_per_node: np.ndarray,
        factors: np.ndarray | None,
    ) -> np.ndarray:
        """Speculative re-execution of suspected nodes' supersteps.

        For each suspected node, the least-loaded healthy node also
        runs a copy of its compute phase; the barrier waits for
        whichever copy finishes first.  The losing copy's walker
        migrations are re-sends of messages the winner also sent, so
        they reconcile through the exactly-once dedup layer
        (:meth:`FaultPlane.record_speculative_copies`) — conservation
        accounting stays balanced.  Returns the effective per-node
        times (aligned with ``node_ids``).
        """
        if not self.straggler_policy.speculate or not self.health.any_suspected:
            return times
        suspected = self.health.suspected
        effective = times.copy()
        order = np.argsort(times, kind="stable")
        stats = self.health.stats
        for position, node in enumerate(node_ids):
            if not suspected[node] or active_per_node[node] == 0:
                continue
            buddy_position = next(
                (
                    int(p)
                    for p in order
                    if node_ids[int(p)] != node
                    and not suspected[node_ids[int(p)]]
                ),
                None,
            )
            if buddy_position is None:
                continue  # everyone is suspected; nobody to run the copy
            stats.speculations += 1
            copy_time = self.cost_model.compute_time(
                works[position], threads[buddy_position]
            )
            if factors is not None:
                copy_time *= float(factors[node_ids[buddy_position]])
            buddy_total = times[buddy_position] + copy_time
            if buddy_total < effective[position]:
                stats.speculation_wins += 1
                effective[position] = buddy_total
                copies = int(active_per_node[node])
                if self.fault_plane is not None and copies:
                    self.fault_plane.record_speculative_copies(
                        MessageKind.WALKER_MIGRATE, copies
                    )
                    stats.speculative_copies += copies
        return effective

    def _rebalance_walkers(self) -> None:
        """Move the homes of nodes whose suspicion cleared at the last
        barrier back to them, then migrate queued walkers off suspected
        nodes."""
        monitor = self.health
        stats = monitor.stats
        for node in monitor.newly_cleared():
            moved_vertices = self.rebalancer.take_restorable(node)
            if moved_vertices.size and self._alive_nodes[node]:
                stats.restored_walkers += self._rehome(moved_vertices, node)
        if not monitor.any_suspected:
            return
        active = self.walkers.active_ids()
        if active.size == 0:
            return
        vertices = self.walkers.current[active]
        for node in np.flatnonzero(monitor.suspected & self._alive_nodes):
            plan = self.rebalancer.plan(
                int(node),
                vertices,
                self._owner_table[vertices],
                monitor.ewma,
                monitor.suspected,
                self._alive_nodes,
            )
            if plan is None:
                continue
            moved_vertices, targets, moved_walkers = plan
            self.rebalancer.record(int(node), moved_vertices)
            self._rehome(moved_vertices, targets)
            stats.rebalances += 1
            stats.migrated_walkers += moved_walkers

    def _rehome(self, vertices: np.ndarray, owners) -> int:
        """Give ``vertices`` new owners (one node, or one per vertex).

        Each active walker standing on one is one real migration
        message, old owner to new; returns how many there were.  This
        rewrites the same owner table degraded-mode crash recovery
        does, so work accounting and message endpoints follow while
        the walk RNG stream is untouched: the walk itself stays
        bit-identical to the healthy run.
        """
        current = self.walkers.current[self.walkers.active_ids()]
        standing = current[np.isin(current, vertices)]
        sources = self._owner_table[standing]
        self._owner_table[vertices] = owners
        if current.size:
            self._migrate(sources, self._owner_table[standing])
        return int(standing.size)

    # ------------------------------------------------------------------
    def _main_dynamic_comp(
        self, walker_ids: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Steps 2-4 of the paper's iteration as the trial kernel's Pd
        evaluator: post the walker-to-vertex state queries, let the
        owning nodes answer, finish Pd from the answers.  Second-order
        pacing is a protocol semantic — each trial is this two-round
        exchange; first-order programs resolve Pd locally, so only
        their walker migrations hit the network."""
        if self.sync_mode != "trial":
            return super()._main_dynamic_comp(walker_ids, edges)
        graph, program, walkers = self.graph, self.program, self.walkers
        targets, payloads = program.batch_state_queries(
            graph, walkers, walker_ids, edges
        )
        answers = np.zeros(edges.size, dtype=np.float64)
        answered = targets >= 0
        query_lanes = np.flatnonzero(answered)
        if query_lanes.size:
            targets = targets[query_lanes]
            self._exchange(
                self._owner_table[walkers.current[walker_ids[query_lanes]]],
                self._owner_table[targets],
            )
            answers[query_lanes] = program.batch_answer_queries(
                graph, targets, payloads[query_lanes]
            )
        return program.batch_dynamic_with_answers(
            graph, walkers, walker_ids, edges, answers, answered
        )
