"""Distributed-execution simulator (paper sections 5.1 and 6).

Models an N-node cluster: 1-D vertex partitioning, per-superstep BSP
execution, walker-to-vertex query messaging, walker migration, and
straggler-aware thread scheduling.  Work (trials, Pd evaluations,
messages) is counted exactly; simulated time comes from a calibrated
cost model.  See DESIGN.md for the substitution rationale.

Robustness layers: seeded fault injection with exactly-once delivery
(:mod:`repro.cluster.faults`), checkpoint-based crash recovery
(:mod:`repro.cluster.recovery`), and degraded-node tolerance — a
phi-accrual failure detector (:mod:`repro.cluster.health`), adaptive
per-link retransmission timers, speculative re-execution, and live
walker rebalancing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.cost_model import CostModel, NodeWork
    from repro.cluster.engine import (
        DEFAULT_CHECKPOINT_INTERVAL,
        ClusterStats,
        DistributedWalkEngine,
        DistributedWalkResult,
    )
    from repro.cluster.faults import (
        DELAY_LATENCY_MULTIPLIER,
        DeliveryCounters,
        DeliveryStats,
        FaultPlan,
        FaultPlane,
        FlakyLink,
        MessageFaults,
        NodeCrash,
        NodeSlowdown,
        random_degraded_plan,
        random_fault_plan,
    )
    from repro.cluster.health import HealthMonitor, HealthPolicy, HealthStats
    from repro.cluster.network import LinkTimers, MessageKind, Network
    from repro.cluster.recovery import RecoveryStats
    from repro.cluster.scheduler import (
        LIGHT_MODE_THREADS,
        LIGHT_MODE_THRESHOLD,
        RetryPolicy,
        StragglerPolicy,
        ThreadPolicy,
        WalkerRebalancer,
    )

__all__ = [
    "DistributedWalkEngine",
    "DistributedWalkResult",
    "ClusterStats",
    "CostModel",
    "NodeWork",
    "Network",
    "MessageKind",
    "LinkTimers",
    "ThreadPolicy",
    "RetryPolicy",
    "StragglerPolicy",
    "WalkerRebalancer",
    "LIGHT_MODE_THRESHOLD",
    "LIGHT_MODE_THREADS",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "FaultPlan",
    "FaultPlane",
    "MessageFaults",
    "NodeCrash",
    "NodeSlowdown",
    "FlakyLink",
    "DeliveryCounters",
    "DeliveryStats",
    "RecoveryStats",
    "HealthMonitor",
    "HealthPolicy",
    "HealthStats",
    "random_fault_plan",
    "random_degraded_plan",
    "DELAY_LATENCY_MULTIPLIER",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    cost_model=("CostModel", "NodeWork"),
    engine=(
        "DEFAULT_CHECKPOINT_INTERVAL",
        "ClusterStats",
        "DistributedWalkEngine",
        "DistributedWalkResult",
    ),
    faults=(
        "DELAY_LATENCY_MULTIPLIER",
        "DeliveryCounters",
        "DeliveryStats",
        "FaultPlan",
        "FaultPlane",
        "FlakyLink",
        "MessageFaults",
        "NodeCrash",
        "NodeSlowdown",
        "random_degraded_plan",
        "random_fault_plan",
    ),
    health=("HealthMonitor", "HealthPolicy", "HealthStats"),
    network=("LinkTimers", "MessageKind", "Network"),
    recovery=("RecoveryStats",),
    scheduler=(
        "LIGHT_MODE_THREADS",
        "LIGHT_MODE_THRESHOLD",
        "RetryPolicy",
        "StragglerPolicy",
        "ThreadPolicy",
        "WalkerRebalancer",
    ),
)
