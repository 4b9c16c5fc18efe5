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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
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
