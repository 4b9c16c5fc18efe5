"""Execution statistics.

The paper's evaluation reports two kinds of quantities: wall-clock run
time, and machine-independent work counts (transition-probability
evaluations per step, Table 1 / Table 5 / Figure 6; active walkers per
iteration, Figure 5).  :class:`WalkStats` collects both for every
engine in this repository, so benchmarks can print either.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.obs.counted import Counted, counter, group, series, state
from repro.obs.metrics import ACTIVE_WALKER_BUCKETS, DEFAULT_LATENCY_BUCKETS
from repro.sampling.tables import MaintenanceStats
from repro.sampling.rejection import SamplingCounters

__all__ = ["WalkStats", "TerminationBreakdown", "ServiceMetrics"]


def _ended(reason: str):
    help_text = "walker terminations by cause"
    return counter(help_text, export="walk_terminations", reason=reason)


@dataclass
class TerminationBreakdown(Counted):
    """Why walkers ended their walks."""

    by_step_limit: int = _ended("step_limit")
    by_probability: int = _ended("probability")
    by_dead_end: int = _ended("dead_end")

    @property
    def total(self) -> int:
        return self.by_step_limit + self.by_probability + self.by_dead_end


@dataclass
class WalkStats(Counted, prefix="walk"):
    """Counters accumulated over one walk execution.

    Attributes
    ----------
    counters:
        sampling work counters (trials, Pd evaluations, pre-accepts).
    total_steps:
        number of successful walker moves across all walkers — the
        denominator of the paper's "edges/step" metric.
    iterations:
        engine iterations (supersteps) executed.
    active_per_iteration:
        number of active walkers entering each iteration — the series
        Figure 5 plots to show random walk's "longer and thinner" tail.
    full_scan_evaluations:
        Pd evaluations spent in zero-mass-detection scans (kept
        separate so the rejection numbers stay comparable to the
        paper's, but included in the per-step totals).
    wall_time_seconds:
        wall-clock of the walk loop (excludes graph loading, matching
        the paper's methodology; includes sampling-structure and
        walker initialization).
    """

    counters: SamplingCounters = group(SamplingCounters)
    termination: TerminationBreakdown = group(TerminationBreakdown)
    total_steps: int = counter("successful walker moves", export="walk_steps")
    teleports: int = counter("teleport moves")
    # Shards run concurrently: supersteps and the loop wall clock fold
    # to the slowest shard, yet both export as counters.
    iterations: int = counter("engine supersteps executed", fold="max")
    active_per_iteration: list[int] = series(
        "active walkers entering each superstep (paper Fig. 5)",
        ACTIVE_WALKER_BUCKETS,
        fold="series",
        export="walk_active_walkers",
    )
    full_scan_evaluations: int = counter("Pd evaluations spent in zero-mass scans")
    messages_sent: int = counter("walker/query messages sent")
    # Host clocks: never checkpointed, so a rollback cannot rewind them.
    wall_time_seconds: float = counter(
        "wall-clock seconds in the walk loop",
        export="walk_wall_seconds",
        fold="max",
        packed=False,
        default=0.0,
    )
    init_time_seconds: float = counter(
        "sampler/walker initialisation seconds",
        export="walk_init_seconds",
        packed=False,
        default=0.0,
    )
    # Dynamic-graph runs: the snapshot epoch the walk pinned, and the
    # owning DynamicGraph's incremental sampler-maintenance counters
    # (verification probes, mismatches, full-rebuild fallbacks) — a
    # live reference, so never folded or checkpointed from here.
    graph_epoch: int | None = counter(
        "pinned dynamic-graph epoch",
        fold="same",
        kind="gauge",
        packed=False,
        default=None,
    )
    maintenance: MaintenanceStats | None = group(None, fold="keep")

    @property
    def pd_evaluations_per_step(self) -> float:
        """The paper's headline "edges/step" metric: dynamic transition
        probabilities computed per successful walker move."""
        if self.total_steps == 0:
            return 0.0
        return (
            self.counters.pd_evaluations + self.full_scan_evaluations
        ) / self.total_steps

    @property
    def trials_per_step(self) -> float:
        """Average rejection-sampling trials per move (paper Eq. 3)."""
        if self.total_steps == 0:
            return 0.0
        return self.counters.trials / self.total_steps

    def summary(self) -> str:
        return (
            f"steps={self.total_steps} iterations={self.iterations} "
            f"pd_evals/step={self.pd_evaluations_per_step:.3f} "
            f"trials/step={self.trials_per_step:.3f} "
            f"wall={self.wall_time_seconds:.3f}s"
        )


# Unique identity per ServiceMetrics instance so merges are
# idempotent.  The pid prefix keeps ids collision-free when deltas are
# built inside SupervisedPool worker processes (each child restarts
# the counter at 1).
_SOURCE_COUNTER = itertools.count(1)
_MERGE_LOCK = threading.Lock()


def _next_metrics_source() -> str:
    return f"{os.getpid()}-{next(_SOURCE_COUNTER)}"


@dataclass
class ServiceMetrics(Counted, prefix="service"):
    """Accounting of the overload-robust serving layer.

    The invariant the soak tests pin: every submitted request resolves
    into exactly one of ``served`` / ``shed`` / ``failed``, so after a
    drain ``submitted == served + shed + failed`` holds *exactly* —
    requests are never double-counted or silently dropped.  ``served``
    includes deadline-exceeded responses (they carry a well-formed
    partial result); ``deadline_hits`` counts them separately.

    Attributes
    ----------
    submitted / admitted:
        requests offered to the service / accepted into the queue.
    served:
        requests that ran to a result (complete or deadline-partial).
    shed:
        requests rejected by admission control, evicted by a shedding
        policy, or refused by the open circuit breaker
        (``shed_reasons`` itemises why).
    failed:
        requests whose execution raised.
    degraded:
        served requests that ran with a degraded configuration.
    deadline_hits:
        served requests that returned a deadline-exceeded partial.
    queue_depth_peak:
        high watermark of the admission queue.
    latencies_seconds:
        submit-to-response latency per resolved request, the source of
        the p50/p99 figures.
    """

    submitted: int = counter("requests offered")
    admitted: int = counter("requests queued")
    served: int = counter("requests answered")
    # Exported by cause through ``shed_reasons`` (record_shed keeps the
    # two in step), so after a drain the conservation law holds in the
    # export too: submitted == served + sum(service_shed) + failed.
    shed: int = counter("requests shed", export=None)
    failed: int = counter("requests that raised")
    degraded: int = counter("requests served degraded")
    deadline_hits: int = counter("served with a deadline-exceeded partial")
    queue_depth_peak: int = counter(
        "admission-queue high watermark", fold="max", kind="gauge"
    )
    # Distributed requests (cluster-simulator executions) and their
    # straggler-tolerance activity, aggregated across requests.
    distributed_runs: int = counter("requests executed on the cluster simulator")
    straggler_suspicions: int = counter("health-monitor suspicions while serving")
    walkers_rebalanced: int = counter("walkers migrated off suspects while serving")
    speculative_wins: int = counter("speculative copies that beat a straggler")
    # Dynamic-graph update stream committed through apply_updates.
    updates_applied: int = counter("dynamic-graph updates committed")
    epochs_committed: int = counter("dynamic-graph epochs committed")
    shed_reasons: dict[str, int] = counter(
        "requests shed by cause", export="service_shed", keyed="reason", default=dict
    )
    latencies_seconds: list[float] = series(
        "submit-to-response latency",
        DEFAULT_LATENCY_BUCKETS,
        fold="samples",
        export="service_request_latency_seconds",
    )
    # Merge identity: every instance is a unique source; an aggregate
    # remembers which sources it has absorbed so re-delivering the same
    # shard delta (SupervisedPool retries, duplicated result messages)
    # cannot double-count.
    source_id: str = state(_next_metrics_source)
    merged_sources: set[str] = state(set)

    @property
    def resolved(self) -> int:
        return self.served + self.shed + self.failed

    def merge(self, other: "ServiceMetrics") -> bool:
        """Fold ``other`` into this aggregate, exactly once.

        Idempotent and thread-safe: every :class:`ServiceMetrics`
        carries a unique ``source_id``, and an aggregate refuses a
        source it has absorbed before *or whose own absorbed set
        overlaps anything this aggregate already counted* — so a shard
        delta re-delivered after a SupervisedPool retry, the same
        snapshot merged concurrently from two threads, and a relayed
        aggregate that re-packages an already-counted shard all count
        once (the overlapping relay is refused whole; merge topology
        should be a tree, with each delta shipped to exactly one
        aggregate).  Returns ``True`` if ``other`` was absorbed,
        ``False`` if it was a duplicate.
        """
        if other is self:
            return False
        with _MERGE_LOCK:
            if (
                other.source_id == self.source_id
                or other.source_id in self.merged_sources
                or self.source_id in other.merged_sources
                or not self.merged_sources.isdisjoint(other.merged_sources)
            ):
                return False
            self.merged_sources.add(other.source_id)
            self.merged_sources |= other.merged_sources
            super().merge(other)
        return True

    def record_shed(self, reason: str) -> None:
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.latencies_seconds.append(seconds)

    def latency_percentile(self, percentile: float) -> float:
        """Latency at the given percentile (0 with no samples)."""
        if not self.latencies_seconds:
            return 0.0
        return float(np.percentile(self.latencies_seconds, percentile))

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    def accounting_balanced(self, pending: int = 0) -> bool:
        """The exact conservation law, with ``pending`` still in
        flight (0 after a drain)."""
        return self.submitted == self.resolved + pending

    def report(self) -> str:
        shed_detail = (
            " (" + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.shed_reasons.items())
            ) + ")"
            if self.shed_reasons
            else ""
        )
        report = (
            f"service: submitted={self.submitted} admitted={self.admitted} "
            f"served={self.served} shed={self.shed}{shed_detail} "
            f"failed={self.failed}\n"
            f"service: degraded={self.degraded} "
            f"deadline_hits={self.deadline_hits} "
            f"queue_peak={self.queue_depth_peak}\n"
            f"service: latency p50={self.p50_latency * 1000.0:.2f}ms "
            f"p99={self.p99_latency * 1000.0:.2f}ms"
        )
        if self.distributed_runs:
            report += (
                f"\nservice: distributed_runs={self.distributed_runs} "
                f"straggler_suspicions={self.straggler_suspicions} "
                f"walkers_rebalanced={self.walkers_rebalanced} "
                f"speculative_wins={self.speculative_wins}"
            )
        if self.epochs_committed:
            report += (
                f"\nservice: updates_applied={self.updates_applied} "
                f"epochs_committed={self.epochs_committed}"
            )
        return report
