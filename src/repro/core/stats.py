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
from dataclasses import dataclass, field

import numpy as np

from repro.sampling.incremental import MaintenanceStats
from repro.sampling.rejection import SamplingCounters

__all__ = ["WalkStats", "TerminationBreakdown", "ServiceMetrics"]


@dataclass
class TerminationBreakdown:
    """Why walkers ended their walks."""

    by_step_limit: int = 0
    by_probability: int = 0
    by_dead_end: int = 0

    @property
    def total(self) -> int:
        return self.by_step_limit + self.by_probability + self.by_dead_end

    def merge(self, other: TerminationBreakdown) -> None:
        self.by_step_limit += other.by_step_limit
        self.by_probability += other.by_probability
        self.by_dead_end += other.by_dead_end


@dataclass
class WalkStats:
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

    counters: SamplingCounters = field(default_factory=SamplingCounters)
    termination: TerminationBreakdown = field(default_factory=TerminationBreakdown)
    total_steps: int = 0
    teleports: int = 0
    iterations: int = 0
    active_per_iteration: list[int] = field(default_factory=list)
    full_scan_evaluations: int = 0
    messages_sent: int = 0
    wall_time_seconds: float = 0.0
    init_time_seconds: float = 0.0
    # Dynamic-graph runs: the snapshot epoch the walk pinned, and the
    # owning DynamicGraph's incremental sampler-maintenance counters
    # (verification probes, mismatches, full-rebuild fallbacks).
    graph_epoch: int | None = None
    maintenance: MaintenanceStats | None = None

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

    def merge(self, other: WalkStats) -> None:
        """Fold in a shard that ran concurrently: work counts add,
        ``iterations`` and the loop wall clock take the slowest shard,
        init time adds; ``graph_epoch`` / ``maintenance`` stay as is."""
        self.counters.merge(other.counters)
        self.termination.merge(other.termination)
        self.total_steps += other.total_steps
        self.teleports += other.teleports
        self.full_scan_evaluations += other.full_scan_evaluations
        self.messages_sent += other.messages_sent
        self.iterations = max(self.iterations, other.iterations)
        self.active_per_iteration = [
            mine + theirs
            for mine, theirs in itertools.zip_longest(
                self.active_per_iteration, other.active_per_iteration, fillvalue=0
            )
        ]
        self.wall_time_seconds = max(
            self.wall_time_seconds, other.wall_time_seconds
        )
        self.init_time_seconds += other.init_time_seconds

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
class ServiceMetrics:
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

    submitted: int = 0
    admitted: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    degraded: int = 0
    deadline_hits: int = 0
    queue_depth_peak: int = 0
    # Distributed requests (cluster-simulator executions) and their
    # straggler-tolerance activity, aggregated across requests.
    distributed_runs: int = 0
    straggler_suspicions: int = 0
    walkers_rebalanced: int = 0
    speculative_wins: int = 0
    # Dynamic-graph update stream committed through apply_updates.
    updates_applied: int = 0
    epochs_committed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    latencies_seconds: list[float] = field(default_factory=list)
    # Merge identity: every instance is a unique source; an aggregate
    # remembers which sources it has absorbed so re-delivering the same
    # shard delta (SupervisedPool retries, duplicated result messages)
    # cannot double-count.
    source_id: str = field(default_factory=_next_metrics_source)
    merged_sources: set[str] = field(default_factory=set)

    # Additive counters folded by merge(); peak gauges and reason maps
    # are handled separately.
    _ADDITIVE_FIELDS = (
        "submitted",
        "admitted",
        "served",
        "failed",
        "degraded",
        "deadline_hits",
        "distributed_runs",
        "straggler_suspicions",
        "walkers_rebalanced",
        "speculative_wins",
        "updates_applied",
        "epochs_committed",
    )

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
            for name in self._ADDITIVE_FIELDS:
                setattr(self, name, getattr(self, name) + getattr(other, name))
            self.shed += other.shed
            for reason, count in other.shed_reasons.items():
                self.shed_reasons[reason] = (
                    self.shed_reasons.get(reason, 0) + count
                )
            self.queue_depth_peak = max(
                self.queue_depth_peak, other.queue_depth_peak
            )
            self.latencies_seconds.extend(other.latencies_seconds)
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
