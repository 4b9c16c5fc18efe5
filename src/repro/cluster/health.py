"""Heartbeat-based node-health monitoring for the cluster simulator.

In a BSP engine the heartbeat is free: every barrier, each alive node
reports its superstep completion time.  A straggler does not *miss*
beats — its beats arrive stretched — so the monitor scores beat
*timing* rather than beat absence, phi-accrual style (Hayashibara et
al.), adapted to simulated time:

* keep a per-node EWMA of superstep times;
* center them with the cluster's robust statistics — median and MAD
  over alive nodes (robust, so one straggler cannot drag the reference
  up and hide itself);
* the suspicion level of a node is
  ``phi = -log10( P(T >= t_node) )`` under ``N(median, sigma^2)`` with
  ``sigma = max(1.4826 * MAD, 0.1 * median)`` — phi = 2 means a
  healthy node would run this slow with probability 1e-2.

Suspicion enters when phi crosses ``phi_suspect`` and clears only
after ``clear_streak`` consecutive supersteps below ``phi_clear``
(hysteresis, so a node sitting on the boundary does not flap).  The
first ``warmup_supersteps`` observations never suspect: the EWMA needs
a baseline before deviations mean anything.

Everything here is a pure function of simulated times — no wall clock,
no RNG — so health decisions replay bit-identically per seed.  With
fewer than three alive nodes the median *is* (pulled toward) the
straggler and contrast vanishes; detection needs >= 3 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusterError
from repro.obs.counted import Counted, counter

__all__ = ["HealthPolicy", "HealthStats", "HealthMonitor"]

_SQRT2 = math.sqrt(2.0)
# P(T >= t) underflows erfc around z ~ 38; clamp so phi stays finite.
_MIN_TAIL = 1e-300


def _phi_from_z(z: float) -> float:
    """Suspicion level for one z-score: -log10 of the normal tail."""
    tail = 0.5 * math.erfc(z / _SQRT2)
    return -math.log10(max(tail, _MIN_TAIL))


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and smoothing of the failure detector.

    Parameters
    ----------
    warmup_supersteps:
        observations before any node can become suspected.
    ewma_gain:
        smoothing of per-node superstep times (higher reacts faster,
        flaps easier).
    phi_suspect:
        suspicion level that marks a node suspected (2.0 = a healthy
        node would run this slow once in 100 supersteps).
    phi_clear:
        level the node must fall below to start clearing.
    clear_streak:
        consecutive below-``phi_clear`` supersteps required to clear.
    """

    warmup_supersteps: int = 3
    ewma_gain: float = 0.3
    phi_suspect: float = 2.0
    phi_clear: float = 0.5
    clear_streak: int = 2

    def __post_init__(self) -> None:
        if self.warmup_supersteps < 1:
            raise ClusterError("warmup must be at least one superstep")
        if not 0.0 < self.ewma_gain <= 1.0:
            raise ClusterError("ewma_gain must be in (0, 1]")
        if self.phi_clear >= self.phi_suspect:
            raise ClusterError("phi_clear must be below phi_suspect")
        if self.phi_clear < 0.0:
            raise ClusterError("phi_clear must be non-negative")
        if self.clear_streak < 1:
            raise ClusterError("clear_streak must be at least 1")


@dataclass
class HealthStats(Counted, prefix="cluster"):
    """Lifetime counters of the straggler-tolerance machinery."""

    suspect_events: int = counter(
        "health-monitor suspicion events", export="cluster_straggler_suspicions"
    )
    clear_events: int = counter("suspicions that cleared")
    suspected_supersteps: int = counter("node-supersteps spent suspected")
    phi_max: float = counter(
        "peak suspicion level", fold="max", kind="gauge", default=0.0
    )
    speculations: int = counter("speculative re-executions launched")
    speculation_wins: int = counter("speculative copies that beat the straggler")
    speculative_copies: int = counter("speculative message copies deduped")
    rebalances: int = counter("walker migrations off suspects")
    migrated_walkers: int = counter(
        "walkers migrated off suspects", export="cluster_walkers_rebalanced"
    )
    restored_walkers: int = counter("walkers moved back after a suspicion cleared")

    def report_lines(self) -> list[str]:
        lines = [
            f"health: {self.suspect_events} suspicions "
            f"({self.suspected_supersteps} node-supersteps suspected, "
            f"{self.clear_events} cleared, peak phi {self.phi_max:.2f})"
        ]
        if self.speculations:
            lines.append(
                f"speculation: {self.speculation_wins}/{self.speculations} "
                f"wins, {self.speculative_copies} copies deduped"
            )
        if self.rebalances:
            lines.append(
                f"rebalance: {self.migrated_walkers} walkers moved in "
                f"{self.rebalances} migrations, "
                f"{self.restored_walkers} moved back"
            )
        return lines


class HealthMonitor:
    """Phi-accrual-style failure detector over BSP superstep times."""

    def __init__(self, num_nodes: int, policy: HealthPolicy | None = None) -> None:
        if num_nodes <= 0:
            raise ClusterError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.policy = policy if policy is not None else HealthPolicy()
        self.ewma = np.zeros(num_nodes, dtype=np.float64)
        self.phi = np.zeros(num_nodes, dtype=np.float64)
        self.suspected = np.zeros(num_nodes, dtype=bool)
        self.stats = HealthStats()
        self._clear_streak = np.zeros(num_nodes, dtype=np.int64)
        self._observed = 0
        self._newly_cleared: list[int] = []

    @property
    def any_suspected(self) -> bool:
        return bool(self.suspected.any())

    def newly_cleared(self) -> list[int]:
        """Nodes whose suspicion cleared at the last observation."""
        return list(self._newly_cleared)

    def observe(self, node_times: np.ndarray, alive: np.ndarray) -> None:
        """Fold one superstep's per-node completion times (the BSP
        heartbeat) into the detector and update suspicion states."""
        self._newly_cleared = []
        alive = np.asarray(alive, dtype=bool)
        times = np.asarray(node_times, dtype=np.float64)
        index = np.flatnonzero(alive)
        if index.size == 0:
            return
        if self._observed == 0:
            self.ewma[index] = times[index]
        else:
            self.ewma[index] += self.policy.ewma_gain * (
                times[index] - self.ewma[index]
            )
        self._observed += 1

        reference = self.ewma[index]
        median = float(np.median(reference))
        mad = float(np.median(np.abs(reference - median)))
        sigma = max(1.4826 * mad, 0.1 * median, 1e-12)
        self.phi[:] = 0.0
        for node in index:
            z = (self.ewma[node] - median) / sigma
            self.phi[node] = _phi_from_z(z)
        self.stats.phi_max = max(self.stats.phi_max, float(self.phi.max()))
        if self._observed <= self.policy.warmup_supersteps:
            return

        for node in index:
            if not self.suspected[node]:
                if self.phi[node] >= self.policy.phi_suspect:
                    self.suspected[node] = True
                    self._clear_streak[node] = 0
                    self.stats.suspect_events += 1
            elif self.phi[node] <= self.policy.phi_clear:
                self._clear_streak[node] += 1
                if self._clear_streak[node] >= self.policy.clear_streak:
                    self.suspected[node] = False
                    self._newly_cleared.append(int(node))
                    self.stats.clear_events += 1
            else:
                self._clear_streak[node] = 0
        self.stats.suspected_supersteps += int(np.count_nonzero(self.suspected))

    # -- serialisation (disk checkpoints) ------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "health_ewma": self.ewma.copy(),
            "health_phi": self.phi.copy(),
            "health_suspected": self.suspected.copy(),
            "health_clear_streak": self._clear_streak.copy(),
            "health_observed": np.asarray([self._observed], dtype=np.int64),
            "health_stats": self.stats.pack(),
        }

    def load_arrays(self, state) -> None:
        self.ewma[:] = np.asarray(state["health_ewma"], dtype=np.float64)
        self.phi[:] = np.asarray(state["health_phi"], dtype=np.float64)
        self.suspected[:] = np.asarray(state["health_suspected"], dtype=bool)
        self._clear_streak[:] = np.asarray(
            state["health_clear_streak"], dtype=np.int64
        )
        self._observed = int(np.asarray(state["health_observed"])[0])
        self.stats.unpack(state["health_stats"])
        self._newly_cleared = []
