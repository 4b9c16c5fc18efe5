"""Simulated interconnect: message and byte accounting.

The simulator does not move real bytes; it counts, per (source node,
destination node) pair and per message kind, exactly the messages the
distributed protocol would send.  These counts feed the cost model
(time) and the benchmarks (communication-volume comparisons against
the Gemini baseline's mirror broadcasts).

Intra-node "messages" (source == destination) are counted separately
and cost nothing: co-located walkers read vertex state directly.

A :class:`~repro.cluster.faults.FaultPlane` can be attached; every
remote batch is then additionally pushed through the faulty
reliable-delivery simulation, so injected drops/duplicates/delays are
counted in the same place the logical messages are.  The matrices here
always stay *logical* (one count per protocol message, faults or not)
— physical-layer retransmissions and dedups live on the plane's
delivery stats, keeping communication-volume benchmarks comparable
across healthy and chaotic runs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.errors import ClusterError

__all__ = ["MessageKind", "Network", "LinkTimers"]

# Link-timer tuning, in simulated timeout units: the initial round-trip
# estimate, the retransmission-timeout clamp, the ceiling on a backed-off
# wait, the jitter spread, and the srtt / rttvar estimator gains.
BASE_RTT = 1.0
MIN_RTO = 1.0
MAX_RTO = 16.0
BACKOFF_CAP = 64.0
JITTER = 0.25
SRTT_GAIN = 0.125
RTTVAR_GAIN = 0.25


class MessageKind(Enum):
    """Protocol message types with their simulated payload sizes."""

    # walker id + candidate edge + query target + payload vertex
    STATE_QUERY = 28
    # walker id + boolean/float answer
    QUERY_RESPONSE = 12
    # walker id + current + previous + step counter (+ custom state)
    WALKER_MIGRATE = 32

    @property
    def bytes_per_message(self) -> int:
        return self.value


def _hash_unit(values: np.ndarray) -> np.ndarray:
    """Deterministic uniform-ish values in [0, 1) from integer keys.

    A splitmix64-style avalanche keeps retransmission jitter fully
    reproducible (no RNG state is consumed or shared) while still
    decorrelating retry timers across links, attempts, and supersteps —
    the property that breaks retransmission synchronisation storms.
    """
    x = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


class LinkTimers:
    """Adaptive per-link retransmission timers (Jacobson/Karels style).

    One (srtt, rttvar) estimator per *directed* link, fed by observed
    delivery latencies in simulated timeout units.  The retransmission
    timeout is the classic ``RTO = srtt + 4 * rttvar`` clamped to
    ``[MIN_RTO, MAX_RTO]``; retry attempt ``k`` waits
    ``min(RTO * 2**(k-1), BACKOFF_CAP)`` scaled by a deterministic
    jitter in ``[1, 1 + JITTER]`` derived from (link, attempt,
    superstep) — exponential backoff with decorrelated timers, no
    shared RNG state.

    This replaces the fixed per-attempt backoff schedule the reliable
    delivery layer used previously: a link behind a straggler or a
    flaky interconnect *learns* its elevated latency, so late packets
    stop provoking spurious retransmissions once the estimator catches
    up, while clean links keep tight timeouts.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ClusterError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.srtt = np.full((num_nodes, num_nodes), BASE_RTT, dtype=np.float64)
        self.rttvar = np.full(
            (num_nodes, num_nodes), BASE_RTT / 2.0, dtype=np.float64
        )
        self.samples = np.zeros((num_nodes, num_nodes), dtype=np.int64)

    # ------------------------------------------------------------------
    def observe(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Fold one batch of delivery-latency samples into the timers.

        Samples sharing a link within one batch are concurrent, not
        sequential round trips, so they collapse to one estimator step
        per link using the *slowest* sample — a retransmission timeout
        must cover the tail, and the reduction stays independent of
        lane order.
        """
        if sources.size == 0:
            return
        flat = sources * self.num_nodes + destinations
        links, inverse = np.unique(flat, return_inverse=True)
        counts = np.bincount(inverse)
        worst = np.full(links.size, -np.inf)
        np.maximum.at(worst, inverse, latencies)
        rows = links // self.num_nodes
        cols = links % self.num_nodes
        err = worst - self.srtt[rows, cols]
        self.srtt[rows, cols] += SRTT_GAIN * err
        self.rttvar[rows, cols] += RTTVAR_GAIN * (
            np.abs(err) - self.rttvar[rows, cols]
        )
        self.samples[rows, cols] += counts

    def rto(self, sources: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        """Current retransmission timeout per (source, destination) lane."""
        raw = self.srtt[sources, destinations] + 4.0 * self.rttvar[
            sources, destinations
        ]
        return np.clip(raw, MIN_RTO, MAX_RTO)

    def backoff_wait(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        attempt: int,
        salt: int,
    ) -> np.ndarray:
        """Wait (timeout units) before retransmission ``attempt``
        (1-based) on each lane: capped exponential growth of the lane's
        RTO, plus deterministic per-(link, attempt, salt) jitter."""
        if attempt < 1:
            raise ClusterError("attempt numbers are 1-based")
        base = np.minimum(
            self.rto(sources, destinations) * (2.0 ** (attempt - 1)),
            BACKOFF_CAP,
        )
        with np.errstate(over="ignore"):
            keys = (
                (sources * self.num_nodes + destinations).astype(np.uint64)
                * np.uint64(0x9E3779B97F4A7C15)
                + np.uint64(attempt * 0xD1B54A32D192ED03 % (1 << 64))
                + np.uint64(salt * 0x8CB92BA72F3D8DD7 % (1 << 64))
            )
        return base * (1.0 + JITTER * _hash_unit(keys))

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Timer state for on-disk checkpoints."""
        return {
            "fault_link_srtt": self.srtt.copy(),
            "fault_link_rttvar": self.rttvar.copy(),
            "fault_link_samples": self.samples.copy(),
        }

    def load_arrays(self, state) -> None:
        self.srtt[:] = np.asarray(state["fault_link_srtt"], dtype=np.float64)
        self.rttvar[:] = np.asarray(state["fault_link_rttvar"], dtype=np.float64)
        self.samples[:] = np.asarray(state["fault_link_samples"], dtype=np.int64)


class Network:
    """Per-node-pair message counters for one simulated cluster."""

    def __init__(self, num_nodes: int, fault_plane=None) -> None:
        if num_nodes <= 0:
            raise ClusterError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.fault_plane = fault_plane
        self._messages = {
            kind: np.zeros((num_nodes, num_nodes), dtype=np.int64)
            for kind in MessageKind
        }
        self._local = {kind: 0 for kind in MessageKind}
        self._scattered = {
            kind: np.zeros(num_nodes, dtype=np.int64) for kind in MessageKind
        }

    def pair_counts(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Messages per (source node, destination node) for aligned
        endpoint arrays, as an ``(N, N)`` matrix — everything a batch's
        accounting needs.  The diagonal holds the intra-node ones; a
        reply batch is the transpose."""
        if sources.shape != destinations.shape:
            raise ClusterError("sources and destinations must align")
        if sources.size and (
            min(sources.min(), destinations.min()) < 0
            or max(sources.max(), destinations.max()) >= self.num_nodes
        ):
            raise ClusterError(
                f"message endpoints must be node ids in [0, {self.num_nodes})"
            )
        return np.bincount(
            sources * self.num_nodes + destinations,
            minlength=self.num_nodes * self.num_nodes,
        ).reshape(self.num_nodes, self.num_nodes)

    def record_batch(
        self,
        kind: MessageKind,
        sources: np.ndarray,
        destinations: np.ndarray,
        pairs: np.ndarray | None = None,
    ) -> int:
        """Record messages for aligned source/destination node arrays;
        returns how many actually crossed the network.  ``pairs`` is
        the batch's :meth:`pair_counts` when the caller already holds
        it; the endpoint arrays are then read only by a fault plane."""
        if pairs is None:
            sources = np.asarray(sources, dtype=np.int64)
            destinations = np.asarray(destinations, dtype=np.int64)
            pairs = self.pair_counts(sources, destinations)
        local = int(pairs.trace())
        crossed = int(pairs.sum()) - local
        if crossed:
            self._messages[kind] += pairs
            # Intra-node deliveries are counted in _local, not here.
            np.fill_diagonal(self._messages[kind], 0)
            if self.fault_plane is not None:
                remote = sources != destinations
                self.fault_plane.transmit(
                    kind, sources[remote], destinations[remote]
                )
        self._local[kind] += local
        return crossed

    def record_scatter(
        self, kind: MessageKind, sources: np.ndarray, counts: np.ndarray
    ) -> int:
        """Record ``counts[i]`` broadcast/scatter messages sent by node
        ``sources[i]`` to unspecified peers (e.g. Gemini's mirror
        broadcasts).  Tracked per sender only — :meth:`matrix` excludes
        them, but totals and :meth:`sent_by_node` include them."""
        sources = np.asarray(sources, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ClusterError("scatter counts must be non-negative")
        np.add.at(self._scattered[kind], sources, counts)
        return int(counts.sum())

    def matrix(self, kind: MessageKind | None = None) -> np.ndarray:
        """(num_nodes x num_nodes) remote-message counts."""
        if kind is not None:
            return self._messages[kind].copy()
        total = np.zeros((self.num_nodes, self.num_nodes), dtype=np.int64)
        for counts in self._messages.values():
            total += counts
        return total

    def total_messages(self, kind: MessageKind | None = None) -> int:
        scattered = (
            int(self._scattered[kind].sum())
            if kind is not None
            else sum(int(array.sum()) for array in self._scattered.values())
        )
        return int(self.matrix(kind).sum()) + scattered

    def local_deliveries(self, kind: MessageKind | None = None) -> int:
        """Same-node deliveries (free in the cost model)."""
        if kind is not None:
            return self._local[kind]
        return sum(self._local.values())

    def total_bytes(self) -> int:
        return sum(
            (int(counts.sum()) + int(self._scattered[kind].sum()))
            * kind.bytes_per_message
            for kind, counts in self._messages.items()
        )

    def totals_snapshot(self) -> tuple[int, int, int]:
        """``(remote_messages, bytes, local_deliveries)`` as one tuple —
        the observability layer diffs two snapshots to attribute
        message traffic to the superstep between them."""
        return (
            self.total_messages(),
            self.total_bytes(),
            self.local_deliveries(),
        )

    def sent_by_node(self) -> np.ndarray:
        """Remote messages sent per node (row sums + scatters)."""
        total = self.matrix().sum(axis=1)
        for array in self._scattered.values():
            total = total + array
        return total

    def received_by_node(self) -> np.ndarray:
        """Remote messages received per node (column sums)."""
        return self.matrix().sum(axis=0)

    # ------------------------------------------------------------------
    # Logical-state capture for checkpoint rollback.  The fault plane's
    # physical-layer counters are deliberately NOT part of this state:
    # replayed supersteps resend messages for real, while injected
    # faults are external events that never rewind.
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copy of the logical message counters by checkpoint key, one
        row per kind."""
        kinds = list(MessageKind)
        return {
            "cluster_net_messages": np.stack([self._messages[k] for k in kinds]),
            "cluster_net_local": np.asarray([self._local[k] for k in kinds]),
            "cluster_net_scattered": np.stack([self._scattered[k] for k in kinds]),
        }

    def load_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Reset the logical counters to a :meth:`state_arrays`."""
        for index, kind in enumerate(MessageKind):
            self._messages[kind][:] = state["cluster_net_messages"][index]
            self._local[kind] = int(state["cluster_net_local"][index])
            self._scattered[kind][:] = state["cluster_net_scattered"][index]
