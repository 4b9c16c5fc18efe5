"""Deterministic fault injection and reliable delivery for the cluster
simulator.

The healthy-cluster simulator counts exactly the messages the
distributed protocol sends; this module makes those messages *fallible*
and layers the protocol that real deployments need on top:

* :class:`FaultPlan` — a seeded, declarative description of what goes
  wrong: node crashes pinned to supersteps, and per-message-kind rates
  at which the interconnect drops, duplicates, or delays packets.
* :class:`FaultPlane` — the runtime that applies a plan inside
  :class:`~repro.cluster.network.Network`.  Every remote message batch
  is pushed through a sequence-numbered, acknowledged delivery
  simulation with superstep-bounded timeouts and capped
  exponential-backoff retransmission
  (:class:`~repro.cluster.scheduler.RetryPolicy`); the receiver
  discards duplicate sequence numbers, so walker migration stays
  exactly-once no matter what the network does.

Fault randomness comes from its own stream (derived from the plan
seed), never from the engine's walk RNG — so a faulty run samples the
*same walk* as a fault-free run and differs only in physical-layer
counters and simulated time.  The delivery simulation is conservative
by construction; per message kind:

* ``accepts == logical``                 (exactly-once delivery)
* ``transmissions == logical + retransmissions``
* ``arrivals == transmissions - drops + duplicates``
* ``dedups == arrivals - accepts``

which is how retransmissions and dedup discards reconcile exactly with
the injected drop/duplicate/delay counts (tests/test_faults.py asserts
all four).

Beyond fail-stop crashes and message faults, the plan also describes
*degraded* hardware — the failure mode BSP execution is most exposed
to, because every superstep waits for the slowest node:

* :class:`NodeSlowdown` — a per-node multiplicative slowdown over a
  superstep window, optionally ramping up gradually (the insidious
  straggler that no threshold catches early);
* :class:`FlakyLink` — one node pair whose interconnect runs elevated
  drop/delay rates and a stretched round-trip time.

Delivery runs on **adaptive per-link retransmission timeouts**
(:class:`~repro.cluster.network.LinkTimers`): each directed link keeps
a Jacobson/Karels (srtt, rttvar) estimate of its delivery latency, and
a *delay* fault provokes a spurious retransmission only while the
link's RTO is still below the late packet's landing time — once the
timer adapts, late packets cost pure latency instead of duplicate
traffic.  Retry waits grow exponentially per attempt with
deterministic per-(link, attempt, superstep) jitter.

Model simplifications, documented once: acknowledgements are reliable
and instant (only data packets fault); a *delay* lands the packet at
``DELAY_LATENCY_MULTIPLIER`` times the link's current latency;
intra-node deliveries bypass the interconnect and cannot fault.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import LinkTimers, MessageKind
from repro.cluster.scheduler import RetryPolicy
from repro.errors import ClusterError, MessageTimeoutError, SnapshotError
from repro.obs.counted import Counted, counter
from repro.sampling.rng import derive_rng, restore_rng_words, rng_state_words

__all__ = [
    "MessageFaults",
    "NodeCrash",
    "NodeSlowdown",
    "FlakyLink",
    "FaultPlan",
    "DeliveryCounters",
    "DeliveryStats",
    "FaultPlane",
    "random_fault_plan",
    "random_degraded_plan",
    "DELAY_LATENCY_MULTIPLIER",
]

# A delayed packet lands this many link-latencies after it was sent;
# the sender retransmits spuriously iff its adaptive RTO is shorter.
DELAY_LATENCY_MULTIPLIER = 4.0


@dataclass(frozen=True)
class MessageFaults:
    """Per-transmission fault probabilities for one message kind.

    The three fates are mutually exclusive per transmission: with
    probability ``drop`` the packet vanishes, with ``delay`` it arrives
    after the sender's timeout (forcing a spurious retransmission),
    with ``duplicate`` the interconnect delivers two copies, and
    otherwise it arrives cleanly.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ClusterError(f"{name} rate must be in [0, 1]")
        if self.drop + self.duplicate + self.delay > 1.0:
            raise ClusterError("fault rates must sum to at most 1")

    @property
    def active(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.delay > 0


@dataclass(frozen=True)
class NodeCrash:
    """One injected node failure.

    ``superstep`` indexes the global execution timeline (replayed
    supersteps included — a fault is an external event and does not
    rewind with the engine's state).  With ``restart=True`` the node
    comes back immediately and its shard is restored from the last
    checkpoint; with ``restart=False`` the node stays dead and the
    engine either degrades (re-partitioning its vertices across
    survivors) or aborts, depending on its recovery mode.
    """

    superstep: int
    node: int
    restart: bool = True

    def __post_init__(self) -> None:
        if self.superstep < 0:
            raise ClusterError("crash superstep must be non-negative")
        if self.node < 0:
            raise ClusterError("crash node must be non-negative")


@dataclass(frozen=True)
class NodeSlowdown:
    """One degraded (but alive) node.

    Compute and the node's link latencies run ``factor`` times slower
    over a superstep window.  ``ramp_supersteps > 0`` models the
    insidious straggler: the factor climbs linearly from 1.0 at
    ``start_superstep`` to the full ``factor`` over that many
    supersteps, so no fixed threshold catches it early.
    ``end_superstep`` (exclusive, ``None`` = forever) lets the node
    recover mid-run.
    """

    node: int
    factor: float = 4.0
    start_superstep: int = 0
    ramp_supersteps: int = 0
    end_superstep: int | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ClusterError("slowdown node must be non-negative")
        if self.factor < 1.0:
            raise ClusterError("slowdown factor must be >= 1")
        if self.start_superstep < 0 or self.ramp_supersteps < 0:
            raise ClusterError("slowdown schedule must be non-negative")
        if (
            self.end_superstep is not None
            and self.end_superstep <= self.start_superstep
        ):
            raise ClusterError("slowdown must end after it starts")

    def factor_at(self, superstep: int) -> float:
        """Effective slowdown multiplier at one global superstep."""
        if superstep < self.start_superstep:
            return 1.0
        if self.end_superstep is not None and superstep >= self.end_superstep:
            return 1.0
        if self.ramp_supersteps <= 0:
            return self.factor
        progress = min(
            1.0, (superstep - self.start_superstep) / self.ramp_supersteps
        )
        return 1.0 + (self.factor - 1.0) * progress


@dataclass(frozen=True)
class FlakyLink:
    """One degraded node pair: elevated per-message fault rates and a
    stretched round-trip time on the interconnect between ``a`` and
    ``b`` (both directions when ``symmetric``).

    Link rates combine with the plan's per-kind rates by taking the
    per-fate maximum on the affected lanes (rescaled proportionally if
    the combined fates would exceed probability 1).
    """

    a: int
    b: int
    faults: MessageFaults = field(
        default_factory=lambda: MessageFaults(drop=0.2, delay=0.2)
    )
    rtt_factor: float = 4.0
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ClusterError("flaky-link endpoints must be non-negative")
        if self.a == self.b:
            raise ClusterError("a flaky link needs two distinct nodes")
        if self.rtt_factor < 1.0:
            raise ClusterError("rtt_factor must be >= 1")

    def lanes(self) -> tuple[tuple[int, int], ...]:
        """Directed (source, destination) lanes this link degrades."""
        if self.symmetric:
            return ((self.a, self.b), (self.b, self.a))
        return ((self.a, self.b),)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible description of everything that fails.

    ``default_faults`` applies to every message kind unless overridden
    in ``per_kind``; ``slowdowns`` and ``flaky_links`` describe degraded
    hardware.  The same plan and seed always injects the same faults —
    chaos tests pin plans the way walk tests pin walk seeds.
    """

    seed: int = 0
    crashes: tuple[NodeCrash, ...] = ()
    default_faults: MessageFaults = field(default_factory=MessageFaults)
    per_kind: Mapping[MessageKind, MessageFaults] = field(default_factory=dict)
    slowdowns: tuple[NodeSlowdown, ...] = ()
    flaky_links: tuple[FlakyLink, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "per_kind", dict(self.per_kind))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        object.__setattr__(self, "flaky_links", tuple(self.flaky_links))

    def faults_for(self, kind: MessageKind) -> MessageFaults:
        return self.per_kind.get(kind, self.default_faults)

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes)

    @property
    def has_message_faults(self) -> bool:
        return any(self.faults_for(kind).active for kind in MessageKind)

    @property
    def has_slowdowns(self) -> bool:
        return bool(self.slowdowns)

    @property
    def has_degradations(self) -> bool:
        """True when the plan degrades nodes or links (the straggler
        plane: health monitoring, speculation, and rebalancing key off
        this)."""
        return bool(self.slowdowns) or bool(self.flaky_links)

    def slowdown_factors(self, superstep: int, num_nodes: int) -> np.ndarray:
        """Per-node slowdown multipliers (>= 1.0) at one superstep."""
        factors = np.ones(num_nodes, dtype=np.float64)
        for slowdown in self.slowdowns:
            if slowdown.node < num_nodes:
                factors[slowdown.node] = max(
                    factors[slowdown.node], slowdown.factor_at(superstep)
                )
        return factors


_ACCOUNTING = "reliable-delivery accounting"


@dataclass
class DeliveryCounters(Counted, prefix="cluster"):
    """Physical-layer accounting for one message kind."""

    logical: int = counter(_ACCOUNTING, export="cluster_logical_messages")
    transmissions: int = counter(_ACCOUNTING)
    retransmissions: int = counter(_ACCOUNTING)
    drops: int = counter(_ACCOUNTING, export="cluster_injected_drops")
    duplicates: int = counter(_ACCOUNTING, export="cluster_injected_duplicates")
    delays: int = counter(_ACCOUNTING, export="cluster_injected_delays")
    arrivals: int = counter(_ACCOUNTING)
    accepts: int = counter(_ACCOUNTING)
    dedups: int = counter(_ACCOUNTING)

    def check_conservation(self) -> None:
        """Raise if the delivery invariants are violated (test hook)."""
        if self.accepts != self.logical:
            raise ClusterError("delivery is not exactly-once")
        if self.transmissions != self.logical + self.retransmissions:
            raise ClusterError("transmission accounting broken")
        if self.arrivals != self.transmissions - self.drops + self.duplicates:
            raise ClusterError("arrival accounting broken")
        if self.dedups != self.arrivals - self.accepts:
            raise ClusterError("dedup accounting broken")


class DeliveryStats:
    """Per-kind delivery counters plus cluster-wide totals."""

    def __init__(self) -> None:
        self.per_kind: dict[MessageKind, DeliveryCounters] = {
            kind: DeliveryCounters() for kind in MessageKind
        }

    def of(self, kind: MessageKind) -> DeliveryCounters:
        return self.per_kind[kind]

    def total(self) -> DeliveryCounters:
        """Cluster-wide totals: every kind folded into one."""
        total = DeliveryCounters()
        for counters in self.per_kind.values():
            total.merge(counters)
        return total

    @property
    def retransmissions(self) -> int:
        return self.total().retransmissions

    @property
    def dedups(self) -> int:
        return self.total().dedups

    @property
    def drops(self) -> int:
        return self.total().drops

    @property
    def duplicates(self) -> int:
        return self.total().duplicates

    @property
    def delays(self) -> int:
        return self.total().delays

    @property
    def accepts(self) -> int:
        return self.total().accepts

    @property
    def logical(self) -> int:
        return self.total().logical

    def check_conservation(self) -> None:
        for counters in self.per_kind.values():
            counters.check_conservation()

    def to_registry(self, registry=None, **labels):
        """The cluster-wide totals, as :class:`DeliveryCounters`
        declares them."""
        return self.total().to_registry(registry, **labels)

    # -- serialisation (checkpointing) ---------------------------------
    def pack(self) -> np.ndarray:
        return np.stack([counters.pack() for counters in self.per_kind.values()])

    def unpack(self, array: np.ndarray) -> None:
        rows = np.asarray(array)
        if rows.ndim != 2 or len(rows) != len(self.per_kind):
            raise SnapshotError(
                f"delivery counters: expected one row per message kind "
                f"({len(self.per_kind)}), got shape {rows.shape}"
            )
        for counters, row in zip(self.per_kind.values(), rows):
            counters.unpack(row)


class FaultPlane:
    """Runtime that injects a :class:`FaultPlan` into a network.

    Attach via ``Network(num_nodes, fault_plane=plane)``; the network
    routes every remote batch through :meth:`transmit`.  The plane
    accumulates lifetime :class:`DeliveryStats` plus per-superstep
    overheads (extra per-node message handling and retry-chain latency)
    that the engine drains into its cost model at each BSP barrier —
    robustness has a measurable price.
    """

    def __init__(
        self,
        plan: FaultPlan,
        num_nodes: int,
        retry_policy: RetryPolicy | None = None,
        timers: LinkTimers | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise ClusterError("a cluster needs at least one node")
        for slowdown in plan.slowdowns:
            if slowdown.node >= num_nodes:
                raise ClusterError(
                    f"slowdown node {slowdown.node} outside cluster of "
                    f"{num_nodes} nodes"
                )
        for link in plan.flaky_links:
            if max(link.a, link.b) >= num_nodes:
                raise ClusterError(
                    f"flaky link ({link.a}, {link.b}) outside cluster of "
                    f"{num_nodes} nodes"
                )
        self.plan = plan
        self.num_nodes = num_nodes
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.timers = timers if timers is not None else LinkTimers(num_nodes)
        self.stats = DeliveryStats()
        self._rng = derive_rng(plan.seed, 0xFA117)
        self._triggered: set[int] = set()
        self._superstep_overhead = np.zeros(num_nodes, dtype=np.int64)
        self._superstep_latency_units = 0.0
        self._superstep = 0
        self._factors = plan.slowdown_factors(0, num_nodes)
        self._rate_cache: dict[MessageKind, tuple] = {}
        self._rtt_factor = np.ones((num_nodes, num_nodes), dtype=np.float64)
        for link in plan.flaky_links:
            for a, b in link.lanes():
                self._rtt_factor[a, b] = max(
                    self._rtt_factor[a, b], link.rtt_factor
                )

    # -- simulated-time context ----------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """Advance the plane's simulated-time context.

        Pins the global superstep (the retransmission-jitter salt) and
        refreshes the per-node slowdown factors that stretch link
        latencies this superstep.
        """
        self._superstep = superstep
        self._factors = self.plan.slowdown_factors(superstep, self.num_nodes)

    def node_factors(self) -> np.ndarray:
        """Per-node slowdown multipliers for the current superstep."""
        return self._factors

    def _rates(self, kind: MessageKind) -> tuple:
        """(drop, delay, duplicate) N x N rate matrices for one kind,
        with flaky-link elevations folded in lane-wise."""
        cached = self._rate_cache.get(kind)
        if cached is not None:
            return cached
        base = self.plan.faults_for(kind)
        n = self.num_nodes
        drop = np.full((n, n), base.drop, dtype=np.float64)
        delay = np.full((n, n), base.delay, dtype=np.float64)
        dup = np.full((n, n), base.duplicate, dtype=np.float64)
        for link in self.plan.flaky_links:
            for a, b in link.lanes():
                drop[a, b] = max(drop[a, b], link.faults.drop)
                delay[a, b] = max(delay[a, b], link.faults.delay)
                dup[a, b] = max(dup[a, b], link.faults.duplicate)
        total = drop + delay + dup
        over = total > 1.0
        if over.any():
            scale = np.ones_like(total)
            np.divide(1.0, total, out=scale, where=over)
            drop *= scale
            delay *= scale
            dup *= scale
        cached = (drop, delay, dup, bool(total.max() > 0.0))
        self._rate_cache[kind] = cached
        return cached

    # -- crash schedule ------------------------------------------------
    def crashes_at(self, superstep: int) -> list[NodeCrash]:
        """Untriggered crashes scheduled for this global superstep.

        Each crash fires exactly once: recovery replays *state*, not
        external events.
        """
        due = []
        for index, crash in enumerate(self.plan.crashes):
            if index not in self._triggered and crash.superstep == superstep:
                self._triggered.add(index)
                due.append(crash)
        return due

    # -- message faults ------------------------------------------------
    def transmit(
        self, kind: MessageKind, sources: np.ndarray, destinations: np.ndarray
    ) -> None:
        """Push one batch of remote messages through faulty delivery.

        Simulates acknowledged, sequence-numbered delivery in retry
        rounds until every message is accepted exactly once.  Raises
        :class:`~repro.errors.MessageTimeoutError` when a message would
        exceed the retry policy's attempt budget.
        """
        counters = self.stats.of(kind)
        counters.logical += sources.size
        drop_m, delay_m, dup_m, any_faults = self._rates(kind)
        if sources.size == 0 or not any_faults:
            # Clean network: one transmission, one arrival, one accept.
            counters.transmissions += sources.size
            counters.arrivals += sources.size
            counters.accepts += sources.size
            return

        src = sources
        dst = destinations
        drop_p = drop_m[src, dst]
        delay_p = delay_m[src, dst]
        dup_p = dup_m[src, dst]
        # Current link latency (timeout units): the base RTT stretched
        # by the endpoint slowdown factors and the flaky-link RTT
        # multiplier.  A delayed packet lands at DELAY_LATENCY_MULTIPLIER
        # times that.
        lat = (
            self.timers.base_rtt
            * 0.5
            * (self._factors[src] + self._factors[dst])
            * self._rtt_factor[src, dst]
        )
        delay_at = DELAY_LATENCY_MULTIPLIER * lat
        delivered = np.zeros(src.size, dtype=bool)
        excess = np.zeros(src.size, dtype=np.float64)
        attempt = 1
        while src.size:
            count = src.size
            counters.transmissions += count
            if attempt > 1:
                counters.retransmissions += count
                # Extra sender-side handling for every retransmission.
                np.add.at(self._superstep_overhead, src, 1)
            bound = drop_p + delay_p
            draws = self._rng.random(count)
            drop = draws < drop_p
            delay = (~drop) & (draws < bound)
            dup = (~drop) & (~delay) & (draws < bound + dup_p)
            arrive = ~drop

            counters.drops += int(np.count_nonzero(drop))
            counters.delays += int(np.count_nonzero(delay))
            counters.duplicates += int(np.count_nonzero(dup))
            accepted = arrive & ~delivered
            accepted_count = int(np.count_nonzero(accepted))
            arrivals = int(np.count_nonzero(arrive)) + int(np.count_nonzero(dup))
            counters.arrivals += arrivals
            counters.accepts += accepted_count
            counters.dedups += arrivals - accepted_count
            # Extra receiver-side handling for every discarded arrival
            # (duplicate copies, and late/spurious deliveries of
            # already-accepted sequence numbers).
            discard_per_lane = dup.astype(np.int64) + (arrive & delivered)
            np.add.at(self._superstep_overhead, dst, discard_per_lane)

            # The sender armed its timeout at send time from the link's
            # adaptive RTO.  A delayed packet provokes a retransmission
            # only while it lands *after* that timeout fires; once the
            # timer has learned the link's latency, the delay is
            # absorbed as pure latency.  Dropped packets always time
            # out.  A sender holding an acknowledgement stops.
            rto = self.timers.rto(src, dst)
            spurious = delay & (delay_at > rto)
            if accepted_count:
                samples = np.where(delay, delay_at, lat)[accepted]
                self.timers.observe(src[accepted], dst[accepted], samples)
            absorbed = delay & ~spurious & ~delivered
            if absorbed.any():
                excess[absorbed] += delay_at[absorbed] - lat[absorbed]
            self._superstep_latency_units = max(
                self._superstep_latency_units, float(excess.max())
            )

            retrans = (drop | spurious) & ~delivered
            if not retrans.any():
                break
            if attempt >= self.retry_policy.max_attempts:
                raise MessageTimeoutError(
                    f"{kind.name} message undelivered after "
                    f"{attempt} attempts (capped retransmission budget)"
                )
            wait = self.timers.backoff_wait(
                src[retrans], dst[retrans], attempt, salt=self._superstep
            )
            excess = excess[retrans] + wait
            delivered = (delivered | arrive)[retrans]
            src = src[retrans]
            dst = dst[retrans]
            drop_p = drop_p[retrans]
            delay_p = delay_p[retrans]
            dup_p = dup_p[retrans]
            lat = lat[retrans]
            delay_at = delay_at[retrans]
            attempt += 1

    def record_speculative_copies(self, kind: MessageKind, count: int) -> None:
        """Reconcile speculative re-execution through the dedup layer.

        A speculative copy re-sends messages whose originals were (or
        will be) accepted; the receiver's sequence numbers discard the
        losing copy.  Each copy is one extra physical transmission that
        arrives and is deduped, so every conservation law gains
        ``count`` on both sides and stays balanced.
        """
        if count < 0:
            raise ClusterError("speculative copy count must be non-negative")
        counters = self.stats.of(kind)
        counters.transmissions += count
        counters.retransmissions += count
        counters.arrivals += count
        counters.dedups += count

    # -- per-superstep accounting --------------------------------------
    def drain_superstep(self) -> tuple[np.ndarray, float]:
        """(per-node extra messages, retry-latency units) accumulated
        since the last barrier; resets the accumulators.

        Retry chains of one superstep run concurrently, so the latency
        charge is the *worst single lane's* accumulated excess —
        adaptive backoff waits plus absorbed delay latency.
        """
        overhead = self._superstep_overhead.copy()
        self._superstep_overhead[:] = 0
        units = self._superstep_latency_units
        self._superstep_latency_units = 0.0
        return overhead, float(units)

    # -- serialisation (disk checkpoints) ------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Physical-layer state for on-disk checkpoints.

        Retry queues are empty at every BSP barrier (delivery resolves
        within the superstep's communication phase), so the in-flight
        state reduces to the fault RNG stream, the already-triggered
        crash set, the lifetime counters, and the adaptive link-timer
        estimates.
        """
        state = {
            "fault_rng_state": rng_state_words(self._rng),
            "fault_triggered": np.asarray(sorted(self._triggered), dtype=np.int64),
            "fault_counters": self.stats.pack(),
        }
        state.update(self.timers.state_arrays())
        return state

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        restore_rng_words(self._rng, state["fault_rng_state"])
        self._triggered = set(int(i) for i in state["fault_triggered"])
        self.stats.unpack(state["fault_counters"])
        self.timers.load_arrays(state)


def random_fault_plan(
    seed: int,
    num_nodes: int,
    max_crash_superstep: int = 12,
    max_crashes: int = 2,
    max_drop: float = 0.15,
    max_duplicate: float = 0.08,
    max_delay: float = 0.08,
) -> FaultPlan:
    """Draw a reproducible random plan — the chaos-test generator.

    Rates are sampled independently per message kind; up to
    ``max_crashes`` restart-style crashes land on random nodes at
    random supersteps in ``[1, max_crash_superstep]``.
    """
    rng = derive_rng(seed, 0xC4A05)
    per_kind = {
        kind: MessageFaults(
            drop=float(rng.uniform(0.0, max_drop)),
            duplicate=float(rng.uniform(0.0, max_duplicate)),
            delay=float(rng.uniform(0.0, max_delay)),
        )
        for kind in MessageKind
    }
    crashes = tuple(
        NodeCrash(
            superstep=int(rng.integers(1, max_crash_superstep + 1)),
            node=int(rng.integers(0, num_nodes)),
        )
        for _ in range(int(rng.integers(0, max_crashes + 1)))
    )
    return FaultPlan(seed=seed, crashes=crashes, per_kind=per_kind)


def random_degraded_plan(
    seed: int,
    num_nodes: int,
    max_slowdowns: int = 2,
    max_factor: float = 6.0,
    max_start: int = 4,
    max_ramp: int = 6,
    max_flaky_links: int = 1,
    max_link_drop: float = 0.3,
    max_link_delay: float = 0.3,
    max_rtt_factor: float = 6.0,
    base: FaultPlan | None = None,
) -> FaultPlan:
    """Draw a reproducible degraded-hardware plan — the straggler-chaos
    generator.

    At least one node slows down (possibly ramping), and up to
    ``max_flaky_links`` node pairs get elevated drop/delay rates with a
    stretched RTT.  Passing ``base`` (e.g. a :func:`random_fault_plan`)
    layers the degradations on top of its crashes and message faults,
    giving combined crash+drop+duplicate+delay+slowdown schedules.
    """
    if num_nodes < 2:
        raise ClusterError("degraded plans need at least two nodes")
    rng = derive_rng(seed, 0xD3C4A)
    count = int(rng.integers(1, max_slowdowns + 1))
    nodes = rng.choice(num_nodes, size=min(count, num_nodes - 1), replace=False)
    slowdowns = tuple(
        NodeSlowdown(
            node=int(node),
            factor=float(rng.uniform(2.0, max_factor)),
            start_superstep=int(rng.integers(0, max_start + 1)),
            ramp_supersteps=int(rng.integers(0, max_ramp + 1)),
        )
        for node in nodes
    )
    flaky_links = []
    for _ in range(int(rng.integers(0, max_flaky_links + 1))):
        a, b = (int(n) for n in rng.choice(num_nodes, size=2, replace=False))
        flaky_links.append(
            FlakyLink(
                a=a,
                b=b,
                faults=MessageFaults(
                    drop=float(rng.uniform(0.05, max_link_drop)),
                    delay=float(rng.uniform(0.05, max_link_delay)),
                ),
                rtt_factor=float(rng.uniform(2.0, max_rtt_factor)),
            )
        )
    template = base if base is not None else FaultPlan(seed=seed)
    return FaultPlan(
        seed=template.seed,
        crashes=template.crashes,
        default_faults=template.default_faults,
        per_kind=template.per_kind,
        slowdowns=tuple(template.slowdowns) + slowdowns,
        flaky_links=tuple(template.flaky_links) + tuple(flaky_links),
    )
