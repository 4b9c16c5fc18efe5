"""Unit tests for the straggler-tolerance building blocks.

The failure detector (:mod:`repro.cluster.health`), the adaptive
per-link retransmission timers (:class:`repro.cluster.network.LinkTimers`),
the degradation fault classes (:class:`repro.cluster.faults.NodeSlowdown`,
:class:`repro.cluster.faults.FlakyLink`), and the walker rebalancer are
each tested in isolation here; their end-to-end composition under a
degraded cluster lives in ``tests/test_faults.py``.
"""

import numpy as np
import pytest

from repro.cluster import (
    CostModel,
    FaultPlan,
    FlakyLink,
    HealthMonitor,
    LinkTimers,
    MessageFaults,
    NodeSlowdown,
    StragglerPolicy,
    WalkerRebalancer,
    random_degraded_plan,
)
from repro.cluster.health import CLEAR_STREAK, PHI_SUSPECT, WARMUP_SUPERSTEPS
from repro.cluster.network import BACKOFF_CAP, JITTER, MAX_RTO
from repro.errors import ClusterError

NUM_NODES = 4
ALIVE = np.ones(NUM_NODES, dtype=bool)


def _observe_rounds(monitor, times, rounds):
    for _ in range(rounds):
        monitor.observe(np.asarray(times, dtype=np.float64), ALIVE)


class TestHealthMonitor:
    def test_straggler_is_suspected_after_warmup(self):
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 1.0, 1.0, 1.0], 3)
        assert not monitor.any_suspected
        _observe_rounds(monitor, [1.0, 5.0, 1.0, 1.0], 3)
        assert monitor.suspected[1]
        assert not monitor.suspected[[0, 2, 3]].any()
        assert monitor.stats.suspect_events == 1
        assert monitor.stats.phi_max >= PHI_SUSPECT

    def test_no_suspicion_during_warmup(self):
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 20.0, 1.0, 1.0], WARMUP_SUPERSTEPS)
        assert not monitor.any_suspected
        _observe_rounds(monitor, [1.0, 20.0, 1.0, 1.0], 1)
        assert monitor.suspected[1]

    def test_recovered_node_clears_after_streak(self):
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 1.0, 1.0, 1.0], 3)
        _observe_rounds(monitor, [1.0, 6.0, 1.0, 1.0], 4)
        assert monitor.suspected[1]
        # Recovery: the EWMA needs a few supersteps to fall back, then
        # two consecutive low-phi observations clear the suspicion.
        cleared_at = None
        for superstep in range(30):
            monitor.observe(np.array([1.0, 1.0, 1.0, 1.0]), ALIVE)
            if not monitor.suspected[1]:
                cleared_at = superstep
                break
        assert cleared_at is not None
        assert monitor.newly_cleared() == [1]
        assert monitor.stats.clear_events == 1
        # The streak requirement means clearing took at least two
        # below-threshold supersteps.
        assert cleared_at >= CLEAR_STREAK - 1

    def test_uniform_slowdown_is_not_suspicion(self):
        # Every node 3x slower together: no contrast, no straggler.
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 1.0, 1.0, 1.0], 3)
        _observe_rounds(monitor, [3.0, 3.0, 3.0, 3.0], 10)
        assert not monitor.any_suspected

    def test_dead_nodes_are_ignored(self):
        monitor = HealthMonitor(NUM_NODES)
        alive = np.array([True, True, True, False])
        for _ in range(8):
            monitor.observe(np.array([1.0, 4.0, 1.0, 0.0]), alive)
        assert monitor.suspected[1]
        assert not monitor.suspected[3]

    def test_state_roundtrip(self):
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 1.0, 1.0, 1.0], 3)
        _observe_rounds(monitor, [1.0, 5.0, 1.0, 1.0], 4)
        clone = HealthMonitor(NUM_NODES)
        clone.load_arrays(monitor.state_arrays())
        np.testing.assert_array_equal(clone.ewma, monitor.ewma)
        np.testing.assert_array_equal(clone.suspected, monitor.suspected)
        assert clone.stats.suspect_events == monitor.stats.suspect_events
        assert clone.stats.phi_max == monitor.stats.phi_max
        # Both copies evolve identically afterwards.
        monitor.observe(np.array([1.0, 1.0, 1.0, 1.0]), ALIVE)
        clone.observe(np.array([1.0, 1.0, 1.0, 1.0]), ALIVE)
        np.testing.assert_array_equal(clone.phi, monitor.phi)


    def test_state_roundtrip_keeps_a_fresh_clear(self):
        """Saved at the barrier where a suspicion clears, the clone
        still reports it, so the rebalancer moves the vertices back."""
        monitor = HealthMonitor(NUM_NODES)
        _observe_rounds(monitor, [1.0, 1.0, 1.0, 1.0], 3)
        _observe_rounds(monitor, [1.0, 6.0, 1.0, 1.0], 4)
        while not monitor.newly_cleared():
            monitor.observe(np.array([1.0, 1.0, 1.0, 1.0]), ALIVE)
        clone = HealthMonitor(NUM_NODES)
        clone.load_arrays(monitor.state_arrays())
        assert clone.newly_cleared() == monitor.newly_cleared() == [1]

    def test_heartbeat_is_the_superstep_bill(self):
        """Node 2 is dead: the bill lists only the alive nodes."""
        from repro.cluster.engine import SuperstepBill

        by_bill, direct = HealthMonitor(NUM_NODES), HealthMonitor(NUM_NODES)
        alive = np.array([True, True, False, True])
        for _ in range(6):
            times = np.array([1.0, 5.0, 1.0])
            by_bill.on_superstep_end(
                SuperstepBill([0, 1, 3], [], [], times, 5.0, 0.0, 0.0)
            )
            direct.observe(np.array([1.0, 5.0, 0.0, 1.0]), alive)
        np.testing.assert_array_equal(by_bill.phi, direct.phi)
        np.testing.assert_array_equal(by_bill.suspected, direct.suspected)
        assert by_bill.suspected[1]


class TestLinkTimers:
    def test_rto_adapts_to_slow_link(self):
        timers = LinkTimers(NUM_NODES)
        src = np.array([0])
        dst = np.array([2])
        initial = timers.rto(src, dst)[0]
        for _ in range(12):
            timers.observe(src, dst, np.array([6.0]))
        adapted = timers.rto(src, dst)[0]
        assert adapted > initial
        # ... while an unobserved lane keeps its tight initial timeout.
        assert timers.rto(np.array([1]), np.array([3]))[0] == initial

    def test_rto_is_clamped(self):
        timers = LinkTimers(NUM_NODES)
        src, dst = np.array([0]), np.array([1])
        for _ in range(50):
            timers.observe(src, dst, np.array([1000.0]))
        assert timers.rto(src, dst)[0] == MAX_RTO

    def test_batch_observation_uses_worst_sample(self):
        # Concurrent samples on one link must fold to the slowest —
        # averaging would collapse the variance a timeout must cover.
        timers = LinkTimers(NUM_NODES)
        timers.observe(
            np.array([0, 0, 0]), np.array([1, 1, 1]),
            np.array([1.0, 9.0, 1.0]),
        )
        single = LinkTimers(NUM_NODES)
        single.observe(np.array([0]), np.array([1]), np.array([9.0]))
        assert timers.srtt[0, 1] == single.srtt[0, 1]

    def test_backoff_is_deterministic_and_jittered(self):
        timers = LinkTimers(NUM_NODES)
        src = np.arange(NUM_NODES).repeat(NUM_NODES)
        dst = np.tile(np.arange(NUM_NODES), NUM_NODES)
        first = timers.backoff_wait(src, dst, attempt=1, salt=7)
        again = timers.backoff_wait(src, dst, attempt=1, salt=7)
        np.testing.assert_array_equal(first, again)
        # Jitter decorrelates lanes: not every lane waits the same.
        assert np.unique(first).size > 1
        base = timers.rto(src, dst)
        assert np.all(first >= base)
        assert np.all(first <= base * (1.0 + JITTER))
        # Exponential growth capped at BACKOFF_CAP * (1 + JITTER).
        late = timers.backoff_wait(src, dst, attempt=12, salt=7)
        assert np.all(late <= BACKOFF_CAP * (1.0 + JITTER))
        assert np.all(late >= BACKOFF_CAP)

    def test_salt_and_attempt_change_jitter(self):
        timers = LinkTimers(NUM_NODES)
        src, dst = np.array([0, 1]), np.array([1, 2])
        a = timers.backoff_wait(src, dst, attempt=1, salt=0)
        b = timers.backoff_wait(src, dst, attempt=1, salt=1)
        assert not np.array_equal(a, b)

    def test_state_roundtrip(self):
        timers = LinkTimers(NUM_NODES)
        timers.observe(np.array([0]), np.array([1]), np.array([4.0]))
        clone = LinkTimers(NUM_NODES)
        clone.load_arrays(timers.state_arrays())
        np.testing.assert_array_equal(clone.srtt, timers.srtt)
        np.testing.assert_array_equal(clone.rttvar, timers.rttvar)
        np.testing.assert_array_equal(clone.samples, timers.samples)


class TestDegradationFaults:
    def test_slowdown_ramp(self):
        slow = NodeSlowdown(
            node=1, factor=5.0, start_superstep=2, ramp_supersteps=4,
            end_superstep=10,
        )
        assert slow.factor_at(0) == 1.0
        assert slow.factor_at(2) == 1.0
        assert slow.factor_at(4) == 3.0
        assert slow.factor_at(6) == 5.0
        assert slow.factor_at(9) == 5.0
        assert slow.factor_at(10) == 1.0

    def test_step_slowdown_without_ramp(self):
        slow = NodeSlowdown(node=0, factor=3.0, start_superstep=5)
        assert slow.factor_at(4) == 1.0
        assert slow.factor_at(5) == 3.0
        assert slow.factor_at(100) == 3.0

    def test_plan_slowdown_factors_take_max(self):
        plan = FaultPlan(
            seed=1,
            slowdowns=(
                NodeSlowdown(node=1, factor=2.0),
                NodeSlowdown(node=1, factor=4.0),
            ),
        )
        assert plan.has_slowdowns and plan.has_degradations
        factors = plan.slowdown_factors(0, NUM_NODES)
        np.testing.assert_array_equal(factors, [1.0, 4.0, 1.0, 1.0])

    def test_flaky_link_lanes(self):
        link = FlakyLink(a=0, b=2, faults=MessageFaults(drop=0.2))
        assert set(link.lanes()) == {(0, 2), (2, 0)}
        one_way = FlakyLink(
            a=0, b=2, faults=MessageFaults(drop=0.2), symmetric=False
        )
        assert set(one_way.lanes()) == {(0, 2)}

    def test_validation(self):
        with pytest.raises(ClusterError):
            NodeSlowdown(node=0, factor=0.5)
        with pytest.raises(ClusterError):
            NodeSlowdown(node=0, factor=2.0, start_superstep=5,
                         end_superstep=5)
        with pytest.raises(ClusterError):
            FlakyLink(a=1, b=1, faults=MessageFaults(drop=0.1))
        with pytest.raises(ClusterError):
            FlakyLink(a=0, b=1, faults=MessageFaults(), rtt_factor=0.5)
        with pytest.raises(ClusterError):
            StragglerPolicy(rebalance_fraction=0.0)
        with pytest.raises(ClusterError):
            StragglerPolicy(payback_horizon=0)

    def test_random_degraded_plan_is_reproducible(self):
        a = random_degraded_plan(11, NUM_NODES)
        b = random_degraded_plan(11, NUM_NODES)
        assert a == b
        assert a.has_degradations
        assert len(a.slowdowns) >= 1
        c = random_degraded_plan(12, NUM_NODES)
        assert a != c


class TestWalkerRebalancer:
    def _rebalancer(self, **policy_kwargs):
        policy = StragglerPolicy(min_walkers=8, **policy_kwargs)
        return WalkerRebalancer(NUM_NODES, CostModel(), policy)

    def _crowded_state(self, num_walkers=64):
        # All walkers on node 1 sit on 4 vertices; node 1 is 10x slower.
        rng = np.random.default_rng(0)
        vertices = rng.integers(100, 104, size=num_walkers)
        owners = np.ones(num_walkers, dtype=np.int64)
        ewma = np.array([1.0, 10.0, 1.0, 1.0])
        suspected = np.array([False, True, False, False])
        return vertices, owners, ewma, suspected

    def test_plan_moves_crowded_vertices_to_healthy_nodes(self):
        rebalancer = self._rebalancer()
        vertices, owners, ewma, suspected = self._crowded_state()
        plan = rebalancer.plan(1, vertices, owners, ewma, suspected, ALIVE)
        assert plan is not None
        moved_vertices, targets, moved = plan
        assert moved >= 32  # about rebalance_fraction of 64
        assert np.all(np.isin(moved_vertices, [100, 101, 102, 103]))
        assert np.all(np.isin(targets, [0, 2, 3]))  # never the suspect

    def test_too_few_walkers_not_worth_moving(self):
        rebalancer = self._rebalancer()
        vertices, owners, ewma, suspected = self._crowded_state(num_walkers=4)
        assert (
            rebalancer.plan(1, vertices, owners, ewma, suspected, ALIVE)
            is None
        )

    def test_cost_gate_blocks_marginal_moves(self):
        # A barely-slow node: saving over the horizon cannot beat the
        # migration message bill.
        rebalancer = self._rebalancer(payback_horizon=1)
        vertices, owners, ewma, suspected = self._crowded_state()
        ewma[1] = 1.0 + 1e-9
        assert (
            rebalancer.plan(1, vertices, owners, ewma, suspected, ALIVE)
            is None
        )

    def test_no_healthy_targets_no_plan(self):
        rebalancer = self._rebalancer()
        vertices, owners, ewma, _ = self._crowded_state()
        all_suspected = np.ones(NUM_NODES, dtype=bool)
        assert (
            rebalancer.plan(1, vertices, owners, ewma, all_suspected, ALIVE)
            is None
        )

    def test_record_and_restore_roundtrip(self):
        rebalancer = self._rebalancer()
        rebalancer.record(1, np.array([100, 102]))
        rebalancer.record(1, np.array([102, 103]))
        np.testing.assert_array_equal(
            rebalancer.take_restorable(1), [100, 102, 103]
        )
        assert rebalancer.take_restorable(1).size == 0

    def test_state_roundtrip(self):
        rebalancer = self._rebalancer()
        rebalancer.record(1, np.array([100, 102]))
        rebalancer.record(3, np.array([7]))
        clone = self._rebalancer()
        clone.load_arrays(rebalancer.state_arrays())
        np.testing.assert_array_equal(
            clone.take_restorable(1), rebalancer.take_restorable(1)
        )
        np.testing.assert_array_equal(
            clone.take_restorable(3), rebalancer.take_restorable(3)
        )
