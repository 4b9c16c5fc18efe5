"""Tests for the overload-robust serving layer (repro.service)."""

import threading
import time

import numpy as np
import pytest

from repro.algorithms import DeepWalk, UniformWalk
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.stats import ServiceMetrics
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadError,
    ServiceError,
)
from repro.graph.generators import uniform_degree_graph
from repro.service import (
    DEADLINE_EXCEEDED,
    OK,
    SHED,
    AdmissionQueue,
    CancelToken,
    CircuitBreaker,
    Deadline,
    DegradationPolicy,
    RetryBudget,
    WalkRequest,
    WalkService,
    apply_degradation,
)


@pytest.fixture
def graph():
    return uniform_degree_graph(120, 4, seed=0, undirected=True)


class FakeClock:
    """Monotonic stub advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        current = self.now
        self.now += self.step
        return current


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock(step=0.0)
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.now = 6.0
        assert deadline.expired()
        assert deadline.remaining() < 0

    def test_at_constructor(self):
        clock = FakeClock(step=0.0)
        deadline = Deadline.at(3.0, clock=clock)
        clock.now = 2.9
        assert not deadline.expired()
        clock.now = 3.0
        assert deadline.expired()

    def test_pickle_roundtrip(self):
        import pickle

        deadline = Deadline(60.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expires_at == deadline.expires_at
        assert not clone.expired()

    def test_fake_clock_not_picklable(self):
        import pickle

        with pytest.raises(ValueError):
            pickle.dumps(Deadline(1.0, clock=FakeClock()))

    def test_cancel_token(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.cancel()  # idempotent
        assert token.cancelled


class TestEngineDeadline:
    def test_expired_deadline_yields_wellformed_empty_partial(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5, record_paths=True)
        clock = FakeClock(step=0.0)
        clock.now = 100.0
        result = WalkEngine(graph, UniformWalk(), config).run(
            deadline=Deadline.at(1.0, clock=clock)
        )
        assert result.status == "deadline_exceeded"
        assert not result.complete
        assert result.stats.iterations == 0
        assert result.walk_lengths.size == 10
        assert all(len(path) == 1 for path in result.paths)

    def test_mid_run_deadline_stops_at_batch_boundary(self, graph):
        # The engine reads the clock once per iteration check, so a
        # 2.5-tick deadline on a 1-tick clock stops after iteration 2.
        config = WalkConfig(num_walkers=10, max_steps=50)
        clock = FakeClock(step=1.0)
        deadline = Deadline(2.5, clock=clock)  # clock now at 1.0
        result = WalkEngine(graph, UniformWalk(), config).run(deadline=deadline)
        assert result.status == "deadline_exceeded"
        assert result.stats.iterations == 2
        assert np.all(result.walkers.steps == 2)

    def test_cancel_token_stops_run(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5)
        token = CancelToken()
        token.cancel()
        result = WalkEngine(graph, UniformWalk(), config).run(cancel=token)
        assert result.status == "cancelled"
        assert result.stats.iterations == 0

    def test_no_deadline_is_bit_identical_to_default_run(self, graph):
        config = WalkConfig(num_walkers=20, max_steps=10, record_paths=True, seed=5)
        plain = WalkEngine(graph, DeepWalk(), config).run()
        clock = FakeClock(step=0.0)
        bounded = WalkEngine(graph, DeepWalk(), config).run(
            deadline=Deadline(1e9, clock=clock)
        )
        assert bounded.status == "complete"
        assert all(
            np.array_equal(a, b) for a, b in zip(plain.paths, bounded.paths)
        )

    def test_max_iterations_reports_paused(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=20)
        result = WalkEngine(graph, UniformWalk(), config).run(max_iterations=3)
        assert result.status == "paused"
        assert result.walkers.num_active == 10

    def test_distributed_engine_honours_deadline(self, graph):
        config = WalkConfig(num_walkers=16, max_steps=30)
        clock = FakeClock(step=1.0)
        engine = DistributedWalkEngine(graph, UniformWalk(), config, num_nodes=4)
        result = engine.run(deadline=Deadline(3.5, clock=clock))
        assert result.status == "deadline_exceeded"
        assert 0 < result.cluster.num_supersteps < 30
        # Partial stops at a superstep barrier: counters stay coherent.
        assert result.stats.total_steps == result.walkers.steps.sum()


class TestAdmissionQueue:
    def test_reject_newest_rejects_incoming(self):
        queue = AdmissionQueue(2, "reject-newest")
        assert queue.offer("a") == (True, [])
        assert queue.offer("b") == (True, [])
        assert queue.offer("c") == (False, [])
        assert queue.take() == "a"

    def test_reject_oldest_evicts_head(self):
        queue = AdmissionQueue(2, "reject-oldest")
        queue.offer("a")
        queue.offer("b")
        admitted, evicted = queue.offer("c")
        assert admitted and evicted == ["a"]
        assert queue.take() == "b"
        assert queue.take() == "c"

    def test_priority_evicts_strictly_lower(self):
        queue = AdmissionQueue(2, "priority")
        queue.offer("low1", priority=0)
        queue.offer("low2", priority=0)
        admitted, evicted = queue.offer("high", priority=5)
        assert admitted and evicted == ["low2"]  # newest among ties
        # Equal priority does not evict.
        assert queue.offer("high2", priority=0) == (False, [])

    def test_priority_dequeue_order(self):
        queue = AdmissionQueue(4, "priority")
        queue.offer("a", priority=0)
        queue.offer("b", priority=2)
        queue.offer("c", priority=2)
        queue.offer("d", priority=1)
        assert [queue.take() for _ in range(4)] == ["b", "c", "d", "a"]

    def test_close_refuses_offers_and_unblocks(self):
        queue = AdmissionQueue(2)
        queue.close()
        assert queue.offer("x") == (False, [])
        assert queue.take(timeout=0.01) is None

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(0)
        with pytest.raises(ConfigError):
            AdmissionQueue(4, "drop-everything")

    def test_fullness(self):
        queue = AdmissionQueue(4)
        queue.offer("a")
        assert queue.fullness() == pytest.approx(0.25)


class TestDegradation:
    def test_no_pressure_no_change(self, graph):
        config = WalkConfig(num_walkers=100, max_steps=80, record_paths=True)
        degraded, applied = apply_degradation(
            config, graph, 0.1, DegradationPolicy()
        )
        assert degraded is config
        assert applied == ()

    def test_ladder_is_cumulative(self, graph):
        config = WalkConfig(num_walkers=100, max_steps=80, record_paths=True)
        policy = DegradationPolicy()

        level1, applied1 = apply_degradation(config, graph, 0.6, policy)
        assert applied1 == ("drop_record_paths",)
        assert not level1.record_paths and level1.max_steps == 80

        level2, applied2 = apply_degradation(config, graph, 0.8, policy)
        assert applied2 == ("drop_record_paths", "cap_max_steps:20")
        assert level2.max_steps == 20

        level3, applied3 = apply_degradation(config, graph, 1.0, policy)
        assert applied3 == (
            "drop_record_paths",
            "cap_max_steps:20",
            "shrink_walkers:25",
        )
        assert level3.num_walkers == 25

    def test_rungs_skip_noop_changes(self, graph):
        # Paths not recorded, steps already short: only labels for
        # actual downgrades appear.
        config = WalkConfig(num_walkers=100, max_steps=10)
        degraded, applied = apply_degradation(
            config, graph, 0.8, DegradationPolicy()
        )
        assert degraded is config
        assert applied == ()

    def test_shrink_respects_explicit_starts(self, graph):
        starts = np.arange(40, dtype=np.int64) % graph.num_vertices
        config = WalkConfig(num_walkers=40, max_steps=5, start_vertices=starts)
        degraded, applied = apply_degradation(
            config, graph, 1.0, DegradationPolicy()
        )
        assert degraded.num_walkers == 10
        assert degraded.start_vertices.size == 10
        # The degraded config still validates and runs.
        result = WalkEngine(graph, UniformWalk(), degraded).run()
        assert result.walk_lengths.size == 10

    def test_invalid_policy(self):
        with pytest.raises(ConfigError):
            DegradationPolicy(drop_paths_at=0.9, cap_steps_at=0.5)
        with pytest.raises(ConfigError):
            DegradationPolicy(walker_fraction=0.0)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = FakeClock(step=0.0)
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=clock
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now = 11.0
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = FakeClock(step=0.0)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 10.0  # timer restarted at 6.0, not expired yet
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_limits_concurrent_probes(self):
        clock = FakeClock(step=0.0)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=1.0, half_open_probes=1,
            clock=clock,
        )
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        assert not breaker.allow()  # second probe refused


class TestRetryBudget:
    def test_drains_and_refills(self):
        budget = RetryBudget(capacity=2.0, deposit_ratio=0.5, initial=2.0)
        assert budget.try_acquire()
        assert budget.try_acquire()
        assert not budget.try_acquire()
        assert budget.denied == 1
        for _ in range(2):
            budget.record_success()
        assert budget.try_acquire()

    def test_capacity_cap(self):
        budget = RetryBudget(capacity=1.0, deposit_ratio=1.0)
        for _ in range(5):
            budget.record_success()
        assert budget.tokens == 1.0


class TestServiceMetrics:
    def test_percentiles(self):
        metrics = ServiceMetrics()
        for value in [0.01, 0.02, 0.03, 0.04]:
            metrics.record_latency(value)
        assert metrics.p50_latency == pytest.approx(0.025)
        assert metrics.p99_latency <= 0.04
        assert ServiceMetrics().p99_latency == 0.0

    def test_accounting(self):
        metrics = ServiceMetrics()
        metrics.submitted = 5
        metrics.served = 2
        metrics.record_shed("queue_full")
        metrics.failed = 1
        assert not metrics.accounting_balanced()
        assert metrics.accounting_balanced(pending=1)
        assert "queue_full=1" in metrics.report()

    def _shard(self, served=1, shed_reason=None, latency=None):
        shard = ServiceMetrics()
        shard.submitted = served + (1 if shed_reason else 0)
        shard.admitted = served
        shard.served = served
        if shed_reason:
            shard.record_shed(shed_reason)
        if latency is not None:
            shard.record_latency(latency)
        return shard

    def test_merge_accumulates_and_preserves_conservation(self):
        aggregate = ServiceMetrics()
        a = self._shard(served=3, shed_reason="queue_full", latency=0.01)
        b = self._shard(served=2, latency=0.04)
        assert aggregate.merge(a) is True
        assert aggregate.merge(b) is True
        assert aggregate.submitted == a.submitted + b.submitted
        assert aggregate.served == 5
        assert aggregate.shed == 1
        assert aggregate.shed_reasons == {"queue_full": 1}
        assert aggregate.latencies_seconds == [0.01, 0.04]
        assert (
            aggregate.served + aggregate.shed + aggregate.failed
            == aggregate.submitted
        )

    def test_merge_is_idempotent_per_source(self):
        aggregate = ServiceMetrics()
        shard = self._shard(served=4, shed_reason="deadline")
        assert aggregate.merge(shard) is True
        # Re-delivered delta (e.g. a supervised-pool restart resending
        # the same shard result) must not double-count.
        assert aggregate.merge(shard) is False
        assert aggregate.submitted == shard.submitted
        assert aggregate.shed_reasons == {"deadline": 1}
        # Self-merge and relayed duplicates are also refused: a fresh
        # relay that re-packages the already-counted shard is rejected
        # whole because its absorbed set overlaps the aggregate's.
        assert aggregate.merge(aggregate) is False
        relay = ServiceMetrics()
        assert relay.merge(shard) is True
        assert aggregate.merge(relay) is False
        assert aggregate.submitted == shard.submitted

    def test_merge_transitive_dedup_via_merged_sources(self):
        shard = self._shard(served=2)
        left, right = ServiceMetrics(), ServiceMetrics()
        assert left.merge(shard) and right.merge(shard)
        root = ServiceMetrics()
        assert root.merge(left) is True
        # right re-packages the shard root already counted via left;
        # the overlap in merged_sources refuses it whole.
        assert root.merge(right) is False
        assert root.served == 2
        assert shard.source_id in root.merged_sources

    def test_merge_concurrent_shards_exact(self):
        import threading

        aggregate = ServiceMetrics()
        shards = [self._shard(served=1, latency=0.01) for _ in range(16)]
        # Each shard delivered twice, concurrently: exactly one of the
        # two deliveries may win.
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda s=s: outcomes.append(aggregate.merge(s))
            )
            for s in shards
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == len(shards)
        assert aggregate.served == len(shards)
        assert len(aggregate.latencies_seconds) == len(shards)
        assert (
            aggregate.served + aggregate.shed + aggregate.failed
            == aggregate.submitted
        )


class TestWalkService:
    def test_deadline_free_request_bit_identical(self, graph):
        config = WalkConfig(
            num_walkers=30, max_steps=12, record_paths=True, seed=11
        )
        direct = WalkEngine(graph, DeepWalk(), config).run()
        with WalkService(graph, num_workers=2, queue_capacity=8) as service:
            response = service.submit(
                WalkRequest(program=DeepWalk(), config=config)
            ).wait(timeout=60.0)
        assert response.status == OK
        assert response.degradations == ()
        assert len(response.result.paths) == len(direct.paths)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(direct.paths, response.result.paths)
        )

    def test_deadline_exceeded_carries_partial(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=10, record_paths=True)
        with WalkService(graph, num_workers=1, queue_capacity=4) as service:
            response = service.submit(
                WalkRequest(program=UniformWalk(), config=config, deadline=0.0)
            ).wait(timeout=60.0)
        assert response.status == DEADLINE_EXCEEDED
        assert response.result is not None
        assert response.result.status == "deadline_exceeded"
        assert response.result.walk_lengths.size == 10
        assert all(len(p) >= 1 for p in response.result.paths)

    def test_poison_request_fails_cleanly(self, graph):
        class Poison(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                raise RuntimeError("poison brew")

        with WalkService(graph, num_workers=1, queue_capacity=4) as service:
            ticket = service.submit(WalkRequest(program=Poison()))
            response = ticket.wait(timeout=60.0)
            assert response.status == "failed"
            assert "poison brew" in response.error
            with pytest.raises(ServiceError, match="poison brew"):
                ticket.raise_for_status()
        assert service.metrics.failed == 1
        assert service.accounting_balanced()

    def test_queue_full_sheds_newest(self, graph):
        blocker = threading.Event()

        class Blocking(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                blocker.wait(timeout=30.0)

        service = WalkService(
            graph, num_workers=1, queue_capacity=2, shed_policy="reject-newest"
        )
        slow_cfg = WalkConfig(num_walkers=2, max_steps=1)
        first = service.submit(WalkRequest(program=Blocking(), config=slow_cfg))
        deadline = time.monotonic() + 10.0
        while service.queue_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)  # wait for the worker to pick it up
        fillers = [
            service.submit(WalkRequest(program=UniformWalk())) for _ in range(2)
        ]
        overflow = service.submit(WalkRequest(program=UniformWalk()))
        shed_response = overflow.wait(timeout=5.0)
        assert shed_response.status == SHED
        assert shed_response.shed_reason == "queue_full"
        with pytest.raises(OverloadError):
            overflow.raise_for_status()
        blocker.set()
        service.close(wait=True)
        assert first.wait(1.0).status == OK
        assert all(f.wait(1.0).status == OK for f in fillers)
        assert service.metrics.shed == 1
        assert service.accounting_balanced()

    def test_priority_policy_evicts_low_priority(self, graph):
        blocker = threading.Event()

        class Blocking(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                blocker.wait(timeout=30.0)

        service = WalkService(
            graph, num_workers=1, queue_capacity=1, shed_policy="priority"
        )
        running = service.submit(
            WalkRequest(program=Blocking(), config=WalkConfig(num_walkers=2))
        )
        deadline = time.monotonic() + 10.0
        while service.queue_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        low = service.submit(WalkRequest(program=UniformWalk(), priority=0))
        high = service.submit(WalkRequest(program=UniformWalk(), priority=9))
        shed = low.wait(timeout=5.0)
        assert shed.status == SHED
        assert shed.shed_reason == "evicted:priority"
        blocker.set()
        service.close(wait=True)
        assert running.wait(1.0).status == OK
        assert high.wait(1.0).status == OK
        assert service.accounting_balanced()

    def test_degradation_recorded_on_response(self, graph):
        blocker = threading.Event()

        class Blocking(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                blocker.wait(timeout=30.0)

        service = WalkService(
            graph,
            num_workers=1,
            queue_capacity=4,
            shed_policy="reject-newest",
            degradation=DegradationPolicy(
                drop_paths_at=0.5, cap_steps_at=0.5, shrink_walkers_at=0.5,
                max_steps_cap=3,
            ),
        )
        first = service.submit(
            WalkRequest(program=Blocking(), config=WalkConfig(num_walkers=2))
        )
        deadline = time.monotonic() + 10.0
        while service.queue_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        # Fill the queue to 100% so the next executions see pressure.
        config = WalkConfig(num_walkers=40, max_steps=80, record_paths=True)
        queued = [
            service.submit(WalkRequest(program=UniformWalk(), config=config))
            for _ in range(4)
        ]
        blocker.set()
        service.close(wait=True)
        assert first.wait(1.0).status == OK
        responses = [t.wait(1.0) for t in queued]
        degraded = [r for r in responses if r.degradations]
        assert degraded, "pressure at dequeue should have degraded requests"
        worst = degraded[0]
        assert "drop_record_paths" in worst.degradations
        assert "cap_max_steps:3" in worst.degradations
        assert worst.result.paths is None
        assert worst.result.walkers.steps.max() <= 3
        assert service.metrics.degraded == len(degraded)

    def test_circuit_breaker_sheds_after_failures(self, graph):
        class Poison(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                raise RuntimeError("boom")

        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        service = WalkService(
            graph, num_workers=1, queue_capacity=8, breaker=breaker
        )
        poisons = [
            service.submit(WalkRequest(program=Poison())) for _ in range(2)
        ]
        for ticket in poisons:
            assert ticket.wait(timeout=60.0).status == "failed"
        late = service.submit(WalkRequest(program=UniformWalk()))
        response = late.wait(timeout=60.0)
        service.close(wait=True)
        assert response.status == SHED
        assert response.shed_reason == "circuit_open"
        assert service.metrics.shed_reasons["circuit_open"] == 1
        assert service.accounting_balanced()

    def test_cancelled_queued_request_sheds(self, graph):
        blocker = threading.Event()

        class Blocking(UniformWalk):
            def setup_walkers(self, g, walkers, rng):
                blocker.wait(timeout=30.0)

        service = WalkService(graph, num_workers=1, queue_capacity=4)
        first = service.submit(
            WalkRequest(program=Blocking(), config=WalkConfig(num_walkers=2))
        )
        deadline = time.monotonic() + 10.0
        while service.queue_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = service.submit(WalkRequest(program=UniformWalk()))
        queued.cancel()
        blocker.set()
        service.close(wait=True)
        assert first.wait(1.0).status == OK
        assert queued.wait(1.0).shed_reason == "cancelled"
        assert service.accounting_balanced()

    def test_submit_after_close_sheds_with_shutdown_reason(self, graph):
        service = WalkService(graph, num_workers=1, queue_capacity=2)
        service.close(wait=True)
        response = service.submit(WalkRequest(program=UniformWalk())).wait(1.0)
        assert response.status == SHED
        assert response.shed_reason == "shutdown"
        assert service.accounting_balanced()

    def test_deadline_exceeded_raise_for_status(self, graph):
        with WalkService(graph, num_workers=1, queue_capacity=2) as service:
            ticket = service.submit(
                WalkRequest(program=UniformWalk(), deadline=0.0)
            )
            with pytest.raises(DeadlineExceededError):
                ticket.raise_for_status(timeout=60.0)

    def test_sharded_request_through_service(self, graph):
        config = WalkConfig(num_walkers=24, max_steps=5)
        with WalkService(graph, num_workers=1, queue_capacity=2) as service:
            response = service.submit(
                WalkRequest(program=UniformWalk(), config=config, num_shards=3)
            ).wait(timeout=120.0)
        assert response.status == OK
        assert response.result.stats.total_steps == 24 * 5
        assert response.result.num_workers == 3

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_dynamic_graph_request_reports_its_epoch(self, graph, num_shards):
        """Sharded or not, the response names the epoch the walk pinned
        and its stats point at the graph's live maintenance counters."""
        from repro.graph.dynamic import DynamicGraph, EdgeUpdate

        dyn = DynamicGraph(graph)
        config = WalkConfig(num_walkers=24, max_steps=5)
        with WalkService(dyn, num_workers=1, queue_capacity=2) as service:
            assert service.apply_updates([EdgeUpdate("insert", 0, 1)]) == 1
            response = service.submit(
                WalkRequest(
                    program=UniformWalk(), config=config, num_shards=num_shards
                )
            ).wait(timeout=120.0)
        assert response.status == OK
        assert response.graph_epoch == 1
        assert response.result.stats.maintenance is dyn.maintenance
