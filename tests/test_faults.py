"""Chaos tests: fault injection, reliable delivery, crash recovery.

The fault plane's core guarantee is that a faulty run with recovery
produces the *same walk* as a fault-free run — faults live on their own
RNG stream and reliable delivery hides them from the logical protocol.
The chaos tests assert that bit-for-bit (paths) and distributionally
(visit counts, walk lengths), across random fault plans and three
algorithm families; the accounting tests reconcile every injected fault
against the retransmission and dedup counters exactly.

The CI chaos job re-runs this file under several ``REPRO_CHAOS_SEED``
values to widen the sampled plan space, and under several
``REPRO_CHAOS_PROFILE`` values (``message`` / ``straggler`` /
``flaky-link`` / ``churn``) to vary which fault family dominates the
random plans (``churn`` targets the dynamic-graph crash sweep in
``test_dynamic_chaos.py``; here it falls back to the message plans).
"""

import os

import numpy as np
import pytest

from repro.algorithms import MetaPathWalk, Node2Vec, PPR, random_schemes
from repro.cluster import (
    DistributedWalkEngine,
    FaultPlan,
    FlakyLink,
    MessageFaults,
    MessageKind,
    NodeCrash,
    NodeSlowdown,
    StragglerPolicy,
    random_degraded_plan,
    random_fault_plan,
)
from repro.core.config import WalkConfig
from repro.core.snapshot import restore_checkpoint
from repro.errors import (
    ClusterError,
    FaultError,
    MessageTimeoutError,
    NodeCrashError,
)
from repro.graph.datasets import load_dataset
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from tests.helpers import (
    assert_matches_distribution,
    assert_same_run,
    resumed_run,
)

NUM_NODES = 4

# CI widens coverage by re-running the chaos sweep under extra seeds.
CHAOS_SEEDS = (
    [int(os.environ["REPRO_CHAOS_SEED"])]
    if os.environ.get("REPRO_CHAOS_SEED")
    else [1, 2]
)

# ... and under different fault-family profiles.
CHAOS_PROFILE = os.environ.get("REPRO_CHAOS_PROFILE", "message")


def _chaos_plan(seed):
    """The equivalence sweep's plan generator, keyed by CI profile."""
    base = random_fault_plan(seed, NUM_NODES)
    if CHAOS_PROFILE == "message":
        return base
    if CHAOS_PROFILE == "straggler":
        return random_degraded_plan(
            seed, NUM_NODES, max_flaky_links=0, base=base
        )
    if CHAOS_PROFILE == "flaky-link":
        return random_degraded_plan(
            seed, NUM_NODES, max_slowdowns=1, max_factor=3.0,
            max_flaky_links=2, base=base,
        )
    if CHAOS_PROFILE == "churn":
        # The churn profile exists for tests/test_dynamic_chaos.py (the
        # dynamic-graph crash sweep); this file still runs in that CI
        # cell, under the baseline message-fault plans.
        return base
    raise AssertionError(f"unknown REPRO_CHAOS_PROFILE {CHAOS_PROFILE!r}")


@pytest.fixture(scope="module")
def graph():
    return uniform_degree_graph(300, 6, seed=0, undirected=True)


def _program_setup(name, graph, seed):
    """(program factory, graph, config) per algorithm family."""
    if name == "node2vec":
        config = WalkConfig(
            num_walkers=120, max_steps=18, record_paths=True, seed=seed
        )
        return lambda: Node2Vec(p=0.5, q=2.0, biased=False), graph, config
    if name == "metapath":
        typed = assign_random_edge_types(graph, 3, seed=5)
        schemes = random_schemes(6, 3, 3, seed=6)
        config = WalkConfig(
            num_walkers=120, max_steps=15, record_paths=True, seed=seed
        )
        return lambda: MetaPathWalk(schemes), typed, config
    if name == "ppr":
        config = WalkConfig(
            num_walkers=200,
            max_steps=40,
            termination_probability=0.08,
            record_paths=True,
            seed=seed,
        )
        return lambda: PPR(), graph, config
    raise AssertionError(name)


def _run(graph, make_program, config, **engine_kwargs):
    return DistributedWalkEngine(
        graph, make_program(), config, num_nodes=NUM_NODES, **engine_kwargs
    ).run()


def _visits(paths):
    return np.concatenate([np.asarray(p) for p in paths])


class TestChaosEquivalence:
    """Random fault plans never change what the walk computes."""

    @pytest.mark.parametrize("algorithm", ["node2vec", "metapath", "ppr"])
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_faulty_run_matches_fault_free(self, graph, algorithm, chaos_seed):
        make_program, walk_graph, config = _program_setup(
            algorithm, graph, seed=40 + chaos_seed
        )
        plan = _chaos_plan(chaos_seed)
        clean = _run(walk_graph, make_program, config)
        faulty = _run(
            walk_graph, make_program, config,
            fault_plan=plan, checkpoint_every=4,
        )

        # Bit-identical: same paths, same lengths, same logical stats.
        assert len(clean.paths) == len(faulty.paths)
        for a, b in zip(clean.paths, faulty.paths):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            clean.walk_lengths, faulty.walk_lengths
        )
        assert clean.stats.counters.trials == faulty.stats.counters.trials

        # Distributional: visit counts match under the chi-square check
        # the engine-equivalence tests use (trivially, given the above —
        # this is the acceptance criterion stated independently).
        clean_visits = _visits(clean.paths)
        law = np.bincount(clean_visits, minlength=walk_graph.num_vertices)
        assert_matches_distribution(
            _visits(faulty.paths), law / law.sum()
        )

        # Every injected fault was absorbed by the delivery layer.
        faulty.cluster.delivery.check_conservation()
        if plan.has_message_faults:
            assert faulty.cluster.simulated_seconds >= clean.cluster.simulated_seconds

    @pytest.mark.parametrize("algorithm", ["node2vec", "ppr"])
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_resumed_faulty_run_reproduces_its_bill(
        self, graph, algorithm, chaos_seed, tmp_path
    ):
        """Saved mid-run and resumed from the file, a faulty run walks
        the same paths and pays the same bill as the uninterrupted one
        — crashes after the pause included."""
        make_program, walk_graph, config = _program_setup(
            algorithm, graph, seed=40 + chaos_seed
        )
        options = dict(
            num_nodes=NUM_NODES, fault_plan=_chaos_plan(chaos_seed),
            checkpoint_every=4,
        )

        def make():
            return DistributedWalkEngine(
                walk_graph, make_program(), config, **options
            )

        def restore(path):
            return restore_checkpoint(
                walk_graph, make_program(), config, path, **options
            )

        whole = make().run()
        for pause in (3, 6, 10):
            resumed = resumed_run(
                make(), pause, tmp_path / f"pause-{pause}.npz", restore
            )
            assert_same_run(resumed, whole)

    def test_delay_only_plan_costs_spurious_retransmissions(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=9
        )
        plan = FaultPlan(
            seed=3, default_faults=MessageFaults(delay=0.1)
        )
        result = _run(walk_graph, make_program, config, fault_plan=plan)
        result.cluster.delivery.check_conservation()
        delivery = result.cluster.delivery.total()
        # A delayed packet still arrives, so the retransmission it
        # provokes is always discarded by the receiver: with no drops
        # or duplicates, every retransmission becomes exactly one
        # dedup.  (A delay hitting an already-acked retransmission
        # provokes nothing further, so delays can exceed both.)
        assert delivery.dedups == delivery.retransmissions > 0
        assert delivery.delays >= delivery.retransmissions


class TestCounterReconciliation:
    """Injected faults reconcile exactly with protocol overhead."""

    def test_drop_and_duplicate_accounting_is_exact(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=11
        )
        plan = FaultPlan(
            seed=7,
            default_faults=MessageFaults(drop=0.1, duplicate=0.05),
        )
        result = _run(walk_graph, make_program, config, fault_plan=plan)
        for kind in MessageKind:
            counters = result.cluster.delivery.of(kind)
            counters.check_conservation()
            # Without delays, only a dropped packet of an undelivered
            # message triggers a retransmission, and only duplicate
            # copies are ever discarded.
            assert counters.retransmissions == counters.drops
            assert counters.dedups == counters.duplicates
            assert counters.accepts == counters.logical

    def test_clean_network_has_zero_overhead(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=12
        )
        plan = FaultPlan(seed=1)  # no faults at all
        result = _run(walk_graph, make_program, config, fault_plan=plan)
        result.cluster.delivery.check_conservation()
        delivery = result.cluster.delivery.total()
        assert delivery.retransmissions == 0
        assert delivery.dedups == 0
        assert delivery.logical == delivery.accepts > 0


class TestAcceptance:
    """The issue's end-to-end scenario on the Twitter stand-in."""

    def test_twitter_node2vec_survives_crash_and_message_faults(self):
        walk_graph = load_dataset("twitter", scale=0.02)
        config = WalkConfig(
            num_walkers=200, max_steps=20, record_paths=True, seed=1
        )
        faults = MessageFaults(drop=0.06, duplicate=0.03)
        plan = FaultPlan(
            seed=17,
            crashes=(NodeCrash(superstep=5, node=1),),
            per_kind={kind: faults for kind in MessageKind},
        )
        make_program = lambda: Node2Vec(p=0.5, q=2.0, biased=False)
        clean = _run(walk_graph, make_program, config)
        faulty = _run(
            walk_graph, make_program, config,
            fault_plan=plan, checkpoint_every=4,
        )

        # Completion + distributional equivalence.
        assert faulty.walkers.num_active == 0
        np.testing.assert_array_equal(
            clean.walk_lengths, faulty.walk_lengths
        )
        clean_visits = _visits(clean.paths)
        law = np.bincount(clean_visits, minlength=walk_graph.num_vertices)
        assert_matches_distribution(_visits(faulty.paths), law / law.sum())

        # Walker migration stayed exactly-once despite drops and dups.
        migrate = faulty.cluster.delivery.of(MessageKind.WALKER_MIGRATE)
        migrate.check_conservation()
        assert migrate.accepts == migrate.logical
        assert migrate.drops > 0 and migrate.duplicates > 0

        # The run report itemises the robustness bill.
        recovery = faulty.cluster.recovery
        assert recovery.crashes == 1
        assert recovery.checkpoints_taken >= 2
        assert recovery.replayed_supersteps >= 1
        report = faulty.cluster.report()
        for needle in (
            "retransmissions", "dedups", "crashes",
            "checkpoints taken", "supersteps replayed",
        ):
            assert needle in report
        assert faulty.cluster.simulated_seconds > clean.cluster.simulated_seconds


class TestFailureModes:
    def test_retransmission_budget_exhaustion_raises(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=13
        )
        plan = FaultPlan(seed=2, default_faults=MessageFaults(drop=1.0))
        with pytest.raises(MessageTimeoutError, match="16 attempts"):
            _run(walk_graph, make_program, config, fault_plan=plan)

    def test_crash_with_checkpointing_disabled_aborts(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=14
        )
        plan = FaultPlan(seed=2, crashes=(NodeCrash(superstep=2, node=0),))
        with pytest.raises(NodeCrashError):
            _run(
                walk_graph, make_program, config,
                fault_plan=plan, checkpoint_every=0,
            )

    def test_permanent_crash_without_degrade_aborts(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=15
        )
        plan = FaultPlan(
            seed=2,
            crashes=(NodeCrash(superstep=2, node=0, restart=False),),
        )
        with pytest.raises(NodeCrashError):
            _run(walk_graph, make_program, config, fault_plan=plan)

    def test_streaming_paths_incompatible_with_crash_plan(
        self, graph, tmp_path
    ):
        config = WalkConfig(
            num_walkers=20,
            max_steps=10,
            stream_paths_to=str(tmp_path / "corpus.txt"),
        )
        plan = FaultPlan(seed=2, crashes=(NodeCrash(superstep=1, node=0),))
        with pytest.raises(FaultError):
            DistributedWalkEngine(
                graph, Node2Vec(p=1.0, q=1.0, biased=False), config,
                num_nodes=NUM_NODES, fault_plan=plan,
            )

    def test_crash_outside_the_cluster_is_refused(self, graph):
        """A crash on a node the cluster lacks is refused, not skipped."""
        plan = FaultPlan(
            seed=2,
            crashes=(NodeCrash(superstep=9, node=NUM_NODES, restart=False),),
        )
        with pytest.raises(ClusterError, match=f"crash node {NUM_NODES} "):
            DistributedWalkEngine(
                graph, Node2Vec(p=1.0, q=1.0, biased=False),
                WalkConfig(num_walkers=20, max_steps=10),
                num_nodes=NUM_NODES, fault_plan=plan,
            )

    def test_plan_validation(self):
        with pytest.raises(ClusterError):
            MessageFaults(drop=1.2)
        with pytest.raises(ClusterError):
            MessageFaults(drop=0.6, duplicate=0.3, delay=0.2)
        with pytest.raises(ClusterError):
            NodeCrash(superstep=-1, node=0)


class TestRollbackRestoresCountersInPlace:
    """A crash rollback rewinds the checkpointed counters of the one
    ``engine.stats`` object; it never swaps in a copy."""

    PLAN = FaultPlan(seed=2, crashes=(NodeCrash(superstep=5, node=1),))

    def _engine(self, graph, walk_graph=None):
        config = WalkConfig(num_walkers=60, max_steps=16, record_paths=True, seed=3)
        return DistributedWalkEngine(
            walk_graph if walk_graph is not None else graph,
            Node2Vec(p=0.5, q=2.0, biased=False),
            config,
            num_nodes=NUM_NODES,
            fault_plan=self.PLAN,
            checkpoint_every=4,
        )

    def test_stats_identity_and_live_maintenance_survive(self, graph):
        from repro.graph.dynamic import DynamicGraph, EdgeUpdate

        dyn = DynamicGraph(graph)
        dyn.commit([EdgeUpdate("insert", 0, 1)])
        engine = self._engine(graph, dyn)
        stats_before = engine.stats
        result = engine.run()
        assert result.cluster.recovery.crashes == 1
        assert result.cluster.recovery.replayed_supersteps >= 1
        assert result.stats is stats_before is engine.stats
        assert result.stats.maintenance is dyn.maintenance
        assert result.stats.graph_epoch == 1

    def test_paused_result_is_not_orphaned_and_clocks_run_forward(self, graph):
        healthy = DistributedWalkEngine(
            graph,
            Node2Vec(p=0.5, q=2.0, biased=False),
            WalkConfig(num_walkers=60, max_steps=16, record_paths=True, seed=3),
            num_nodes=NUM_NODES,
        ).run()
        engine = self._engine(graph)
        paused = engine.run(max_iterations=4)
        assert paused.stats.wall_time_seconds > 0.0
        # An unmistakable amount of host time already on the clock.
        paused.stats.wall_time_seconds = wall_at_pause = 1000.0
        init_seconds = paused.stats.init_time_seconds
        finished = engine.run()  # the crash and its rollback happen here
        assert finished.cluster.recovery.crashes == 1
        # The first result still reads the live counters ...
        assert paused.stats is finished.stats
        assert paused.stats.total_steps == healthy.stats.total_steps
        assert paused.stats.active_per_iteration == healthy.stats.active_per_iteration
        # ... and the rollback did not rewind the host clocks.
        assert finished.stats.wall_time_seconds > wall_at_pause
        assert finished.stats.init_time_seconds == init_seconds


def _degraded_plan(seed=23):
    """A ramping straggler plus a flaky high-RTT link."""
    return FaultPlan(
        seed=seed,
        slowdowns=(
            NodeSlowdown(node=1, factor=5.0, start_superstep=2,
                         ramp_supersteps=4),
        ),
        flaky_links=(
            FlakyLink(a=0, b=2, faults=MessageFaults(drop=0.2, delay=0.25),
                      rtt_factor=4.0),
        ),
    )


class TestStragglerTolerance:
    """Degraded nodes and links: detected, tolerated, walk unchanged."""

    def test_degraded_run_completes_bit_identical_and_detected(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=21
        )
        clean = _run(walk_graph, make_program, config)
        degraded = _run(
            walk_graph, make_program, config, fault_plan=_degraded_plan()
        )

        # Completes with the bit-identical walk: the tolerance stack
        # (health, speculation, rebalancing) never touches the walk RNG.
        assert degraded.walkers.num_active == 0
        for a, b in zip(clean.paths, degraded.paths):
            np.testing.assert_array_equal(a, b)
        degraded.cluster.delivery.check_conservation()

        # The failure detector flagged the straggler — and only it.
        health = degraded.cluster.health
        assert health is not None
        assert health.suspect_events >= 1
        assert health.suspected_supersteps > 0
        assert degraded.cluster.simulated_seconds > clean.cluster.simulated_seconds
        report = degraded.cluster.report()
        for needle in ("health:", "suspicions", "peak phi"):
            assert needle in report
        # A clean run carries no health section at all.
        assert clean.cluster.health is None
        assert "health:" not in clean.cluster.report()

    def test_tolerance_beats_naive_straggling(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=22
        )
        naive = _run(
            walk_graph, make_program, config, fault_plan=_degraded_plan(),
            straggler_policy=StragglerPolicy(speculate=False, rebalance=False),
        )
        tolerant = _run(
            walk_graph, make_program, config, fault_plan=_degraded_plan(),
            # 120 walkers over 4 nodes leave ~30 on the suspect, so
            # lower the migration floor to let rebalancing engage.
            straggler_policy=StragglerPolicy(min_walkers=8),
        )
        # Same walk either way...
        for a, b in zip(naive.paths, tolerant.paths):
            np.testing.assert_array_equal(a, b)
        # ...but speculation + rebalancing claw back simulated time.
        assert (
            tolerant.cluster.simulated_seconds
            < naive.cluster.simulated_seconds
        )
        health = tolerant.cluster.health
        assert health.speculation_wins > 0
        assert health.migrated_walkers > 0
        # Speculative copies reconcile through the dedup layer, so the
        # conservation laws still balance on both runs.
        naive.cluster.delivery.check_conservation()
        tolerant.cluster.delivery.check_conservation()

    def test_adaptive_timers_absorb_flaky_link_delays(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=23
        )
        plan = FaultPlan(
            seed=5,
            flaky_links=(
                FlakyLink(a=0, b=2, faults=MessageFaults(delay=0.4),
                          rtt_factor=1.0),
            ),
        )
        result = _run(walk_graph, make_program, config, fault_plan=plan)
        result.cluster.delivery.check_conservation()
        delivery = result.cluster.delivery.total()
        # Early delays beat the initial timeout and cost spurious
        # retransmissions; once the link's timers learn its latency
        # tail, delayed packets are absorbed — so across the run most
        # delays never provoked a retransmission.
        assert delivery.delays > 0
        assert delivery.retransmissions < delivery.delays

    def test_replay_of_degraded_run_is_deterministic(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=24
        )
        first = _run(
            walk_graph, make_program, config, fault_plan=_degraded_plan()
        )
        second = _run(
            walk_graph, make_program, config, fault_plan=_degraded_plan()
        )
        assert (
            first.cluster.simulated_seconds
            == second.cluster.simulated_seconds
        )
        assert (
            first.cluster.delivery.total().retransmissions
            == second.cluster.delivery.total().retransmissions
        )
        health_a, health_b = first.cluster.health, second.cluster.health
        assert health_a.suspect_events == health_b.suspect_events
        assert health_a.migrated_walkers == health_b.migrated_walkers
        assert health_a.phi_max == health_b.phi_max

    def test_sanitizer_certifies_degraded_replay(self, graph):
        from repro.lint.sanitizer import run_sanitized

        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=25
        )

        def factory():
            return DistributedWalkEngine(
                walk_graph, make_program(), config, num_nodes=NUM_NODES,
                fault_plan=_degraded_plan(),
            )

        report = run_sanitized(factory, runs=2)
        assert report.deterministic

    @pytest.mark.parametrize("algorithm", ["node2vec", "metapath", "ppr"])
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_combined_chaos_schedule_property(
        self, graph, algorithm, chaos_seed
    ):
        """Property: under a randomized crash + drop + duplicate +
        delay + slowdown + flaky-link schedule, the run completes, the
        exactly-once accounting balances, and the walk is unchanged."""
        make_program, walk_graph, config = _program_setup(
            algorithm, graph, seed=60 + chaos_seed
        )
        plan = random_degraded_plan(
            chaos_seed,
            NUM_NODES,
            base=random_fault_plan(chaos_seed, NUM_NODES),
        )
        clean = _run(walk_graph, make_program, config)
        chaotic = _run(
            walk_graph, make_program, config,
            fault_plan=plan, checkpoint_every=4,
        )
        assert chaotic.walkers.num_active == 0
        for a, b in zip(clean.paths, chaotic.paths):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            clean.walk_lengths, chaotic.walk_lengths
        )
        chaotic.cluster.delivery.check_conservation()
        assert chaotic.cluster.health is not None


class TestGracefulDegradation:
    def test_dead_node_vertices_move_to_survivors(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=16
        )
        plan = FaultPlan(
            seed=4,
            crashes=(NodeCrash(superstep=3, node=2, restart=False),),
        )
        clean = _run(walk_graph, make_program, config)
        degraded = _run(
            walk_graph, make_program, config,
            fault_plan=plan, checkpoint_every=3, degrade_on_crash=True,
        )
        assert degraded.cluster.recovery.degraded_nodes == [2]
        # The walk itself is unchanged by the re-partitioning.
        for a, b in zip(clean.paths, degraded.paths):
            np.testing.assert_array_equal(a, b)
        # The dead node stops doing walker work after the crash: every
        # remaining walker superstep lands on a survivor.
        engine = DistributedWalkEngine(
            walk_graph, make_program(), config, num_nodes=NUM_NODES,
            fault_plan=FaultPlan(
                seed=4,
                crashes=(NodeCrash(superstep=3, node=2, restart=False),),
            ),
            checkpoint_every=3, degrade_on_crash=True,
        )
        engine.run()
        owners = engine._owner_table
        assert not np.any(owners == 2)
        assert np.array_equal(np.unique(owners), np.array([0, 1, 3]))

    def test_last_node_crash_is_fatal(self, graph):
        make_program, walk_graph, config = _program_setup(
            "node2vec", graph, seed=17
        )
        config = WalkConfig(num_walkers=30, max_steps=10, seed=3)
        plan = FaultPlan(
            seed=5, crashes=(NodeCrash(superstep=1, node=0, restart=False),)
        )
        engine = DistributedWalkEngine(
            walk_graph, make_program(), config, num_nodes=1,
            fault_plan=plan, checkpoint_every=2, degrade_on_crash=True,
        )
        with pytest.raises(NodeCrashError):
            engine.run()
