"""Unit tests for execution statistics containers, and the conformance
suite of :mod:`repro.obs.counted`: every stats class declares each of
its counters once and derives merge, checkpoint packing and metric
export from the declarations."""

import copy
import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import ClusterStats, DeliveryStats
from repro.cluster.faults import DeliveryCounters
from repro.cluster.health import HealthStats
from repro.cluster.recovery import RecoveryStats
from repro.core.stats import ServiceMetrics, TerminationBreakdown, WalkStats
from repro.errors import ObsError, SnapshotError
from repro.obs import to_prometheus_text
from repro.obs.counted import Counted, counter, state
from repro.sampling.tables import MaintenanceStats
from repro.sampling.rejection import SamplingCounters


class TestTerminationBreakdown:
    def test_total(self):
        breakdown = TerminationBreakdown(
            by_step_limit=3, by_probability=2, by_dead_end=1
        )
        assert breakdown.total == 6


class TestWalkStats:
    def test_per_step_metrics(self):
        stats = WalkStats()
        stats.total_steps = 100
        stats.counters = SamplingCounters(trials=150, pd_evaluations=80)
        stats.full_scan_evaluations = 20
        assert stats.pd_evaluations_per_step == pytest.approx(1.0)
        assert stats.trials_per_step == pytest.approx(1.5)

    def test_zero_steps_safe(self):
        stats = WalkStats()
        assert stats.pd_evaluations_per_step == 0.0
        assert stats.trials_per_step == 0.0

    def test_summary_contains_key_fields(self):
        stats = WalkStats()
        stats.total_steps = 10
        stats.iterations = 4
        text = stats.summary()
        assert "steps=10" in text
        assert "iterations=4" in text
        assert "pd_evals/step" in text


# ---------------------------------------------------------------------------
# Conformance: "adding a counter is one line"
# ---------------------------------------------------------------------------


@dataclass
class Throwaway(Counted, prefix="throwaway"):
    """Declared here and nowhere else: whatever it can do, it got from
    its field declarations."""

    hits: int = counter("cache hits")
    misses: int = counter("cache misses", tier="cold")
    peak: float = counter("high watermark", fold="max", kind="gauge", default=0.0)
    owner: str = state("nobody")


@dataclass
class ThrowawayPlusOne(Throwaway):
    evictions: int = counter("the one extra line")


STATS_CLASSES = [
    SamplingCounters,
    TerminationBreakdown,
    MaintenanceStats,
    WalkStats,
    ServiceMetrics,
    RecoveryStats,
    DeliveryCounters,
    HealthStats,
    ClusterStats,
    ThrowawayPlusOne,
]

# Groups that start absent, and what a run hangs there.
ABSENT_GROUPS = {
    "maintenance": MaintenanceStats,
    "delivery": DeliveryStats,
    "health": HealthStats,
}


def make(cls):
    return cls(num_nodes=4) if cls is ClusterStats else cls()


def fill(stats, rng):
    """Seeded random values in every declared field, by its shape."""
    if isinstance(stats, DeliveryStats):
        for counters in stats.per_kind.values():
            fill(counters, rng)
        return stats
    for name, decl in stats.declarations().items():
        if decl is None:
            continue
        current = getattr(stats, name)
        if decl.fold in ("group", "keep"):
            value = fill(current or ABSENT_GROUPS[name](), rng)
        elif decl.kind == "histogram":
            value = rng.integers(1, 500, size=rng.integers(2, 9)).tolist()
        elif isinstance(current, dict):
            value = {key: int(rng.integers(1, 50)) for key in ("a", "b", "c")}
        elif decl.keyed is not None:
            value = rng.integers(1, 50, size=4)
        elif decl.fold == "same":
            value = 4
        elif decl.integral:
            value = int(rng.integers(1, 1000))
        else:
            value = float(rng.random()) + 0.5
        setattr(stats, name, value)
    return stats


def filled(cls, seed):
    return fill(make(cls), np.random.default_rng(seed))


def reference_fold(fold, mine, theirs):
    """The fold table, written out independently of the module."""
    if fold == "sum" and isinstance(mine, dict):
        return {
            key: mine.get(key, 0) + theirs.get(key, 0)
            for key in {**mine, **theirs}
        }
    if fold in ("sum", "samples"):
        return mine + theirs
    if fold == "max":
        return max(mine, theirs)
    if fold == "series":
        return [
            a + b for a, b in itertools.zip_longest(mine, theirs, fillvalue=0)
        ]
    assert fold == "same" and mine == theirs
    return mine


def assert_merged(merged, before, other):
    for name, decl in merged.declarations().items():
        got, mine, theirs = (getattr(s, name) for s in (merged, before, other))
        if decl is None or decl.fold == "keep":
            continue
        if decl.fold == "group":
            assert_merged(got, mine, theirs)
        else:
            np.testing.assert_array_equal(
                got, reference_fold(decl.fold, mine, theirs), err_msg=name
            )


def exported(stats) -> str:
    return to_prometheus_text(stats.to_registry())


def counter_fields(stats, prefix=()):
    """(path, owner, field, decl) of every declared counter, nested
    groups included (one message kind stands for the delivery total)."""
    if isinstance(stats, DeliveryStats):
        stats = next(iter(stats.per_kind.values()))
    for name, decl in stats.declarations().items():
        if decl is None:
            continue
        if decl.fold in ("group", "keep"):
            yield from counter_fields(getattr(stats, name), prefix + (name,))
        elif decl.export is not None:
            yield prefix + (name,), stats, name, decl


@pytest.mark.parametrize("cls", STATS_CLASSES, ids=lambda cls: cls.__name__)
class TestConformance:
    def test_every_field_is_declared_or_marked_state(self, cls):
        names = [spec.name for spec in dataclasses.fields(cls)]
        assert list(cls.declarations()) == names

    def test_merge_is_the_declared_fold(self, cls):
        mine, theirs = filled(cls, 1), filled(cls, 2)
        before = copy.deepcopy(mine)
        kept = {
            name: getattr(mine, name)
            for name, decl in cls.declarations().items()
            if decl is not None and decl.fold == "keep"
        }
        mine.merge(theirs)
        assert_merged(mine, before, theirs)
        for name, reference in kept.items():
            assert getattr(mine, name) is reference
            assert exported(reference) == exported(getattr(before, name))

    def test_blank_is_the_identity_of_merge(self, cls):
        blank, source = make(cls), filled(cls, 3)
        blank.merge(source)
        assert exported(blank) == exported(source)

    def test_pack_round_trips(self, cls):
        source, target = filled(cls, 4), filled(cls, 5)
        packed = source.pack()
        assert packed.ndim == 1 and packed.dtype in (np.int64, np.float64)
        target.unpack(packed)
        np.testing.assert_array_equal(target.pack(), packed)
        assert target.pack().dtype == packed.dtype

    def test_unpack_rejects_wrong_length_and_non_integers(self, cls):
        stats = filled(cls, 6)
        packed = stats.pack()
        bad = [
            packed[:-1],
            np.append(packed, 0),
            packed.reshape(1, -1),
            packed.astype(bool),
        ]
        integral = [flag for _, _, flag in stats._slots()]
        if any(integral):
            fraction = packed.astype(np.float64)
            fraction[integral.index(True)] += 0.5
            bad += [fraction, fraction * np.nan]
        for array in bad:
            with pytest.raises(SnapshotError):
                stats.unpack(array)
        np.testing.assert_array_equal(stats.pack(), packed)  # untouched

    def test_every_declared_field_reaches_the_export(self, cls):
        stats = filled(cls, 7)
        for path, owner, name, decl in counter_fields(stats):
            before = exported(stats)
            value = getattr(owner, name)
            if decl.kind == "histogram":
                changed = value + [7]
            elif isinstance(value, dict):
                changed = {**value, "a": value["a"] + 1}
            else:
                changed = value + 1
            setattr(owner, name, changed)
            assert exported(stats) != before, ".".join(path)

    def test_labels_reach_every_sample(self, cls):
        text = to_prometheus_text(filled(cls, 8).to_registry(shard="3"))
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert samples and all('shard="3"' in line for line in samples)


class TestOneLinePerCounter:
    def test_the_extra_line_got_all_four_behaviours(self):
        a = ThrowawayPlusOne(hits=1, misses=2, peak=0.5, evictions=3)
        b = ThrowawayPlusOne(hits=10, misses=20, peak=0.25, evictions=30)
        a.merge(b)
        assert (a.hits, a.misses, a.peak, a.evictions) == (11, 22, 0.5, 33)
        assert a.pack().tolist() == [11.0, 22.0, 0.5, 33.0]
        b.unpack(a.pack())
        assert b.evictions == 33 and isinstance(b.evictions, int)
        text = exported(a)
        assert "# TYPE throwaway_evictions_total counter" in text
        assert "throwaway_evictions_total 33" in text
        assert 'throwaway_misses_total{tier="cold"} 22' in text
        assert "# TYPE throwaway_peak gauge" in text
        assert a.owner == "nobody" and "nobody" not in text

    def test_an_undeclared_field_is_refused(self):
        @dataclass
        class Forgot(Counted):
            hits: int = counter("declared")
            misses: int = 0

        with pytest.raises(TypeError, match="Forgot.misses is not declared"):
            Forgot().merge(Forgot())

    def test_same_fold_refuses_disagreement_and_adopts_into_a_blank(self):
        blank = WalkStats()
        blank.merge(WalkStats(graph_epoch=1))
        assert blank.graph_epoch == 1
        blank.merge(WalkStats())  # a static-graph source says nothing
        assert blank.graph_epoch == 1
        with pytest.raises(ObsError, match="WalkStats.graph_epoch differs"):
            blank.merge(WalkStats(graph_epoch=2))

    def test_a_checkpoint_carries_the_scalars_only(self):
        """Series, per-node arrays, host clocks and live references to
        someone else's counters are not in ``pack``."""
        assert filled(WalkStats, 9).pack().size == 5 + 3 + 5
        assert filled(ClusterStats, 9).pack().size == 1 + 5
        assert filled(HealthStats, 9).pack().dtype == np.float64

    def test_service_merge_keeps_its_idempotency_guard(self):
        aggregate, delta = ServiceMetrics(), filled(ServiceMetrics, 10)
        assert aggregate.merge(delta) is True
        assert aggregate.merge(delta) is False
        assert aggregate.submitted == delta.submitted
        assert aggregate.shed_reasons == delta.shed_reasons

    def test_the_shed_total_is_exported_by_cause(self):
        """``shed`` is the one counter with no series of its own: the
        causes itemise it, and an idle service still writes the series."""
        metrics = ServiceMetrics()
        assert metrics.to_registry().value("service_shed", reason="none") == 0
        metrics.record_shed("queue_full")
        metrics.record_shed("queue_full")
        metrics.record_shed("cancelled")
        shed = [
            inst.value
            for inst in metrics.to_registry().instruments()
            if inst.name == "service_shed"
        ]
        assert sorted(shed) == [1, 2] and sum(shed) == metrics.shed


# ---------------------------------------------------------------------------
# Export pin: what the parent commit (PR 17, obs/adapters.py) wrote
# ---------------------------------------------------------------------------

# `repro walk` as the CI `obs` job runs it, HELP lines dropped: 29
# sample names, 52 sample lines.
PARENT_SMOKE_WALK = """\
# TYPE cluster_checkpoints_taken_total counter
cluster_checkpoints_taken_total 0
# TYPE cluster_crashes_total counter
cluster_crashes_total 0
# TYPE cluster_local_deliveries_total counter
cluster_local_deliveries_total 2586
# TYPE cluster_message_bytes_total counter
cluster_message_bytes_total 181088
# TYPE cluster_messages_total counter
cluster_messages_total 7288
# TYPE cluster_node_pd_evaluations_total counter
cluster_node_pd_evaluations_total{node="0"} 938
cluster_node_pd_evaluations_total{node="1"} 831
cluster_node_pd_evaluations_total{node="2"} 836
cluster_node_pd_evaluations_total{node="3"} 872
# TYPE cluster_node_trials_total counter
cluster_node_trials_total{node="0"} 1246
cluster_node_trials_total{node="1"} 1111
cluster_node_trials_total{node="2"} 1133
cluster_node_trials_total{node="3"} 1124
# TYPE cluster_nodes gauge
cluster_nodes 4
# TYPE cluster_recovery_seconds_total counter
cluster_recovery_seconds_total 0
# TYPE cluster_replayed_supersteps_total counter
cluster_replayed_supersteps_total 0
# TYPE cluster_simulated_seconds_total counter
cluster_simulated_seconds_total 0.0020974100000000005
# TYPE cluster_superstep_seconds histogram
cluster_superstep_seconds_bucket{le="1e-06"} 0
cluster_superstep_seconds_bucket{le="1e-05"} 0
cluster_superstep_seconds_bucket{le="0.0001"} 35
cluster_superstep_seconds_bucket{le="0.001"} 35
cluster_superstep_seconds_bucket{le="0.01"} 35
cluster_superstep_seconds_bucket{le="0.1"} 35
cluster_superstep_seconds_bucket{le="1"} 35
cluster_superstep_seconds_bucket{le="10"} 35
cluster_superstep_seconds_bucket{le="+Inf"} 35
cluster_superstep_seconds_sum 0.0020974100000000005
cluster_superstep_seconds_count 35
# TYPE cluster_supersteps_total counter
cluster_supersteps_total 35
# TYPE walk_active_walkers histogram
walk_active_walkers_bucket{le="1"} 5
walk_active_walkers_bucket{le="10"} 7
walk_active_walkers_bucket{le="100"} 11
walk_active_walkers_bucket{le="1000"} 35
walk_active_walkers_bucket{le="10000"} 35
walk_active_walkers_bucket{le="100000"} 35
walk_active_walkers_bucket{le="1000000"} 35
walk_active_walkers_bucket{le="+Inf"} 35
walk_active_walkers_sum 4814
walk_active_walkers_count 35
# TYPE walk_full_scan_evaluations_total counter
walk_full_scan_evaluations_total 0
# TYPE walk_init_seconds_total counter
walk_init_seconds_total 0.003040800000235322
# TYPE walk_iterations_total counter
walk_iterations_total 35
# TYPE walk_messages_sent_total counter
walk_messages_sent_total 7288
# TYPE walk_pd_evaluations_total counter
walk_pd_evaluations_total 3477
# TYPE walk_pre_accepts_total counter
walk_pre_accepts_total 1137
# TYPE walk_sampling_trials_total counter
walk_sampling_trials_total 4614
# TYPE walk_steps_total counter
walk_steps_total 4000
# TYPE walk_teleports_total counter
walk_teleports_total 0
# TYPE walk_terminations_total counter
walk_terminations_total{reason="dead_end"} 0
walk_terminations_total{reason="probability"} 0
walk_terminations_total{reason="step_limit"} 200
# TYPE walk_wall_seconds_total counter
walk_wall_seconds_total 0.04897633399923507
"""

# The adapter's output for service_fill() below.
PARENT_DRAINED_SERVICE = """\
# TYPE service_admitted_total counter
service_admitted_total 46
# TYPE service_deadline_hits_total counter
service_deadline_hits_total 1
# TYPE service_degraded_total counter
service_degraded_total 5
# TYPE service_distributed_runs_total counter
service_distributed_runs_total 2
# TYPE service_failed_total counter
service_failed_total 3
# TYPE service_queue_depth_peak gauge
service_queue_depth_peak 16
# TYPE service_request_latency_seconds histogram
service_request_latency_seconds_bucket{le="0.001"} 1
service_request_latency_seconds_bucket{le="0.005"} 2
service_request_latency_seconds_bucket{le="0.01"} 2
service_request_latency_seconds_bucket{le="0.025"} 4
service_request_latency_seconds_bucket{le="0.05"} 4
service_request_latency_seconds_bucket{le="0.1"} 4
service_request_latency_seconds_bucket{le="0.25"} 4
service_request_latency_seconds_bucket{le="0.5"} 5
service_request_latency_seconds_bucket{le="1"} 6
service_request_latency_seconds_bucket{le="2.5"} 6
service_request_latency_seconds_bucket{le="5"} 7
service_request_latency_seconds_bucket{le="10"} 7
service_request_latency_seconds_bucket{le="+Inf"} 8
service_request_latency_seconds_sum 17.0934
service_request_latency_seconds_count 8
# TYPE service_served_total counter
service_served_total 21
# TYPE service_shed_total counter
service_shed_total{reason="evicted:priority"} 25
service_shed_total{reason="queue_full"} 151
# TYPE service_submitted_total counter
service_submitted_total 200
# TYPE service_updates_applied_total counter
service_updates_applied_total 7
"""

HOST_CLOCKS = ("walk_wall_seconds_total", "walk_init_seconds_total")


def service_fill() -> ServiceMetrics:
    metrics = ServiceMetrics(
        submitted=200, admitted=46, served=21, failed=3, degraded=5,
        deadline_hits=1, queue_depth_peak=16, distributed_runs=2,
        straggler_suspicions=3, walkers_rebalanced=40, speculative_wins=1,
        updates_applied=7, epochs_committed=2,
    )
    for reason, count in (("queue_full", 151), ("evicted:priority", 25)):
        for _ in range(count):
            metrics.record_shed(reason)
    for seconds in (0.0004, 0.003, 0.02, 0.02, 0.3, 0.75, 4.0, 12.0):
        metrics.record_latency(seconds)
    assert metrics.accounting_balanced()
    return metrics


def pinned_lines(text):
    """Every TYPE line (name and kind) and sample line (name, labels,
    value); a host clock keeps its name only."""
    lines = set()
    for line in text.splitlines():
        if line.startswith("# HELP"):
            continue
        if line.startswith(HOST_CLOCKS):
            line = line.split(" ")[0]
        lines.add(line)
    return lines


def added_series(parent, change):
    return {line.split()[2] for line in change - parent if line.startswith("# TYPE")}


class TestExportIsASupersetOfTheParents:
    def test_ci_smoke_walk(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        arguments = (
            "walk --dataset livejournal --scale 0.02 --algorithm node2vec "
            f"--walkers 200 --length 20 --nodes 4 --emit-metrics {target}"
        )
        assert main(arguments.split()) == 0
        capsys.readouterr()
        parent = pinned_lines(PARENT_SMOKE_WALK)
        change = pinned_lines(target.read_text())
        samples = {line for line in parent if not line.startswith("#")}
        assert len(samples) == 52
        assert len({line.split("{")[0].split(" ")[0] for line in samples}) == 29
        assert parent <= change, sorted(parent - change)
        # The only additions: the fields the adapter used to drop.
        assert added_series(parent, change) == {
            "walk_appendix_trials_total",
            "walk_sampling_accepts_total",
            "cluster_restarts_total",
            "cluster_light_mode_node_supersteps_total",
            "cluster_node_walker_supersteps_total",
        }

    def test_drained_service(self):
        parent = pinned_lines(PARENT_DRAINED_SERVICE)
        change = pinned_lines(exported(service_fill()))
        assert parent <= change, sorted(parent - change)
        assert added_series(parent, change) == {
            "service_epochs_committed_total",
            "service_straggler_suspicions_total",
            "service_walkers_rebalanced_total",
            "service_speculative_wins_total",
        }

