"""Tests for the unified telemetry layer (repro.obs).

Covers the registry/tracer primitives, the stats classes' projection
into the registry, the three exporter formats, and the integration
contracts the issue pins: traced local runs nest Gather/Move/Update under supersteps,
distributed walker hops stitch across node tracks via shared trace
ids, a degraded cluster run's exported trace is bit-identical across
replay, and a disabled tracer changes nothing.
"""

import json
import re

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec
from repro.cluster import DistributedWalkEngine, FaultPlan, MessageFaults
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.stats import ServiceMetrics
from repro.errors import ObsError
from repro.graph.generators import uniform_degree_graph
from repro.obs import (
    SUPERSTEP_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    Tracer,
    to_chrome_trace,
    to_json_lines,
    to_prometheus_text,
    write_chrome_trace,
)


class ManualClock:
    """Injectable clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def graph():
    return uniform_degree_graph(300, 6, seed=2, undirected=True)


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("walk_steps", "steps taken")
        counter.inc(5)
        assert registry.counter("walk_steps") is counter
        assert registry.value("walk_steps") == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ObsError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("shed", reason="queue_full").inc(2)
        registry.counter("shed", reason="deadline").inc(1)
        assert registry.value("shed", reason="queue_full") == 2
        assert registry.value("shed", reason="deadline") == 1
        assert registry.value("shed") == 0  # unlabelled is its own series

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ObsError):
            registry.gauge("depth")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("bad name")
        with pytest.raises(ObsError):
            registry.counter("ok", **{"0bad": "v"})

    def test_histogram_observe_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", boundaries=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(2.55)

    def test_histogram_boundary_conflicts(self):
        registry = MetricsRegistry()
        registry.histogram("lat", boundaries=(0.1, 1.0))
        with pytest.raises(ObsError):
            registry.histogram("lat", boundaries=(0.5, 1.0))
        with pytest.raises(ObsError):
            Histogram(name="bad", boundaries=(1.0, 0.5))

    def test_merge_adds_maxes_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("steps").inc(3)
        b.counter("steps").inc(4)
        a.gauge("peak").set(7)
        b.gauge("peak").set(5)
        a.histogram("lat", boundaries=(1.0,)).observe(0.5)
        b.histogram("lat", boundaries=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.value("steps") == 7
        assert a.value("peak") == 7
        assert a.get("lat").counts == [1, 1]

    def test_merge_never_mutates_source(self):
        source = MetricsRegistry()
        source.counter("steps").inc(2)
        sink = MetricsRegistry()
        sink.merge(source)
        sink.merge(source)  # merge is additive by design...
        assert sink.value("steps") == 4
        assert source.value("steps") == 2  # ...but the source is untouched

    def test_merge_boundary_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", boundaries=(1.0,))
        b.histogram("lat", boundaries=(2.0,))
        with pytest.raises(ObsError):
            a.merge(b)


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------


class TestTracer:
    def test_measured_spans_nest_per_track(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.now = 1.0
            with tracer.span("inner"):
                clock.now = 1.5
            clock.now = 2.0
        (inner,) = tracer.find("inner")
        (outer_span,) = tracer.find("outer")
        assert inner.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert outer_span.ts == 0.0 and outer_span.dur == pytest.approx(2.0)
        assert inner.ts == pytest.approx(1.0)
        assert outer.span_id == outer_span.span_id

    def test_tracks_nest_independently(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a", track="t1"):
            with tracer.span("b", track="t2"):
                pass
        (b,) = tracer.find("b")
        assert b.parent_id is None  # different track, no nesting

    def test_record_span_reads_no_clock(self):
        def exploding_clock():  # pragma: no cover - must never run
            raise AssertionError("declared path read the clock")

        tracer = Tracer(clock=exploding_clock)
        span_id = tracer.record_span("superstep", ts=1.0, dur=0.25)
        assert span_id > 0
        child = tracer.record_span(
            "stage.gather", ts=1.0, dur=0.1, parent_id=span_id
        )
        assert tracer.children_of(span_id)[0].span_id == child

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.record_span("x", ts=0.0, dur=1.0) == 0
        with tracer.span("y") as handle:
            assert handle is None
        assert len(tracer) == 0
        assert not tracer.sampled(0)

    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample_every=4)
        kept = [k for k in range(16) if tracer.sampled(k)]
        assert kept == [0, 4, 8, 12]

    def test_invalid_sample_every(self):
        with pytest.raises(ObsError):
            Tracer(sample_every=0)

    def test_max_spans_drops_not_grows(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            tracer.record_span(f"s{i}", ts=float(i), dur=1.0)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_handle_args_attach_results(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run") as handle:
            handle.args["status"] = "complete"
        assert tracer.find("run")[0].args["status"] == "complete"


# ---------------------------------------------------------------------------
# The stats classes' projection (repro.obs.counted)
# ---------------------------------------------------------------------------


class TestAdapters:
    def test_walk_stats_adapter(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=10, seed=4)
        result = WalkEngine(graph, DeepWalk(), config).run()
        registry = result.stats.to_registry()
        assert registry.value("walk_steps") == result.stats.total_steps
        assert (
            registry.value("walk_terminations", reason="step_limit")
            == result.stats.termination.by_step_limit
        )
        active = registry.get("walk_active_walkers")
        assert active.count == result.stats.iterations

    def test_walk_stats_adapter_labels_propagate(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5, seed=4)
        result = WalkEngine(graph, DeepWalk(), config).run()
        registry = result.stats.to_registry(shard="3")
        assert registry.value("walk_steps", shard="3") > 0

    def test_service_metrics_adapter(self):
        metrics = ServiceMetrics()
        metrics.submitted = 5
        metrics.served = 3
        metrics.record_shed("queue_full")
        metrics.record_shed("queue_full")
        metrics.record_latency(0.02)
        registry = metrics.to_registry()
        assert registry.value("service_submitted") == 5
        assert registry.value("service_shed", reason="queue_full") == 2
        assert registry.get("service_request_latency_seconds").count == 1

    def test_cluster_stats_adapter(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=8, seed=4)
        engine = DistributedWalkEngine(
            graph, DeepWalk(), config, num_nodes=4
        )
        result = engine.run()
        registry = result.cluster.to_registry()
        assert registry.value("cluster_nodes") == 4
        assert (
            registry.value("cluster_supersteps")
            == result.cluster.num_supersteps
        )
        assert registry.value(
            "cluster_node_trials", node="0"
        ) == float(result.cluster.trials_per_node[0])
        hist = registry.get("cluster_superstep_seconds")
        assert hist.boundaries == SUPERSTEP_SECONDS_BUCKETS
        assert hist.count == result.cluster.num_supersteps


# ---------------------------------------------------------------------------
# Exporter formats
# ---------------------------------------------------------------------------

_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"'
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:+]*"           # metric name
    r"(\{" + _LABEL_PAIR + r"(," + _LABEL_PAIR + r")*\})?"
    r" -?[0-9].*$"                          # value
)


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("walk_steps", "total steps").inc(42)
    registry.gauge("queue_peak", "max queue depth").set(7)
    hist = registry.histogram(
        "latency_seconds", "request latency", boundaries=(0.1, 1.0)
    )
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    registry.counter("shed", "sheds", reason='with"quote').inc(1)
    return registry


class TestPrometheusExport:
    def test_every_line_parses(self):
        text = to_prometheus_text(_sample_registry())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _PROM_SAMPLE.match(line), f"unparseable line: {line!r}"

    def test_counter_total_suffix_and_type_headers(self):
        text = to_prometheus_text(_sample_registry())
        assert "# TYPE walk_steps_total counter" in text
        assert "walk_steps_total 42" in text
        assert "# TYPE queue_peak gauge" in text
        assert "# TYPE latency_seconds histogram" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = to_prometheus_text(_sample_registry())
        buckets = [
            line
            for line in text.splitlines()
            if line.startswith("latency_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].startswith('latency_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "latency_seconds_count 4" in text
        assert "latency_seconds_sum 6.05" in text

    def test_label_values_escaped(self):
        text = to_prometheus_text(_sample_registry())
        assert 'reason="with\\"quote"' in text

    def test_deterministic_output(self):
        assert to_prometheus_text(_sample_registry()) == to_prometheus_text(
            _sample_registry()
        )


class TestJsonLinesExport:
    def test_round_trip(self):
        tracer = Tracer(clock=ManualClock())
        tracer.record_span("a", ts=0.0, dur=1.0)
        text = to_json_lines(_sample_registry(), tracer)
        records = [json.loads(line) for line in text.strip().splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"metric", "span"}
        hist = next(
            r for r in records if r.get("name") == "latency_seconds"
        )
        assert hist["counts"] == [1, 2, 1]
        assert hist["count"] == 4


class TestChromeTraceExport:
    def _traced_tracer(self):
        tracer = Tracer(clock=None)
        tracer.record_span("s1", ts=0.0, dur=0.5, track="node1")
        tracer.record_span("s0", ts=0.25, dur=0.5, track="node0")
        tracer.record_span("w", ts=0.1, dur=0.1, track="node10",
                           trace_id="walker-3")
        tracer.record_span("c", ts=0.0, dur=1.0, track="cluster")
        return tracer

    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._traced_tracer(), path)
        doc = json.loads(path.read_text())
        assert doc == to_chrome_trace(self._traced_tracer())

    def test_node_tracks_numeric_then_named(self):
        doc = to_chrome_trace(self._traced_tracer())
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert names == ["node0", "node1", "node10", "cluster"]

    def test_ts_monotone_per_tid(self):
        doc = to_chrome_trace(self._traced_tracer())
        per_tid: dict = {}
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            per_tid.setdefault(event["tid"], []).append(event["ts"])
        assert per_tid, "no complete events exported"
        for tid, stamps in per_tid.items():
            assert stamps == sorted(stamps)

    def test_span_identity_rides_in_args(self):
        doc = to_chrome_trace(self._traced_tracer())
        walker = next(
            e for e in doc["traceEvents"] if e.get("name") == "w"
        )
        assert walker["args"]["trace_id"] == "walker-3"
        assert walker["args"]["span_id"] > 0
        assert walker["ts"] == pytest.approx(0.1 * 1e6)


# ---------------------------------------------------------------------------
# Engine integration: local
# ---------------------------------------------------------------------------


class TestLocalEngineTracing:
    def _run(self, graph, tracer, variant="batch"):
        config = WalkConfig(
            num_walkers=50, max_steps=10, seed=6, record_paths=True
        )
        engine = WalkEngine(
            graph, DeepWalk(), config, force_scalar=variant == "scalar"
        )
        engine.observe(tracer)
        return engine.run()

    def test_stage_spans_nest_under_supersteps(self, graph):
        tracer = Tracer()
        result = self._run(graph, tracer)
        (run_span,) = tracer.find("engine.run")
        supersteps = tracer.find("superstep")
        assert len(supersteps) == result.stats.iterations
        assert all(s.parent_id == run_span.span_id for s in supersteps)
        superstep_ids = {s.span_id for s in supersteps}
        for stage in ("stage.update", "stage.gather", "stage.move"):
            stage_spans = tracer.find(stage)
            assert stage_spans, f"missing {stage} spans"
            assert all(
                s.parent_id in superstep_ids for s in stage_spans
            )
        assert run_span.args["status"] == "complete"

    def test_scalar_path_also_traced(self, graph):
        tracer = Tracer()
        self._run(graph, tracer, variant="scalar")
        for stage in ("stage.update", "stage.gather", "stage.move"):
            assert tracer.find(stage)

    def test_disabled_tracer_zero_spans_bit_identical(self, graph):
        plain = self._run(graph, None)
        disabled = Tracer(enabled=False)
        off = self._run(graph, disabled)
        assert len(disabled) == 0
        for a, b in zip(plain.paths, off.paths):
            assert np.array_equal(a, b)

    def test_traced_run_bit_identical_to_untraced(self, graph):
        plain = self._run(graph, None)
        traced = self._run(graph, Tracer())
        for a, b in zip(plain.paths, traced.paths):
            assert np.array_equal(a, b)
        assert (
            plain.stats.counters.trials == traced.stats.counters.trials
        )


# ---------------------------------------------------------------------------
# Engine integration: distributed (declared spans, simulated seconds)
# ---------------------------------------------------------------------------


def _distributed_run(graph, tracer, *, fault_plan=None, checkpoint_every=0,
                     seed=8):
    config = WalkConfig(
        num_walkers=60, max_steps=12, seed=seed, record_paths=True
    )
    engine = DistributedWalkEngine(
        graph,
        Node2Vec(p=2.0, q=0.5),
        config,
        num_nodes=4,
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
    )
    engine.observe(tracer)
    return engine.run()


class TestDistributedTracing:
    def test_superstep_spans_nest_stages_per_node(self, graph):
        tracer = Tracer()
        result = _distributed_run(graph, tracer)
        supersteps = tracer.find("superstep")
        assert len(supersteps) == result.cluster.num_supersteps
        assert all(s.track == "cluster" for s in supersteps)
        superstep_ids = {s.span_id for s in supersteps}
        computes = tracer.find("node.compute")
        assert {s.track for s in computes} == {
            f"node{i}" for i in range(4)
        }
        assert all(s.parent_id in superstep_ids for s in computes)
        compute_ids = {s.span_id for s in computes}
        for stage in ("stage.gather", "stage.move", "stage.update"):
            stage_spans = tracer.find(stage)
            assert len(stage_spans) == len(computes)
            assert all(s.parent_id in compute_ids for s in stage_spans)

    def test_stage_spans_tile_their_node_compute(self, graph):
        tracer = Tracer()
        _distributed_run(graph, tracer)
        computes = {s.span_id: s for s in tracer.find("node.compute")}
        by_parent: dict = {}
        for name in ("stage.gather", "stage.move", "stage.update"):
            for span in tracer.find(name):
                by_parent.setdefault(span.parent_id, []).append(span)
        for parent_id, stages in by_parent.items():
            parent = computes[parent_id]
            stages.sort(key=lambda s: s.ts)
            assert stages[0].ts == pytest.approx(parent.ts)
            cursor = parent.ts
            for stage in stages:
                assert stage.ts == pytest.approx(cursor)
                cursor += stage.dur
            assert cursor == pytest.approx(parent.ts + parent.dur)

    def test_cross_node_walker_hops_share_trace_id(self, graph):
        tracer = Tracer()
        _distributed_run(graph, tracer)
        hops = tracer.find("walker.hop")
        assert hops, "expected cross-node walker hops"
        by_walker: dict = {}
        for hop in hops:
            by_walker.setdefault(hop.args["walker"], []).append(hop)
        multi = {
            w: spans for w, spans in by_walker.items() if len(spans) > 1
        }
        assert multi, "expected walkers with multiple hops"
        chained = 0
        for walker, spans in multi.items():
            trace_ids = {s.trace_id for s in spans}
            assert trace_ids == {f"walker-{walker}"}
            tracks = {s.track for s in spans}
            assert len(tracks) >= 1
            ids = {s.span_id for s in spans}
            chained += sum(1 for s in spans if s.parent_id in ids)
        assert chained > 0, "hops never chained to their predecessor"
        # Hops land on the destination node's track across > 1 node.
        all_tracks = {s.track for s in hops}
        assert len(all_tracks) > 1

    def test_sample_every_thins_walker_spans_only(self, graph):
        full = Tracer()
        _distributed_run(graph, full)
        thinned = Tracer(sample_every=7)
        _distributed_run(graph, thinned)
        full_walkers = {s.args["walker"] for s in full.find("walker.hop")}
        thin_walkers = {
            s.args["walker"] for s in thinned.find("walker.hop")
        }
        assert thin_walkers == {w for w in full_walkers if w % 7 == 0}
        # Structural spans are never thinned.
        assert len(thinned.find("superstep")) == len(
            full.find("superstep")
        )

    def test_traced_distributed_run_bit_identical(self, graph):
        plain = _distributed_run(graph, None)
        traced = _distributed_run(graph, Tracer())
        assert (
            plain.cluster.simulated_seconds
            == traced.cluster.simulated_seconds
        )
        for a, b in zip(plain.paths, traced.paths):
            assert np.array_equal(a, b)

    def test_degraded_run_trace_bit_identical_across_replay(
        self, graph, tmp_path
    ):
        plan = FaultPlan(
            seed=5,
            default_faults=MessageFaults(drop=0.08, duplicate=0.04),
        )
        exports = []
        for attempt in range(2):
            tracer = Tracer()
            _distributed_run(
                graph, tracer, fault_plan=plan, checkpoint_every=4
            )
            path = tmp_path / f"trace{attempt}.json"
            write_chrome_trace(tracer, path)
            exports.append(path.read_text())
        assert exports[0] == exports[1]
        assert '"message.flush"' in exports[0]

    def test_message_flush_accounts_network_deltas(self, graph):
        tracer = Tracer()
        result = _distributed_run(graph, tracer)
        flushes = tracer.find("message.flush")
        assert len(flushes) == result.cluster.num_supersteps
        assert all(s.category == "network" for s in flushes)
        total = sum(s.args["messages"] for s in flushes)
        assert total == result.cluster.network.total_messages()

    def test_cluster_run_span_covers_simulated_timeline(self, graph):
        tracer = Tracer()
        result = _distributed_run(graph, tracer)
        (run_span,) = tracer.find("cluster.run")
        assert run_span.ts == 0.0
        assert run_span.dur == pytest.approx(
            result.cluster.simulated_seconds
        )
        last = max(
            s.ts + s.dur
            for s in tracer.spans
            if s.name in ("superstep", "node.compute")
        )
        assert last <= run_span.dur * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Parallel shard metric deltas
# ---------------------------------------------------------------------------


class TestParallelMetricsMerge:
    def test_shard_deltas_merge_into_run_totals(self, graph):
        from repro.parallel import run_parallel_walk

        config = WalkConfig(num_walkers=40, max_steps=8, seed=9)
        result = run_parallel_walk(
            graph, DeepWalk(), config, num_workers=2
        )
        registry = result.metrics
        assert registry is not None
        total = sum(
            inst.value
            for inst in registry.instruments()
            if inst.name == "walk_steps"
        )
        assert total == result.stats.total_steps
        shards = {
            dict(inst.labels).get("shard")
            for inst in registry.instruments()
            if inst.name == "walk_steps"
        }
        assert shards == {"0", "1"}
