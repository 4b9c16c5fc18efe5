"""Seam conformance: no engine can move, kill or send past `observe`.

Every engine class runs the same workloads under a counting subscriber;
what the subscriber saw must equal what the engine's own stats, walker
set and path recorder say happened.  An engine that calls
``walkers.move`` / ``walkers.kill`` / ``network.record_batch`` directly
(as the Gemini baseline once did) fails the sums here.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.baselines.full_scan import FullScanWalkEngine
from repro.baselines.gemini import GeminiWalkEngine
from repro.baselines.typed_metapath import TypedMetaPathWalkEngine
from repro.cluster import DistributedWalkEngine
from repro.core.engine import EVENTS, WalkEngine
from repro.lint.sanitizer import DeterminismTracer
from repro.obs import Tracer
from repro.service import WalkRequest, WalkService
from tests.test_path_recording import WORKLOADS, make_config

ENGINES = {
    "fused": lambda *a: WalkEngine(*a),
    "single-trial": lambda *a: WalkEngine(*a, fuse_trials=False),
    "scalar": lambda *a: WalkEngine(*a, force_scalar=True),
    "distributed": lambda *a: DistributedWalkEngine(*a, num_nodes=4),
    "gemini": lambda *a: GeminiWalkEngine(*a, num_nodes=4),
    "full-scan": lambda *a: FullScanWalkEngine(*a),
    "typed-metapath": lambda *a: TypedMetaPathWalkEngine(*a),
}
DISTRIBUTED = {"distributed", "gemini"}
# Fused first-order rounds with zero-mass guards, the second-order
# query exchange, and teleports.
CELLS = [
    (engine, workload)
    for workload in ("metapath", "node2vec", "rwr")
    for engine in ENGINES
    if workload == "metapath" or engine != "typed-metapath"
]


def build(engine, workload, **config):
    make_program, graph, _ = WORKLOADS[workload]
    return ENGINES[engine](graph, make_program(), make_config(workload, **config))


class CountingSubscriber:
    def __init__(self, num_walkers):
        self.moved = 0
        self.kills_per_walker = np.zeros(num_walkers, dtype=np.int64)
        self.log = []  # (event, kind, batch size)

    def on_moves(self, walker_ids, targets):
        assert len(walker_ids) == len(targets)
        self.moved += len(walker_ids)
        self.log.append(("moves", None, len(walker_ids)))

    def on_kills(self, walker_ids):
        self.kills_per_walker[walker_ids] += 1

    def on_delivery(self, kind, sources, destinations):
        assert len(sources) == len(destinations)
        self.log.append(("delivery", kind, len(sources)))


@pytest.mark.parametrize("engine_name,workload", CELLS)
def test_subscriber_sees_every_move_kill_and_delivery(engine_name, workload):
    engine = build(engine_name, workload)
    seen = CountingSubscriber(engine.walkers.num_walkers)
    engine.observe(seen)
    result = engine.run()
    stats, walkers = result.stats, result.walkers

    assert result.complete
    assert seen.moved == stats.total_steps == walkers.steps.sum()
    assert (seen.kills_per_walker == 1).all()
    assert stats.termination.total == walkers.num_walkers
    # The recorder is a subscriber of the same list.
    np.testing.assert_array_equal(engine._recorder.packed()[1], walkers.steps)

    deliveries = [entry for entry in seen.log if entry[0] == "delivery"]
    assert bool(deliveries) == (engine_name in DISTRIBUTED)
    if engine_name in DISTRIBUTED:
        # Ordering guarantee: a distributed commit announces its
        # migration batch, then the moves that batch carries.
        for position, (event, _, size) in enumerate(seen.log):
            if event == "moves":
                assert seen.log[position - 1] == ("delivery", "WALKER_MIGRATE", size)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_disabled_tracer_binds_nothing(engine_name):
    engine = build(engine_name, "metapath", record_paths=False)
    engine.observe(Tracer(enabled=False))
    engine.observe(None)
    assert set(engine._hooks) == set(EVENTS)
    assert not any(engine._hooks.values())
    # The walk RNG was not wrapped either.
    assert isinstance(engine._rng, np.random.Generator)


def test_service_gives_each_request_its_own_track():
    make_program, graph, _ = WORKLOADS["deepwalk"]
    tracer = Tracer()
    with WalkService(graph, num_workers=2, tracer=tracer) as service:
        tickets = [
            service.submit(
                WalkRequest(
                    program=make_program(),
                    config=make_config("deepwalk", record_paths=False),
                    num_nodes=nodes,
                )
            )
            for nodes in (1, 1, 4)
        ]
        responses = [ticket.result(timeout=60) for ticket in tickets]
    local = [r.request_id for r, t in zip(responses, tickets) if t.request.num_nodes == 1]
    runs = {span.track: span for span in tracer.find("engine.run")}
    assert set(runs) == {f"request{request_id}" for request_id in local}
    for track, run in runs.items():
        supersteps = [s for s in tracer.find("superstep") if s.track == track]
        assert supersteps and all(s.parent_id == run.span_id for s in supersteps)
    (cluster_run,) = tracer.find("cluster.run")
    assert cluster_run.track == f"request{responses[2].request_id}"
    assert len(tracer.find("service.request")) == 3


@pytest.mark.parametrize("engine_name", ENGINES)
def test_observed_engine_is_freed_by_refcount(engine_name):
    """Subscribers keep the engine's parts, never the engine: a cycle
    through the hook lists would hold every finished engine's arrays
    until the cycle collector happened to run."""
    gc.collect()
    gc.disable()
    try:
        engine = build(engine_name, "metapath")
        tracer = Tracer()
        engine.observe(tracer)
        engine.observe(DeterminismTracer())
        engine.run()
        assert tracer.spans
        alive = weakref.ref(engine)
        del engine
        assert alive() is None
    finally:
        gc.enable()
