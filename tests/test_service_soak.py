"""Soak tests: sustained mixed traffic with exact accounting.

The acceptance criteria pinned here:

* a stream of >= 200 mixed requests (slow walks, poison programs that
  raise, deadline-tight requests) completes with no hang and the exact
  conservation law ``submitted == served + shed + failed``;
* every deadline-exceeded response carries a well-formed partial
  result;
* with a writer committing to a dynamic graph while two workers serve,
  the same law holds, each pinned epoch's tables are built once, and
  the graph keeps no touched set nothing can ask for and no superseded
  CSR no walk holds;
* a run whose worker process is killed mid-flight finishes with
  :class:`~repro.errors.WorkerError` naming the shard, not a hang or a
  timeout.
"""

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.algorithms import DeepWalk, UniformWalk
from repro.core.config import WalkConfig
from repro.core.stats import ServiceMetrics
from repro.core.trace import token_dtype
from repro.errors import WorkerError
from repro.graph.builder import assign_random_weights
from repro.graph.dynamic import DynamicGraph, generate_churn_batches
from repro.graph.generators import uniform_degree_graph
from repro.parallel import run_parallel_walk
from repro.service import (
    DEADLINE_EXCEEDED,
    FAILED,
    OK,
    SHED,
    CircuitBreaker,
    WalkRequest,
    WalkService,
)


class PoisonWalk(UniformWalk):
    """Raises during setup — models a malformed request."""

    def setup_walkers(self, graph, walkers, rng):
        raise RuntimeError("poison request")


class ExitingWalk(UniformWalk):
    """Kills its worker process outright — models an OOM kill."""

    def setup_walkers(self, graph, walkers, rng):
        os._exit(17)


def _mixed_request(index: int) -> WalkRequest:
    """Deterministic traffic mix keyed on the request index."""
    bucket = index % 10
    seed = 7919 * index + 13
    if bucket < 5:  # light
        return WalkRequest(
            program=UniformWalk(),
            config=WalkConfig(num_walkers=16, max_steps=8, seed=seed),
            tag="light",
        )
    if bucket < 7:  # slow
        return WalkRequest(
            program=DeepWalk(),
            config=WalkConfig(
                num_walkers=128, max_steps=40, record_paths=True, seed=seed
            ),
            priority=1,
            tag="slow",
        )
    if bucket < 9:  # deadline-tight
        return WalkRequest(
            program=UniformWalk(),
            config=WalkConfig(
                num_walkers=32, max_steps=30, record_paths=True, seed=seed
            ),
            deadline=0.0,
            tag="tight",
        )
    return WalkRequest(program=PoisonWalk(), tag="poison")  # poison


@pytest.mark.slow
def test_soak_mixed_stream_exact_accounting():
    graph = uniform_degree_graph(300, 6, seed=1, undirected=True)
    total = 200
    # A breaker that never opens during the soak: poison requests land
    # at unpredictable times relative to successes, and this test pins
    # accounting, not breaker behaviour (test_service.py covers that).
    service = WalkService(
        graph,
        num_workers=4,
        queue_capacity=16,
        shed_policy="reject-oldest",
        breaker=CircuitBreaker(failure_threshold=10_000),
    )
    tickets = [service.submit(_mixed_request(i)) for i in range(total)]
    service.close(wait=True)
    responses = [t.wait(timeout=300.0) for t in tickets]

    by_status = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1

    metrics = service.metrics
    assert metrics.submitted == total
    # The conservation law, exactly — from both views.
    assert metrics.served + metrics.shed + metrics.failed == total
    assert service.accounting_balanced()

    # Route the same accounting through the idempotent merge path: a
    # fresh aggregate absorbs the service's metrics once, refuses the
    # duplicate delivery, and the conservation law holds on the merged
    # copy exactly as on the original.
    aggregate = ServiceMetrics()
    assert aggregate.merge(metrics) is True
    assert aggregate.merge(metrics) is False  # re-delivery is a no-op
    assert aggregate.submitted == total
    assert aggregate.served + aggregate.shed + aggregate.failed == total
    assert aggregate.served == metrics.served
    assert aggregate.shed == metrics.shed
    assert aggregate.failed == metrics.failed
    assert sum(aggregate.shed_reasons.values()) == aggregate.shed
    assert (
        by_status.get(OK, 0)
        + by_status.get(DEADLINE_EXCEEDED, 0)
        + by_status.get(SHED, 0)
        + by_status.get(FAILED, 0)
        == total
    )
    assert by_status.get(OK, 0) + by_status.get(DEADLINE_EXCEEDED, 0) == (
        metrics.served
    )
    assert by_status.get(SHED, 0) == metrics.shed
    assert by_status.get(FAILED, 0) == metrics.failed

    # Every executed poison request failed with its message preserved.
    for response in responses:
        if response.tag == "poison" and response.status == FAILED:
            assert "poison request" in response.error

    # Deadline-tight requests that got executed carry well-formed
    # partials: correct walker count, real path arrays, tagged status.
    deadline_responses = [
        r for r in responses if r.status == DEADLINE_EXCEEDED
    ]
    assert metrics.deadline_hits == len(deadline_responses)
    assert deadline_responses, "expected some deadline-tight executions"
    for response in deadline_responses:
        result = response.result
        assert result is not None
        assert result.status == "deadline_exceeded"
        assert result.walk_lengths.size > 0
        if result.paths is not None:
            assert all(len(p) >= 1 for p in result.paths)
            assert all(
                isinstance(p, np.ndarray)
                and p.dtype == token_dtype(graph.num_vertices, result.walk_lengths.size)
                for p in result.paths
            )


@pytest.mark.slow
def test_soak_churning_writer_exact_accounting():
    """Requests on two workers while a writer commits: every epoch's
    tables are built once, and the graph keeps neither a touched set
    nothing can ask for nor the CSR of an epoch no walk holds."""
    graph = assign_random_weights(uniform_degree_graph(400, 6, seed=4), seed=5)
    batches = generate_churn_batches(graph, num_epochs=30, updates_per_epoch=6, seed=6)
    dynamic = DynamicGraph(graph)

    def request(index):
        config = WalkConfig(num_walkers=32, max_steps=10, seed=index)
        return WalkRequest(program=DeepWalk(), config=config)

    with WalkService(dynamic, num_workers=2, queue_capacity=16) as service:

        def writer():
            for batch in batches:
                service.apply_updates(batch)
                time.sleep(0.015)

        thread = threading.Thread(target=writer)
        thread.start()
        tickets = []
        while thread.is_alive():
            tickets += [service.submit(request(len(tickets) + i)) for i in range(4)]
            tickets[-1].wait(timeout=30.0)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        tickets.append(service.submit(request(len(tickets))))  # the last epoch
        responses = [ticket.wait(timeout=30.0) for ticket in tickets]
    metrics = service.metrics
    assert metrics.submitted == len(responses)
    assert metrics.served + metrics.shed + metrics.failed == len(responses)
    assert metrics.served == len(responses) and responses[-1].graph_epoch == 30
    # Each epoch a request pinned had its tables built exactly once.
    stats = dynamic.maintenance
    walked = {response.graph_epoch for response in responses}
    assert stats.epochs_maintained + stats.full_rebuilds == len(walked) > 10
    assert not dynamic._touched_by_epoch
    gc.collect()  # nothing holds a superseded epoch's CSR but a walk
    assert len(dynamic._retained) == 7
    assert all(dynamic._held.get(epoch) is None for epoch in dynamic._retained)


@pytest.mark.slow
def test_killed_worker_raises_worker_error_not_hang():
    """Regression: a dead worker must surface immediately.

    The old ``multiprocessing.Pool.map`` path blocked forever when a
    worker died (the pool never completes the map).  The supervised
    pool detects the closed result pipe and raises
    :class:`~repro.errors.WorkerError` naming the shard.
    """
    graph = uniform_degree_graph(100, 4, seed=2, undirected=True)
    config = WalkConfig(num_walkers=8, max_steps=4)
    started = time.monotonic()
    with pytest.raises(WorkerError) as info:
        run_parallel_walk(
            graph,
            ExitingWalk(),
            config,
            num_workers=2,
            max_restarts=0,
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "dead worker detection must not hang"
    assert info.value.kind == "died"
    assert info.value.shard in (0, 1)
    assert "shard" in str(info.value)
    assert "exit" in str(info.value).lower()


@pytest.mark.slow
def test_killed_worker_inside_service_fails_request():
    graph = uniform_degree_graph(100, 4, seed=3, undirected=True)
    with WalkService(graph, num_workers=1, queue_capacity=4) as service:
        ticket = service.submit(
            WalkRequest(
                program=ExitingWalk(),
                config=WalkConfig(num_walkers=8, max_steps=4),
                num_shards=2,
            )
        )
        response = ticket.wait(timeout=300.0)
    assert response.status == FAILED
    assert "WorkerError" in response.error
    assert service.accounting_balanced()
