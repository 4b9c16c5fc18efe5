"""The overload-robust walk service.

:class:`WalkService` accepts :class:`~repro.service.request.WalkRequest`
objects and executes them through the existing engines with four
robustness layers between the caller and the walk:

1. **admission control** — a bounded queue with a configurable
   load-shedding policy; a full queue turns into explicit shed
   responses, never unbounded latency;
2. **deadlines + cancellation** — each request's deadline (queue wait
   included) propagates into the engine's chunked run loop, which
   stops cooperatively and returns a well-formed partial result;
3. **graceful degradation** — under sustained pressure requests are
   downgraded by the documented ladder (drop path recording, cap
   steps, shrink walkers), with every applied rung recorded on the
   response;
4. **a circuit breaker** — repeated execution failures open the
   circuit and shed instantly until a timed probe succeeds.

The service layer adds no randomness: an undegraded, deadline-free
request produces the bit-identical walk of a direct
``WalkEngine(graph, program, config).run()`` with the same seed.

Accounting is exact — every submitted request resolves into exactly
one of served / shed / failed (see
:class:`~repro.core.stats.ServiceMetrics`), which the soak tests pin
as ``submitted == served + shed + failed`` after a drain.
"""

from __future__ import annotations

import threading
import time

from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.stats import ServiceMetrics
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, EdgeUpdate, UpdateBatch
from repro.graph.prepared import prepare
from repro.service.breaker import CircuitBreaker
from repro.service.deadline import Deadline
from repro.service.degrade import DegradationPolicy, apply_degradation
from repro.service.queue import AdmissionQueue
from repro.service.request import (
    DEADLINE_EXCEEDED,
    FAILED,
    OK,
    SHED,
    WalkRequest,
    WalkResponse,
    WalkTicket,
)

__all__ = ["WalkService"]


class WalkService:
    """Serve walk requests with admission control and degradation.

    Parameters
    ----------
    graph:
        default graph for requests that do not carry their own.
    num_workers:
        executor threads pulling from the admission queue.
    queue_capacity, shed_policy:
        the bounded admission queue (see
        :class:`~repro.service.queue.AdmissionQueue`).
    degradation:
        the pressure ladder; ``None`` disables degradation entirely.
    breaker:
        circuit breaker around request execution; ``None`` installs
        the default (5 consecutive failures, 1 s reset).
    default_deadline:
        seconds applied to requests submitted without a deadline;
        ``None`` leaves them unbounded.
    tracer:
        optional :class:`repro.obs.Tracer` (duck-typed).  When enabled,
        every executed request lands as a ``service.request`` span
        (trace id ``request-<id>``) and each engine it spawns is
        observed on a per-request track.  ``None`` or a disabled tracer
        is the hard off-switch.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_workers: int = 2,
        queue_capacity: int = 64,
        shed_policy: str = "reject-newest",
        degradation: DegradationPolicy | None = DegradationPolicy(),
        breaker: CircuitBreaker | None = None,
        default_deadline: float | None = None,
        tracer=None,
    ) -> None:
        if num_workers <= 0:
            raise ServiceError("num_workers must be positive")
        self._obs = (
            tracer
            if tracer is not None and getattr(tracer, "enabled", False)
            else None
        )
        self.graph = graph
        # Serialises commits against snapshot pinning: DynamicGraph is
        # not internally thread-safe, but a pinned EpochSnapshot is
        # immutable, so walks never need the lock after pinning.
        self._graph_lock = threading.Lock()
        self.degradation = degradation
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.default_deadline = default_deadline
        self.metrics = ServiceMetrics()
        self._queue = AdmissionQueue(queue_capacity, shed_policy)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"walk-service-{i}", daemon=True
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission / admission control
    # ------------------------------------------------------------------
    def submit(self, request: WalkRequest) -> WalkTicket:
        """Offer a request; always returns a ticket that will resolve.

        Shedding happens synchronously here: if the queue is full and
        the policy rejects the newcomer (or evicts a victim), the
        rejected ticket resolves immediately with status ``shed``.
        """
        deadline = request.deadline
        if deadline is None and self.default_deadline is not None:
            deadline = self.default_deadline
        if isinstance(deadline, (int, float)):
            deadline = Deadline(float(deadline))
        ticket = WalkTicket(request, deadline, time.monotonic())

        with self._lock:
            self.metrics.submitted += 1
        if self._closed:
            self._resolve_shed(ticket, "shutdown")
            return ticket
        admitted, evicted = self._queue.offer(ticket, request.priority)
        for victim in evicted:
            self._resolve_shed(victim, f"evicted:{self._queue.policy}")
        if not admitted:
            self._resolve_shed(
                ticket, "shutdown" if self._queue.closed else "queue_full"
            )
            return ticket
        with self._lock:
            self.metrics.admitted += 1
            self.metrics.queue_depth_peak = max(
                self.metrics.queue_depth_peak, self._queue.depth()
            )
        return ticket

    def apply_updates(
        self, updates: UpdateBatch | list[EdgeUpdate]
    ) -> int:
        """Commit one update batch to the service's dynamic graph.

        Requires the service default graph to be a
        :class:`~repro.graph.dynamic.DynamicGraph`; returns the new
        epoch.  Walks already running keep their pinned snapshots;
        requests executed after this commit see the new epoch.
        """
        if not isinstance(self.graph, DynamicGraph):
            raise ServiceError(
                "apply_updates needs a DynamicGraph service graph"
            )
        if not isinstance(updates, UpdateBatch):
            updates = UpdateBatch.from_updates(updates)
        with self._graph_lock:
            epoch = self.graph.commit(updates)
        applied = len(updates)
        with self._lock:
            self.metrics.updates_applied += applied
            self.metrics.epochs_committed += 1
        return epoch

    def _resolve_shed(self, ticket: WalkTicket, reason: str) -> None:
        with self._lock:
            self.metrics.record_shed(reason)
        ticket.resolve(
            WalkResponse(
                request_id=ticket.request.request_id,
                status=SHED,
                shed_reason=reason,
                wait_seconds=time.monotonic() - ticket.submitted_at,
                tag=ticket.request.tag,
            )
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.take(timeout=0.05)
            if ticket is None:
                if self._queue.closed and self._queue.depth() == 0:
                    return
                continue
            with self._lock:
                self._in_flight += 1
            try:
                self._execute(ticket)
            finally:
                with self._lock:
                    self._in_flight -= 1

    def _execute(self, ticket: WalkTicket) -> None:
        obs = self._obs
        if obs is None:
            self._execute_request(ticket)
            return
        started = obs.now()
        self._execute_request(ticket)
        response = ticket._response
        args: dict = {"request_id": ticket.request.request_id}
        if response is not None:
            args["status"] = response.status
            args["wait_seconds"] = round(response.wait_seconds, 6)
            if response.shed_reason is not None:
                args["shed_reason"] = response.shed_reason
            if response.degradations:
                args["degradations"] = list(response.degradations)
        obs.record_span(
            "service.request",
            ts=started,
            dur=obs.now() - started,
            track="service",
            category="service",
            trace_id=f"request-{ticket.request.request_id}",
            args=args,
        )

    def _execute_request(self, ticket: WalkTicket) -> None:
        request = ticket.request
        if ticket.cancel_token.cancelled:
            self._resolve_shed(ticket, "cancelled")
            return
        if not self.breaker.allow():
            self._resolve_shed(ticket, "circuit_open")
            return

        # Degradation is decided by queue pressure at execution start.
        config = request.config
        graph = request.graph if request.graph is not None else self.graph
        # Pin the current epoch now: the walk runs on an immutable
        # prepared graph regardless of updates applied while it executes.
        with self._graph_lock:
            graph = prepare(graph)
        degradations: tuple[str, ...] = ()
        if self.degradation is not None:
            config, degradations = apply_degradation(
                config, graph, self._queue.fullness(), self.degradation
            )

        started = time.monotonic()
        wait_seconds = started - ticket.submitted_at
        try:
            result = self._run_engines(ticket, graph, request, config)
        except Exception as error:  # noqa: BLE001 - worker must not die
            self.breaker.record_failure()
            with self._lock:
                self.metrics.failed += 1
                self.metrics.record_latency(time.monotonic() - ticket.submitted_at)
            ticket.resolve(
                WalkResponse(
                    request_id=request.request_id,
                    status=FAILED,
                    degradations=degradations,
                    error=f"{type(error).__name__}: {error}",
                    wait_seconds=wait_seconds,
                    run_seconds=time.monotonic() - started,
                    tag=request.tag,
                )
            )
            return

        self.breaker.record_success()
        if result.status == "cancelled":
            # Ran partially, stopped at the caller's request: accounted
            # as shed (the service did not complete it), with the
            # partial result attached for whoever still wants it.
            with self._lock:
                self.metrics.record_shed("cancelled")
            ticket.resolve(
                WalkResponse(
                    request_id=request.request_id,
                    status=SHED,
                    result=result,
                    graph_epoch=result.stats.graph_epoch,
                    degradations=degradations,
                    shed_reason="cancelled",
                    wait_seconds=wait_seconds,
                    run_seconds=time.monotonic() - started,
                    tag=request.tag,
                )
            )
            return
        status = (
            DEADLINE_EXCEEDED if result.status == "deadline_exceeded" else OK
        )
        with self._lock:
            self.metrics.served += 1
            if degradations:
                self.metrics.degraded += 1
            if status == DEADLINE_EXCEEDED:
                self.metrics.deadline_hits += 1
            self.metrics.record_latency(time.monotonic() - ticket.submitted_at)
        ticket.resolve(
            WalkResponse(
                request_id=request.request_id,
                status=status,
                result=result,
                graph_epoch=result.stats.graph_epoch,
                degradations=degradations,
                wait_seconds=wait_seconds,
                run_seconds=time.monotonic() - started,
                tag=request.tag,
            )
        )

    def _run_engines(self, ticket, graph, request, config: WalkConfig):
        if request.num_shards > 1:
            # Imported lazily: repro.parallel imports the supervised
            # pool from this package.
            from repro.parallel import run_parallel_walk

            return run_parallel_walk(
                graph,
                request.program,
                config,
                num_workers=request.num_shards,
                deadline=ticket.deadline,
                cancel=ticket.cancel_token,
            )
        if request.num_nodes > 1:
            return self._run_distributed(ticket, graph, request, config)
        engine = WalkEngine(graph, request.program, config)
        self._observe(engine, request)
        return engine.run(
            deadline=ticket.deadline, cancel=ticket.cancel_token
        )

    def _observe(self, engine, request) -> None:
        """Per-request subscriber and track: concurrent workers must not
        share span state, and the timeline reads better per request."""
        if self._obs is not None:
            engine.observe(self._obs.on_track(f"request{request.request_id}"))

    def _run_distributed(self, ticket, graph, request, config: WalkConfig):
        """Execute one request on the cluster simulator.

        Crashes degrade onto the survivors rather than aborting, and
        degraded nodes/links engage the straggler-tolerance stack, so a
        fault plan slows the simulated run down but the ticket always
        resolves; deadline/cancel still cut in at every BSP barrier.
        """
        from repro.cluster.engine import DistributedWalkEngine

        engine = DistributedWalkEngine(
            graph,
            request.program,
            config,
            num_nodes=request.num_nodes,
            fault_plan=request.fault_plan,
            degrade_on_crash=True,
        )
        self._observe(engine, request)
        result = engine.run(deadline=ticket.deadline, cancel=ticket.cancel_token)
        with self._lock:
            self.metrics.distributed_runs += 1
            health = engine.cluster.health
            if health is not None:
                self.metrics.straggler_suspicions += health.suspect_events
                self.metrics.walkers_rebalanced += health.migrated_walkers
                self.metrics.speculative_wins += health.speculation_wins
        return result

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Requests admitted but not yet resolved."""
        with self._lock:
            in_flight = self._in_flight
        return self._queue.depth() + in_flight

    def queue_depth(self) -> int:
        return self._queue.depth()

    def accounting_balanced(self) -> bool:
        """The exact conservation law at this instant."""
        return self.metrics.accounting_balanced(pending=self.pending())

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain and join the workers.

        Queued requests are still served (the queue refuses new offers
        but drains normally), so every outstanding ticket resolves.
        """
        self._closed = True
        self._queue.close()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> WalkService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)
