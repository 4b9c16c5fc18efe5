"""Which spans an engine run produces.

Engines announce events (:data:`repro.core.engine.EVENTS`) and know
nothing about spans; :class:`EngineSpans` subscribes and turns one
engine's events into spans, so this module alone decides which exist:

* a **local** engine is *measured* on the tracer's injected clock:
  ``engine.run`` > ``superstep`` > ``stage.update`` / ``stage.gather``
  / ``stage.move``, each stage lasting from its boundary to the next;
* a **cluster** engine (one carrying ``engine.cluster`` stats) is
  *declared* in simulated seconds from the cost model's bill:
  ``cluster.run``; per superstep a ``superstep``, one ``node.compute``
  per alive node tiled exactly by its three stage children, a
  ``message.flush``, a ``checkpoint`` when one was taken; and a
  ``walker.hop`` per sampled cross-node migration.  No clock is read,
  so a degraded run's trace replays bit-identically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EngineSpans"]


class EngineSpans:
    """One engine's event subscriber, writing spans into ``sink``.

    :class:`~repro.obs.Tracer` is its own sink (``engine.observe(tracer)``);
    engines running concurrently against one tracer each get their own
    subscriber — and timeline row — from :meth:`on_track`.
    """

    def __init__(self, sink, track: str | None = None) -> None:
        self._sink = sink
        self._track = track
        self._stats = None
        # Local timeline: the open run / superstep / stage spans.
        self._open: list = []
        # Cluster timeline: walker id -> its last hop's span id, so a
        # walker's cross-node hops chain into one "walker-<id>" trace.
        self._hops: dict[int, int] = {}
        self._migration: tuple[np.ndarray, np.ndarray] | None = None

    def on_track(self, track: str) -> EngineSpans:
        """A subscriber for one more engine, on its own track."""
        return EngineSpans(self._sink, track)

    # -- local timeline helpers ------------------------------------------

    def _push(self, name: str, args: dict) -> None:
        self._open.append(
            self._sink.open_span(name, track=self._track or "engine", args=args)
        )

    def _close_to(self, depth: int) -> None:
        while len(self._open) > depth:
            self._sink.close_span(self._open.pop())

    # -- events ----------------------------------------------------------

    def on_run_begin(self, engine) -> None:
        self._close_to(0)  # spans a failed run left open
        # Keep the engine's parts, never the engine: it holds this
        # subscriber's hooks, and the cycle would keep every finished
        # engine's arrays alive until the cycle collector runs.
        if engine.stats is not self._stats:
            self._stats, self._hops = engine.stats, {}
        self._cluster = getattr(engine, "cluster", None)
        if self._cluster is None:
            self._push("engine.run", {})
        else:
            self._network, self._cost_model = engine.network, engine.cost_model
            self._num_walkers = engine.walkers.num_walkers
            self._network_totals = self._network.totals_snapshot()

    def on_run_end(self, status: str, iterations: int) -> None:
        cluster = self._cluster
        if cluster is None:
            self._open[0].args.update(status=status, iterations=iterations)
            self._close_to(0)
            return
        self._sink.record_span(
            "cluster.run",
            ts=0.0,
            dur=cluster.simulated_seconds,
            track=self._track or "cluster",
            args={
                "nodes": cluster.num_nodes,
                "supersteps": cluster.num_supersteps,
                "status": status,
            },
        )

    def on_superstep_begin(self) -> None:
        cluster = self._cluster
        if cluster is None:
            self._push("superstep", {"iteration": self._stats.iterations})
        else:
            self._superstep_start = cluster.simulated_seconds

    def on_stage(self, name: str, lanes: int) -> None:
        if self._cluster is None:
            self._close_to(2)
            self._push("stage." + name, {"lanes": lanes})

    def on_superstep_end(self, bill) -> None:
        if bill is not None:
            self._declare_superstep(bill)
            return
        self._open[1].args["active"] = int(self._stats.active_per_iteration[-1])
        self._close_to(1)

    def on_delivery(self, kind: str, sources, destinations) -> None:
        # A distributed commit announces its migration batch right
        # before the moves it carries.
        self._migration = (
            (sources, destinations) if kind == "WALKER_MIGRATE" else None
        )

    def on_moves(self, walker_ids, targets) -> None:
        """Span-context propagation across cluster messages: each
        sampled walker's cross-node migration becomes a span on the
        destination node's track, parented to the walker's previous
        hop and sharing its ``walker-<id>`` trace id."""
        migration, self._migration = self._migration, None
        if migration is None:
            return
        sources, destinations = migration
        sink = self._sink
        cost = self._cost_model.message_cost
        for idx in np.nonzero(sources != destinations)[0]:
            walker_id = int(walker_ids[idx])
            if not sink.sampled(walker_id):
                continue
            self._hops[walker_id] = sink.record_span(
                "walker.hop",
                ts=self._superstep_start,
                dur=cost,
                track=f"node{int(destinations[idx])}",
                category="walker",
                parent_id=self._hops.get(walker_id),
                trace_id=f"walker-{walker_id}",
                args={
                    "walker": walker_id,
                    "src_node": int(sources[idx]),
                    "dst_node": int(destinations[idx]),
                    "vertex": int(targets[idx]),
                },
            )

    def _declare_superstep(self, bill) -> None:
        """Lay the superstep just billed onto the simulated timeline —
        a pure function of simulator state."""
        sink, stats = self._sink, self._stats
        track = self._track or "cluster"
        start = self._superstep_start
        superstep_id = sink.record_span(
            "superstep",
            ts=start,
            dur=self._cluster.superstep_times[-1],
            track=track,
            args={
                "iteration": stats.iterations,
                "active": int(stats.active_per_iteration[-1]),
                "barrier": bill.barrier,
            },
        )
        for node, work, threads, node_time in zip(
            bill.node_ids, bill.works, bill.threads, bill.times
        ):
            node_track = f"node{node}"
            compute_id = sink.record_span(
                "node.compute",
                ts=start,
                dur=float(node_time),
                track=node_track,
                parent_id=superstep_id,
                args={
                    "node": node,
                    "threads": threads,
                    "trials": work.trials,
                    "pd_evaluations": work.pd_evaluations,
                    "messages": work.messages,
                    "active_walkers": work.active_walkers,
                },
            )
            stages = self._cost_model.stage_times(work, threads)
            stage_sum = sum(stages)
            # Slowdown factors stretched node_time uniformly; scale the
            # stages so they still tile the compute span.
            scale = float(node_time) / stage_sum if stage_sum > 0 else 0.0
            cursor = start
            for stage_name, stage_time in zip(
                ("stage.gather", "stage.move", "stage.update"), stages
            ):
                dur = stage_time * scale
                sink.record_span(
                    stage_name,
                    ts=cursor,
                    dur=dur,
                    track=node_track,
                    parent_id=compute_id,
                )
                cursor += dur
        totals = self._network.totals_snapshot()
        last, self._network_totals = self._network_totals, totals
        sink.record_span(
            "message.flush",
            ts=start + bill.barrier,
            dur=bill.retry_latency,
            track=track,
            category="network",
            parent_id=superstep_id,
            args={
                "messages": totals[0] - last[0],
                "bytes": totals[1] - last[1],
                "local_deliveries": totals[2] - last[2],
            },
        )
        if bill.checkpoint_time > 0.0:
            sink.record_span(
                "checkpoint",
                ts=start + bill.barrier + bill.retry_latency,
                dur=bill.checkpoint_time,
                track=track,
                category="recovery",
                parent_id=superstep_id,
                args={"walkers": self._num_walkers},
            )
