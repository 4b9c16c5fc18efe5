"""The two serving workloads: a warm ``WalkService`` under a closed
loop (callers that wait for replies) and under an open loop with a
concurrent writer (independent users plus graph churn)."""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.algorithms import DeepWalk, Node2Vec
from repro.core import WalkConfig
from repro.graph import DynamicGraph, EdgeUpdate, load_dataset
from repro.service import WalkRequest, WalkService

from .base import Job, LayerReport, Window, Workload, clock, timed
from .probes import (
    TABLE_AND_CORE_LAYERS,
    engine_probe,
    record_probe,
    table_build_probe,
)
from .inputs import (
    MIX_BLOCK,
    RequestClass,
    RequestSpec,
    arrival_offsets,
    build_churn_stream,
    request_block,
)
from .spans import SpanRecorder
from .stats import median, percentile
from .verify import EdgeIndex, check_walks, chunks_of_paths

__all__ = ["ServeChurn", "ServeStatic"]

_QUICK_MIX = (
    (RequestClass("large", "deepwalk", 128, 20),)
    + (RequestClass("small", "deepwalk", 16, 10),) * 3
    + (RequestClass("medium", "node2vec", 32, 20),)
    + (RequestClass("small", "deepwalk", 16, 10),) * 3
)
_WAIT_TIMEOUT = 120.0


@dataclass
class _ResponseTimes:
    """What the layer metrics need from a reply, kept after the paths
    themselves are dropped."""

    wait_ms: float
    run_ms: float
    init_ms: float
    loop_ms: float
    digest: str

    @classmethod
    def of(cls, response, digest: str) -> "_ResponseTimes":
        stats = response.result.stats
        return cls(
            wait_ms=response.wait_seconds * 1e3,
            run_ms=response.run_seconds * 1e3,
            init_ms=stats.init_time_seconds * 1e3,
            loop_ms=stats.wall_time_seconds * 1e3,
            digest=digest,
        )


@dataclass
class _Exchange:
    """One request as the harness saw it."""

    spec: RequestSpec
    due: float | None  # open loop only
    sent: float
    done: float
    response: object  # dropped once verified (it holds the paths)
    times: _ResponseTimes | None = None


class ServeWorkload(Workload):
    """Shared request building, response verification and layer stats."""

    SERVICE_MEASURES = TABLE_AND_CORE_LAYERS + (
        "core.record_s",
        "service.goodput_rps",
        "service.latency_p90_ms",
        "service.queue_wait_ms_p50",
        "service.queue_wait_ms_p90",
        "service.run_ms_p50",
        "service.run_ms_p90",
        "service.engine_init_ms_p50",
        "service.engine_loop_ms_p50",
        "service.other_ms_p50",
        "service.shed",
        "service.failed",
        "service.deadline_hits",
        "service.queue_depth_peak",
    )

    def __init__(self, seed, workdir, quick=False, seconds=10.0, gauge=None):
        super().__init__(seed, workdir, quick, seconds, gauge)
        self.mix = _QUICK_MIX if quick else MIX_BLOCK
        self.service = None
        self.base_graph = None
        self.edges = None
        self.submitted = 0
        self.next_block = 0

    # -- requests ------------------------------------------------------
    def build_request(self, spec: RequestSpec) -> WalkRequest:
        program = (
            DeepWalk() if spec.cls.algorithm == "deepwalk" else Node2Vec(p=2.0, q=0.5)
        )
        config = WalkConfig(
            num_walkers=spec.cls.walkers,
            max_steps=spec.cls.length,
            start_vertices=spec.starts,
            seed=spec.walk_seed,
            record_paths=True,
        )
        return WalkRequest(program=program, config=config, tag=f"{spec.cls.name}")

    def take_blocks(self, count: int) -> list[RequestSpec]:
        """The next ``count`` blocks of this run's request stream."""
        specs: list[RequestSpec] = []
        for _ in range(count):
            specs += request_block(
                self.seed, self.next_block, self.base_graph.num_vertices, self.mix
            )
            self.next_block += 1
        return specs

    def call(self, spec: RequestSpec):
        """Submit one request and wait for its reply (closed loop)."""
        request = self.build_request(spec)
        sent = clock()
        ticket = self.service.submit(request)
        response = ticket.wait(_WAIT_TIMEOUT)
        done = clock()
        return _Exchange(spec, None, sent, done, response)

    def warm_up_requests(self) -> None:
        """One request of each class, discarded."""
        seen = set()
        for spec in self.take_blocks(1):
            if spec.cls.name not in seen:
                seen.add(spec.cls.name)
                self.call(spec)
        self.submitted += len(seen)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close(wait=True)
            self.service = None

    def prepare_verifier(self) -> None:
        self.edges = EdgeIndex.from_csr_arrays(
            self.base_graph.offsets, self.base_graph.targets
        )

    # -- verification --------------------------------------------------
    def edges_at(self, epoch) -> EdgeIndex:
        return self.edges

    def to_job(self, exchange: _Exchange, recorder: SpanRecorder) -> Job:
        spec, response = exchange.spec, exchange.response
        job = Job(
            job_id=f"{self.name}/{spec.index}",
            start=exchange.sent,
            end=exchange.done,
            due=exchange.due,
            kind=spec.cls.name,
        )
        if response.status != "ok" or response.result is None:
            reason = response.shed_reason or response.error or ""
            job.problems.append(f"status {response.status} {reason}".strip())
            return job
        result = response.result
        checked = check_walks(
            chunks_of_paths(result.paths),
            spec.starts,
            spec.cls.length,
            self.edges_at(response.graph_epoch),
        )
        job.problems += checked.problems
        if result.stats.total_steps != spec.expected_steps:
            job.problems.append(
                f"total_steps {result.stats.total_steps} != {spec.expected_steps}"
            )
        job.steps = spec.expected_steps
        self._trace_exchange(exchange, job, recorder)
        exchange.times = _ResponseTimes.of(response, checked.digest)
        exchange.response = None
        return job

    def _trace_exchange(self, exchange, job: Job, recorder: SpanRecorder) -> None:
        """Spans of one request, laid out from the response's own
        fields: queue wait, then the run with engine init and loop as
        children (the run's self time is everything else it did)."""
        if not recorder.enabled:
            return
        response = exchange.response
        stats = response.result.stats
        origin = exchange.sent if exchange.due is None else exchange.due
        root = recorder.record("request", origin, exchange.done, job=job.job_id)
        run_start = exchange.sent + response.wait_seconds
        recorder.record(
            "service.queue_wait", exchange.sent, run_start,
            parent=root.span_id, job=job.job_id,
        )
        run = recorder.record(
            "service.run", run_start, run_start + response.run_seconds,
            parent=root.span_id, job=job.job_id,
        )
        loop_start = run_start + stats.init_time_seconds
        recorder.record(
            "core.init", run_start, loop_start, parent=run.span_id, job=job.job_id
        )
        recorder.record(
            "core.loop", loop_start, loop_start + stats.wall_time_seconds,
            parent=run.span_id, job=job.job_id,
        )

    def check_accounting(self, jobs: list[Job]) -> None:
        """``submitted == served + shed + failed`` and nothing lost."""
        problems = []
        if not self.service.accounting_balanced():
            problems.append("service accounting does not balance")
        if self.service.metrics.submitted != self.submitted:
            problems.append(
                f"service counted {self.service.metrics.submitted} submissions, "
                f"harness sent {self.submitted}"
            )
        if problems and jobs:
            jobs[-1].problems += problems

    def run_blocks(self, seconds: float, run_block) -> list[tuple[list, float]]:
        """Whole blocks of the mix until their summed wall reaches
        ``seconds``, with the speed gauge sampled between blocks."""
        blocks = []
        spent = 0.0
        self.gauge.sample(2)
        while spent < seconds:
            exchanges, wall = run_block()
            blocks.append((exchanges, wall))
            spent += wall
            self.gauge.sample(2)
        return blocks

    def window(self, blocks, recorder, notes=()) -> Window:
        """Verify every reply and sum the blocks up.  Throughput is the
        median over blocks of steps in verified replies / block wall
        (first send to last reply): every block carries the same work."""
        jobs: list[Job] = []
        rates = []
        for exchanges, wall in blocks:
            block_jobs = [self.to_job(e, recorder) for e in exchanges]
            rates.append(sum(job.steps for job in block_jobs if job.ok) / wall)
            jobs += block_jobs
        self.check_accounting(jobs)
        exchanges = [e for block, _ in blocks for e in block]
        return Window(
            jobs=jobs,
            steps_per_s=median(rates),
            rate_as_timed=True,
            notes=self.window_notes(jobs, exchanges) + list(notes),
            extras={
                "exchanges": exchanges,
                "span_s": sum(wall for _, wall in blocks),
            },
        )

    def window_notes(self, jobs: list[Job], exchanges) -> list[str]:
        digest = sum(
            int(e.times.digest, 16) for e in exchanges if e.times is not None
        ) % (1 << 64)
        by_class: dict[str, list[float]] = {}
        for job in jobs:
            by_class.setdefault(job.kind, []).append(job.latency_ms)
        classes = ", ".join(
            f"{kind} p50 {median(values):.1f} ms (n={len(values)})"
            for kind, values in sorted(by_class.items())
        )
        return [f"corpus digest: {digest:016x}", f"latency by class: {classes}"]

    # -- layers --------------------------------------------------------
    def service_layers(self, window: Window, report: LayerReport) -> None:
        exchanges = window.extras["exchanges"]
        times = [e.times for e in exchanges if e.times is not None]
        # Request spans are laid out after the window from the replies,
        # so the window itself ran untraced.
        good = [job.latency_ms for job in window.jobs if job.ok]
        report.set("service.latency_p90_ms", percentile(good, 90.0))
        report.set("service.goodput_rps", len(good) / window.extras["span_s"])
        with report.probing(*[n for n in self.SERVICE_MEASURES if "service." in n]):
            waits = [t.wait_ms for t in times]
            runs = [t.run_ms for t in times]
            report.set("service.queue_wait_ms_p50", median(waits))
            report.set("service.queue_wait_ms_p90", percentile(waits, 90.0))
            report.set("service.run_ms_p50", median(runs))
            report.set("service.run_ms_p90", percentile(runs, 90.0))
            report.set("service.engine_init_ms_p50", median(t.init_ms for t in times))
            report.set("service.engine_loop_ms_p50", median(t.loop_ms for t in times))
            report.set(
                "service.other_ms_p50",
                median(t.run_ms - t.init_ms - t.loop_ms for t in times),
            )
            metrics = self.service.metrics
            report.set("service.shed", metrics.shed)
            report.set("service.failed", metrics.failed)
            report.set("service.deadline_hits", metrics.deadline_hits)
            report.set("service.queue_depth_peak", metrics.queue_depth_peak)

    def engine_layers(self, graph, recorder: SpanRecorder, report: LayerReport):
        """Replay one small request as direct public calls."""
        spec = next(s for s in self.take_blocks(1) if s.cls.name == "small")

        def config(record_paths: bool) -> WalkConfig:
            return WalkConfig(
                num_walkers=spec.cls.walkers,
                max_steps=spec.cls.length,
                start_vertices=spec.starts,
                seed=spec.walk_seed,
                record_paths=record_paths,
            )

        with recorder.span("replay", job=f"{self.name}/replay"):
            table_build_probe(self.base_graph, recorder, report)
            engine_probe(
                graph, DeepWalk(), config(False), recorder, report,
                tables_in_init=graph is self.base_graph,
            )
            record_probe(graph, DeepWalk(), config(True), recorder, report)


# ----------------------------------------------------------------------
class ServeStatic(ServeWorkload):
    """Closed loop, 2 clients, static CSR graph."""

    name = "serve-static"
    clients = 2
    MEASURES = ServeWorkload.SERVICE_MEASURES + (
        "service.solo_latency_ms_p50",
        "service.contention_ratio",
    )

    def setup(self) -> None:
        scale = 0.1 if self.quick else 0.25
        self.base_graph = load_dataset("livejournal", scale=scale)
        self.service = WalkService(
            self.base_graph, num_workers=2, queue_capacity=4096, degradation=None
        )
        self.warm_up_requests()

    def run_block(self, clients: int):
        """One block of the mix through a closed loop: each client
        sends its next request as soon as its previous one is answered.
        Returns (exchanges, seconds from first send to last reply)."""
        specs = self.take_blocks(1)
        lock = threading.Lock()
        exchanges: list[_Exchange] = []
        start = clock()

        def client():
            while True:
                with lock:
                    if not specs:
                        return
                    spec = specs.pop(0)
                exchange = self.call(spec)
                with lock:
                    exchanges.append(exchange)

        threads = [
            threading.Thread(target=client, name=f"client-{i}") for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.submitted += len(exchanges)
        exchanges.sort(key=lambda e: e.spec.index)
        return exchanges, max(e.done for e in exchanges) - start

    def measure(self, seconds, recorder):
        blocks = self.run_blocks(seconds, lambda: self.run_block(self.clients))
        return self.window(blocks, recorder)

    def layers(self, window, recorder, report):
        self.service_layers(window, report)
        # The same mix from one client: what a request costs with no
        # second worker thread competing for the interpreter lock.
        exchanges, _ = self.run_block(clients=1)
        solo = [self.to_job(e, recorder) for e in exchanges]
        solo_p50 = median(job.latency_ms for job in solo if job.ok)
        both_p50 = median(job.latency_ms for job in window.jobs if job.ok)
        report.set("service.solo_latency_ms_p50", solo_p50)
        report.set("service.contention_ratio", both_p50 / solo_p50)
        window.notes.append(
            f"service.contention_ratio = {both_p50:.1f} ms p50 with 2 clients / "
            f"{solo_p50:.1f} ms p50 with 1 client"
        )
        self.engine_layers(self.base_graph, recorder, report)


# ----------------------------------------------------------------------
class ServeChurn(ServeWorkload):
    """Open loop at a fixed rate, with a writer committing updates."""

    name = "serve-churn"
    rate = 10.0  # requests per second
    commit_every = 0.8  # seconds between update batches
    batch_size = 100
    probe_batches = 8
    MEASURES = ServeWorkload.SERVICE_MEASURES + (
        "service.generator_late_ms_p99",
        "graph.commit_ms_p50",
        "graph.commit_edges_per_s",
        "graph.snapshot_ms_p50",
        "sampling.epoch_tables_ms_p50",
        "sampling.vertices_rebuilt",
        "sampling.full_rebuilds",
        "sampling.verify_fallbacks",
    )

    def __init__(self, seed, workdir, quick=False, seconds=10.0, gauge=None):
        super().__init__(seed, workdir, quick, seconds, gauge)
        self.next_batch = 0
        self._overlays: dict[int, EdgeIndex] = {}

    def setup(self) -> None:
        scale = 0.1 if self.quick else 1.0
        if self.quick:
            self.batch_size = 20
        self.base_graph = load_dataset("livejournal", scale=scale, weighted=True)
        # Blocks overrun the window a little and gauge samples sit between
        # them, so reserve a few batches more than the window alone needs.
        commits = math.ceil(self.seconds / self.commit_every) + 6
        self.stream = build_churn_stream(
            self.base_graph.offsets,
            self.base_graph.targets,
            self.seed,
            num_batches=commits + 1 + self.probe_batches,
            batch_size=self.batch_size,
        )
        self.dynamic = DynamicGraph(self.base_graph)
        self.service = WalkService(
            self.dynamic, num_workers=2, queue_capacity=4096, degradation=None
        )
        self.warm_up_requests()
        self.commit_next()
        self.call(self.take_blocks(1)[0])
        self.submitted += 1

    def updates(self, index: int) -> list[EdgeUpdate]:
        batch = self.stream.batches[index]
        updates = [
            EdgeUpdate("insert", int(u), int(v), float(w))
            for (u, v), w in zip(batch.inserts, batch.insert_weights)
        ]
        updates += [EdgeUpdate("delete", int(u), int(v)) for u, v in batch.deletes]
        updates += [
            EdgeUpdate("reweight", int(u), int(v), float(w))
            for (u, v), w in zip(batch.reweights, batch.reweight_weights)
        ]
        return updates

    def commit_next(self) -> float:
        """Apply the next batch through the service; seconds it took."""
        updates = self.updates(self.next_batch)
        start = clock()
        epoch = self.service.apply_updates(updates)
        elapsed = clock() - start
        self.next_batch += 1
        if epoch != self.next_batch:
            raise RuntimeError(f"epoch {epoch} after {self.next_batch} commits")
        return elapsed

    def edges_at(self, epoch) -> EdgeIndex:
        """The verifier's own edge set as of ``epoch``: batch ``i`` of
        the stream is what made epoch ``i + 1``."""
        if epoch not in self._overlays:
            self._overlays[epoch] = self.edges.overlaid(
                *self.stream.directed_changes(epoch)
            )
        return self._overlays[epoch]

    def run_block(self):
        """One block of the mix through the open loop: one thread per
        request, each sleeping until its request is due, sending it and
        blocking on the reply.  Nothing polls, so the generator takes
        the interpreter lock only to send and to note a reply (a
        polling collector measurably slowed the service it watched).
        Returns (exchanges, seconds from the block's start to its last
        reply); the next block starts only after that reply."""
        block = self.next_block
        specs = self.take_blocks(1)
        requests = [self.build_request(spec) for spec in specs]
        offsets = arrival_offsets(self.seed, block, self.rate, len(specs))
        exchanges: list[_Exchange] = []
        lock = threading.Lock()
        start = clock() + 0.02

        def user(spec, request, offset):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            response = self.service.submit(request).wait(_WAIT_TIMEOUT)
            done = clock()
            with lock:
                exchanges.append(_Exchange(spec, due, sent, done, response))

        threads = [
            threading.Thread(target=user, args=args, name=f"user-{args[0].index}")
            for args in zip(specs, requests, offsets)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.submitted += len(specs)
        if len(exchanges) != len(specs):
            raise RuntimeError("a request was never answered")
        exchanges.sort(key=lambda e: e.spec.index)
        return exchanges, max(e.done for e in exchanges) - start

    def measure(self, seconds, recorder):
        commit_seconds: list[float] = []
        stop = threading.Event()
        reserved = len(self.stream.batches) - self.probe_batches

        def writer():
            due = clock() + self.commit_every
            while not stop.wait(max(0.0, due - clock())):
                if self.next_batch == reserved:
                    return
                with recorder.span("graph.commit", job=f"commit/{self.next_batch}"):
                    commit_seconds.append(self.commit_next())
                due += self.commit_every

        thread = threading.Thread(target=writer, name="writer")
        thread.start()
        try:
            blocks = self.run_blocks(seconds, self.run_block)
        finally:
            stop.set()
            thread.join()

        late_ms = [(e.sent - e.due) * 1e3 for block, _ in blocks for e in block]
        late_p99 = percentile(late_ms, 99.0)
        notes = [
            f"generator lateness p50 {median(late_ms):.2f} ms, p99 {late_p99:.2f} ms"
            + (" -- UNRELIABLE (p99 > 20 ms)" if late_p99 > 20.0 else ""),
            f"{len(commit_seconds)} update batches committed in the window",
        ]
        window = self.window(blocks, recorder, notes=notes)
        window.extras.update(late_p99_ms=late_p99, commit_seconds=commit_seconds)
        return window

    def layers(self, window, recorder, report):
        self.service_layers(window, report)
        report.set("service.generator_late_ms_p99", window.extras["late_p99_ms"])
        commits = window.extras["commit_seconds"]
        if commits:
            report.set("graph.commit_ms_p50", median(commits) * 1e3)
            report.set("graph.commit_edges_per_s", self.batch_size / median(commits))
        with report.probing(
            "graph.snapshot_ms_p50",
            "sampling.epoch_tables_ms_p50",
            "sampling.vertices_rebuilt",
            "sampling.full_rebuilds",
            "sampling.verify_fallbacks",
        ):
            self.epoch_probe(recorder, report)
        self.engine_layers(self.dynamic, recorder, report)

    def epoch_probe(self, recorder: SpanRecorder, report: LayerReport) -> None:
        """Commit -> snapshot -> tables on a graph of the probe's own,
        one public call per span, with the stream's reserved batches
        (every batch of a stream is valid against the base graph)."""
        graph = DynamicGraph(self.base_graph)
        graph.snapshot().tables("alias")
        snapshots, tables = [], []
        with recorder.span("replay", job=f"{self.name}/epochs"):
            for index in range(self.probe_batches):
                batch = len(self.stream.batches) - 1 - index
                timed(
                    recorder, "graph.commit", lambda: graph.commit(self.updates(batch))
                )
                snapshot, seconds = timed(recorder, "graph.snapshot", graph.snapshot)
                snapshots.append(seconds)
                _, seconds = timed(
                    recorder, "sampling.epoch_tables", lambda: snapshot.tables("alias")
                )
                tables.append(seconds)
        report.set("graph.snapshot_ms_p50", median(snapshots) * 1e3)
        report.set("sampling.epoch_tables_ms_p50", median(tables) * 1e3)
        maintenance = graph.maintenance
        report.set("sampling.vertices_rebuilt", maintenance.vertices_rebuilt)
        report.set("sampling.full_rebuilds", maintenance.full_rebuilds)
        report.set("sampling.verify_fallbacks", maintenance.verify_fallbacks)
