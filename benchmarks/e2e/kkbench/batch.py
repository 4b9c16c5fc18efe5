"""The four batch workloads: one job = one request -> product round trip.

Jobs run back to back until the measured job time reaches ``--seconds``.
Whole jobs are always counted, verification (done between jobs) is never
timed, and throughput is the median over jobs of steps / job wall: every
job of a run does the same work, and the median keeps one job that ran
into a noisy neighbour from deciding the run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.algorithms import DeepWalk, Node2Vec
from repro.cluster import DistributedWalkEngine
from repro.core import WalkConfig, WalkEngine
from repro.errors import ReproError
from repro.graph import load_dataset, save_edge_list
from repro.parallel import run_parallel_walk

from .base import Job, Window, Workload, clock, public, timed
from .inputs import derive_seed
from .probes import (
    TABLE_AND_CORE_LAYERS,
    core_counts,
    engine_probe,
    record_probe,
    table_build_probe,
)
from .spans import SpanRecorder
from .spec import ROOT
from .stats import median
from .verify import (
    EdgeIndex,
    check_walks,
    chunks_of_corpus,
    chunks_of_paths,
    read_corpus,
)

__all__ = ["ClusterSim", "CorpusCli", "Node2VecLoop", "Shard2Proc"]

_OFF = SpanRecorder(enabled=False)
_WARM_UP = "warm-up"


def _default_starts(num_walkers: int, num_vertices: int) -> np.ndarray:
    """The documented default placement: walker i starts at i mod |V|."""
    return np.arange(num_walkers, dtype=np.int64) % num_vertices


def _check_final_state(result, num_walkers, walk_length, num_vertices) -> list[str]:
    """Checks for products that are walker state + stats (no paths)."""
    problems = []
    if result.status != "complete":
        problems.append(f"status {result.status!r}")
    walkers = result.walkers
    if walkers.steps.size != num_walkers:
        problems.append(f"{walkers.steps.size} walkers, expected {num_walkers}")
    if not np.all(walkers.steps == walk_length):
        problems.append("not every walker took the full walk length")
    if walkers.alive.any():
        problems.append("walkers still alive in a complete result")
    if walkers.current.min() < 0 or walkers.current.max() >= num_vertices:
        problems.append("walker position out of range")
    if result.stats.termination.total != num_walkers:
        problems.append("terminations do not add up to the walker count")
    expected = num_walkers * walk_length
    if result.stats.total_steps != expected:
        problems.append(f"total_steps {result.stats.total_steps} != {expected}")
    return problems


class BatchWorkload(Workload):
    """Sequential jobs, each verified right after it ends."""

    walk_length = 80
    quick_walk_length = 20
    notes: tuple[str, ...] = ()  # printed with the window (corpus digest)

    def __init__(self, seed, workdir, quick=False, seconds=10.0, gauge=None):
        super().__init__(seed, workdir, quick, seconds, gauge)
        self.length = self.quick_walk_length if quick else self.walk_length
        self.graph = None
        self.edges = None
        self.job_stats: dict[int, object] = {}

    def job_seed(self, index: int) -> int:
        return derive_seed(self.seed, "job", index)

    def execute(self, index: int, recorder: SpanRecorder):
        """Request -> product; the only timed part of a job."""
        raise NotImplementedError

    def check(self, index: int, product) -> tuple[int, list[str]]:
        """(steps delivered, problems) of one product."""
        raise NotImplementedError

    def prepare_verifier(self) -> None:
        self.edges = EdgeIndex.from_csr_arrays(self.graph.offsets, self.graph.targets)

    def warm_up(self) -> None:
        """One discarded job, so caches fill and lazy set-up finishes."""
        self.discard(self.execute(_WARM_UP, _OFF))

    def discard(self, product) -> None:
        """Drop a product that will not be verified."""

    def run_job(self, index: int, recorder: SpanRecorder) -> Job:
        job_id = f"{self.name}/{index}"
        problems: list[str] = []
        product = None
        with recorder.span("job", job=job_id):
            start = clock()
            try:
                product = self.execute(index, recorder)
            except (ReproError, OSError) as error:
                problems.append(f"{type(error).__name__}: {error}")
            end = clock()
        steps = 0
        if product is not None:
            steps, problems = self.check(index, product)
        return Job(job_id, start, end, steps=steps, problems=problems)

    def measure(self, seconds: float, recorder: SpanRecorder) -> Window:
        jobs: list[Job] = []
        spent = 0.0
        self.gauge.sample(2)
        while spent < seconds:
            job = self.run_job(len(jobs), recorder)
            jobs.append(job)
            spent += job.wall
            self.gauge.sample(2, min_gap_s=0.25)
        rates = [job.steps / job.wall for job in jobs if job.ok]
        return Window(
            jobs=jobs,
            steps_per_s=median(rates) if rates else 0.0,
            notes=list(self.notes),
        )


# ----------------------------------------------------------------------
class CorpusCli(BatchWorkload):
    """``python -m repro.cli walk --edge-list ... --output corpus.txt``."""

    name = "corpus-cli"
    launcher = None
    MEASURES = TABLE_AND_CORE_LAYERS + (
        "cli.interp_s",
        "cli.import_s",
        "cli.other_s",
        "graph.load_s",
        "graph.load_edges_per_s",
        "core.stream_s",
        "core.corpus_bytes",
    )

    def setup(self) -> None:
        scale = 0.1 if self.quick else 1.0
        self.graph = load_dataset("livejournal", scale=scale)
        self.num_walkers = self.graph.num_vertices
        self.edge_list = os.path.join(self.workdir, "lj.txt")
        save_edge_list(self.graph, self.edge_list)
        self.env = dict(os.environ)
        source = str(ROOT / "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = (
            source if not inherited else source + os.pathsep + inherited
        )
        # See launcher.py: jobs are started from a process small enough
        # that their peak RSS is their own.
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.last_reply: dict = {}
        self.warm_up()

    def _python(self, *args: str) -> dict:
        """Run ``python <args>`` through the launcher; its reply."""
        argv = [sys.executable, *args]
        request = {"argv": argv, "env": self.env, "cwd": self.workdir}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise OSError("the job launcher exited")
        self.last_reply = json.loads(reply)
        return self.last_reply

    def teardown(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=30)
            self.launcher = None

    def execute(self, index, recorder):
        corpus = os.path.join(self.workdir, f"corpus-{index}.txt")
        with recorder.span("cli.process"):
            done = self._python(
                "-m", "repro.cli", "walk",
                "--edge-list", self.edge_list,
                "--algorithm", "deepwalk",
                "--walkers", str(self.num_walkers),
                "--length", str(self.length),
                "--seed", str(self.job_seed(index)),
                "--output", corpus,
            )
        return done, corpus

    def discard(self, product) -> None:
        os.remove(product[1])

    def check(self, index, product):
        done, corpus = product
        if done["returncode"] != 0:
            tail = done["stderr"].strip().splitlines()[-1:] or [""]
            return 0, [f"exit code {done['returncode']}: {tail[0]}"]
        try:
            tokens, lengths = read_corpus(corpus)
        except (OSError, ValueError) as error:
            return 0, [f"unreadable corpus: {error}"]
        finally:
            if os.path.exists(corpus):
                os.remove(corpus)
        checked = check_walks(
            chunks_of_corpus(tokens, lengths),
            _default_starts(self.num_walkers, self.graph.num_vertices),
            self.length,
            self.edges,
        )
        problems = checked.problems
        expected = self.num_walkers * self.length
        reported = re.search(r"steps=(\d+)", done["stdout"])
        if reported is None or int(reported.group(1)) != expected:
            problems.append(f"CLI did not report steps={expected}")
        if index == 0:
            self.notes = (f"corpus digest job 0: {checked.digest}",)
        return expected, problems

    def peak_rss_mb(self) -> float:
        # The product is made by the CLI children, not by this process.
        return self.last_reply["children_maxrss_kb"] / 1024.0

    def layers(self, window, recorder, report):
        """Replay job 0 as separate public calls, one span per layer."""
        process_s = median(job.wall for job in window.jobs)
        with recorder.span("replay", job=f"{self.name}/replay"):
            interp_s = median(
                timed(recorder, "cli.interp", lambda: self._python("-c", "pass"))[1]
                for _ in range(3)
            )
            import_s = median(
                timed(
                    recorder,
                    "cli.interp+import",
                    lambda: self._python("-c", "import repro.cli"),
                )[1]
                for _ in range(3)
            ) - interp_s
            report.set("cli.interp_s", interp_s)
            report.set("cli.import_s", import_s)

            graph = self.graph
            load_s = 0.0
            with report.probing("graph.load_s", "graph.load_edges_per_s"):
                load_edge_list = public("repro.graph:load_edge_list")
                graph, load_s = timed(
                    recorder, "graph.load", lambda: load_edge_list(self.edge_list)
                )
                report.set("graph.load_s", load_s)
                report.set("graph.load_edges_per_s", graph.num_edges / load_s)
            table_build_probe(graph, recorder, report)

            def config(**extra):
                return WalkConfig(
                    num_walkers=self.num_walkers,
                    max_steps=self.length,
                    seed=self.job_seed(0),
                    **extra,
                )

            corpus = os.path.join(self.workdir, "replay-corpus.txt")
            with recorder.span("core.job+stream"):
                engine, stream_init_s = timed(
                    recorder,
                    "core.init",
                    lambda: WalkEngine(
                        graph, DeepWalk(), config(stream_paths_to=corpus)
                    ),
                )
                _, stream_loop_s = timed(recorder, "core.loop+stream", engine.run)
            report.set("core.corpus_bytes", os.path.getsize(corpus))
            os.remove(corpus)
            engine_probe(graph, DeepWalk(), config(), recorder, report)
            report.set("core.stream_s", stream_loop_s - report.values["core.loop_s"])
            # Whatever the process spends outside the named layers:
            # argument parsing, printing, teardown, page faults.
            report.set(
                "cli.other_s",
                process_s
                - (interp_s + import_s + load_s + stream_init_s + stream_loop_s),
            )


# ----------------------------------------------------------------------
class Node2VecLoop(BatchWorkload):
    """In-process ``WalkEngine(...).run()``: second-order, skewed graph."""

    name = "node2vec-loop"
    walks_per_vertex = 8
    MEASURES = TABLE_AND_CORE_LAYERS + ("obs.enabled_overhead_pct",)

    def setup(self) -> None:
        scale = 0.1 if self.quick else 1.0
        self.graph = load_dataset("twitter", scale=scale, weighted=True)
        if self.quick:
            self.walks_per_vertex = 1
        self.num_walkers = self.walks_per_vertex * self.graph.num_vertices
        self.warm_up()

    def prepare_verifier(self) -> None:
        """The product carries no paths, so no edge index is needed."""

    def program(self):
        return Node2Vec(p=2.0, q=0.5)

    def config(self, index: int) -> WalkConfig:
        return WalkConfig(
            walks_per_vertex=self.walks_per_vertex,
            max_steps=self.length,
            seed=self.job_seed(index),
            record_paths=False,
        )

    def execute(self, index, recorder):
        engine, _ = timed(
            recorder,
            "core.init",
            lambda: WalkEngine(self.graph, self.program(), self.config(index)),
        )
        result, _ = timed(recorder, "core.loop", engine.run)
        return result

    def check(self, index, product):
        self.job_stats[index] = product.stats
        problems = _check_final_state(
            product, self.num_walkers, self.length, self.graph.num_vertices
        )
        return product.stats.total_steps, problems

    def layers(self, window, recorder, report):
        table_build_probe(self.graph, recorder, report)
        init_s = median(recorder.durations("core.init"))
        loop_s = median(recorder.durations("core.loop"))
        report.set("core.init_s", init_s)
        report.set("core.loop_s", loop_s)
        report.set("core.loop_steps_per_s", window.jobs[0].steps / loop_s)
        if "sampling.table_build_s" in report.values:
            report.set(
                "core.init_self_s", init_s - report.values["sampling.table_build_s"]
            )
        core_counts(self.job_stats[0], report)
        with report.probing("obs.enabled_overhead_pct"):
            tracer_class = public("repro.obs:Tracer")
            plain = recorder.durations("core.loop")
            overheads = []
            for index in range(min(2, len(plain))):
                engine = WalkEngine(self.graph, self.program(), self.config(index))
                engine.observe(tracer_class())
                _, observed = timed(
                    recorder, "core.loop+obs", engine.run, job=f"{self.name}/obs{index}"
                )
                overheads.append((observed - plain[index]) / plain[index] * 100.0)
            report.set("obs.enabled_overhead_pct", median(overheads))


# ----------------------------------------------------------------------
class Shard2Proc(BatchWorkload):
    """``run_parallel_walk(..., record_paths=True, num_workers=2)``."""

    name = "shard-2proc"
    MEASURES = TABLE_AND_CORE_LAYERS + (
        "core.record_s",
        "parallel.shard_init_sum_s",
        "parallel.shard_loop_max_s",
        "parallel.overhead_s",
        "parallel.speedup_vs_1",
        "parallel.restarts",
    )

    def setup(self) -> None:
        scale = 0.1 if self.quick else 1.0
        self.graph = load_dataset("livejournal", scale=scale)
        self.num_walkers = 3 * self.graph.num_vertices
        self.warm_up()

    def config(self, index: int, record_paths: bool = True) -> WalkConfig:
        return WalkConfig(
            num_walkers=self.num_walkers,
            max_steps=self.length,
            seed=self.job_seed(index),
            record_paths=record_paths,
        )

    def execute(self, index, recorder, num_workers: int = 2):
        with recorder.span("parallel.run", workers=num_workers):
            return run_parallel_walk(
                self.graph, DeepWalk(), self.config(index), num_workers=num_workers
            )

    def check(self, index, product):
        # Keep the small parts only: holding every job's paths would
        # make peak RSS grow with the number of jobs in the window.
        self.job_stats[index] = (product.stats, product.metrics)
        problems = []
        if product.status != "complete":
            problems.append(f"status {product.status!r}")
        checked = check_walks(
            chunks_of_paths(product.paths),
            _default_starts(self.num_walkers, self.graph.num_vertices),
            self.length,
            self.edges,
        )
        problems += checked.problems
        expected = self.num_walkers * self.length
        if product.stats.total_steps != expected:
            problems.append(f"total_steps {product.stats.total_steps} != {expected}")
        if index == 0:
            self.notes = (f"corpus digest job 0: {checked.digest}",)
        return expected, problems

    def layers(self, window, recorder, report):
        kept = [self.job_stats[i] for i in range(len(window.jobs))]
        init_sums = [stats.init_time_seconds for stats, _ in kept]
        loop_maxes = [stats.wall_time_seconds for stats, _ in kept]
        report.set("parallel.shard_init_sum_s", median(init_sums))
        report.set("parallel.shard_loop_max_s", median(loop_maxes))
        # What a job costs beyond its shards' own init and loop:
        # spawn, in-worker path building, result pickling, merge.
        report.set(
            "parallel.overhead_s",
            median(
                job.wall - init_sum / 2.0 - loop_max
                for job, init_sum, loop_max in zip(window.jobs, init_sums, loop_maxes)
            ),
        )
        with report.probing("parallel.restarts"):
            report.set(
                "parallel.restarts",
                sum(metrics.value("pool_restarts") for _, metrics in kept),
            )
        with recorder.span("replay", job=f"{self.name}/replay"):
            _, one_worker_s = timed(
                recorder, "parallel.run@1", lambda: self.execute(0, _OFF, num_workers=1)
            )
            report.set("parallel.speedup_vs_1", one_worker_s / window.jobs[0].wall)
            window.notes.append(
                f"parallel.speedup_vs_1 = {one_worker_s:.3f} s at 1 worker / "
                f"{window.jobs[0].wall:.3f} s at 2 workers (job 0)"
            )
            table_build_probe(self.graph, recorder, report)
            engine_probe(
                self.graph, DeepWalk(), self.config(0, False), recorder, report
            )
            record_probe(self.graph, DeepWalk(), self.config(0), recorder, report)


# ----------------------------------------------------------------------
class ClusterSim(BatchWorkload):
    """``DistributedWalkEngine(..., num_nodes=8).run()``, host wall."""

    name = "cluster-sim"
    walks_per_vertex = 3
    num_nodes = 8
    MEASURES = TABLE_AND_CORE_LAYERS + (
        "cluster.init_s",
        "cluster.run_s",
        "cluster.host_ms_per_superstep",
        "cluster.vs_local_ratio",
        "cluster.supersteps",
        "cluster.remote_messages",
        "cluster.bytes",
        "cluster.simulated_s",
    )

    def setup(self) -> None:
        scale = 0.1 if self.quick else 1.0
        self.graph = load_dataset("twitter", scale=scale, weighted=True)
        if self.quick:
            self.walks_per_vertex = 1
        self.num_walkers = self.walks_per_vertex * self.graph.num_vertices
        self.warm_up()

    def prepare_verifier(self) -> None:
        """The product carries no paths, so no edge index is needed."""

    def config(self, index: int) -> WalkConfig:
        return WalkConfig(
            walks_per_vertex=self.walks_per_vertex,
            max_steps=self.length,
            seed=self.job_seed(index),
        )

    def execute(self, index, recorder):
        engine, _ = timed(
            recorder,
            "cluster.init",
            lambda: DistributedWalkEngine(
                self.graph,
                Node2Vec(p=2.0, q=0.5),
                self.config(index),
                num_nodes=self.num_nodes,
            ),
        )
        result, _ = timed(recorder, "cluster.run", engine.run)
        return result

    def check(self, index, product):
        self.job_stats[index] = (product.stats, product.cluster)
        problems = _check_final_state(
            product, self.num_walkers, self.length, self.graph.num_vertices
        )
        return product.stats.total_steps, problems

    def layers(self, window, recorder, report):
        init_s = median(recorder.durations("cluster.init"))
        run_s = median(recorder.durations("cluster.run"))
        report.set("cluster.init_s", init_s)
        report.set("cluster.run_s", run_s)
        stats, cluster = self.job_stats[0]
        with report.probing(
            "cluster.supersteps",
            "cluster.remote_messages",
            "cluster.bytes",
            "cluster.simulated_s",
            "cluster.host_ms_per_superstep",
        ):
            report.set("cluster.supersteps", cluster.num_supersteps)
            report.set("cluster.remote_messages", cluster.network.total_messages())
            report.set("cluster.bytes", cluster.network.total_bytes())
            report.set("cluster.simulated_s", cluster.simulated_seconds)
            run_0 = recorder.durations("cluster.run")[0]
            report.set(
                "cluster.host_ms_per_superstep", run_0 / cluster.num_supersteps * 1e3
            )
        with recorder.span("replay", job=f"{self.name}/replay"):
            table_build_probe(self.graph, recorder, report)
            local_s = engine_probe(
                self.graph, Node2Vec(p=2.0, q=0.5), self.config(0), recorder, report
            )
        # The work counts reported are the cluster run's own.
        core_counts(stats, report)
        report.set("cluster.vs_local_ratio", window.jobs[0].wall / local_s)
        window.notes.append(
            f"cluster.vs_local_ratio = {window.jobs[0].wall:.3f} s on 8 simulated "
            f"nodes / {local_s:.3f} s on WalkEngine (job 0)"
        )
