"""True multi-process walk execution on one machine.

The cluster simulator (:mod:`repro.cluster`) *models* distribution to
count work and messages; this module actually parallelises: walkers are
sharded across worker processes, each running an independent
:class:`~repro.core.engine.WalkEngine` over the shared graph, and the
results are merged.  Because walkers never interact, sharding is exact
— the union of shard walks is distributed identically to a single-
engine run (each shard gets an independent seed stream).

This is the random-walk analogue of DrunkardMob's observation (paper
section 3) that single-machine multicore execution goes a long way:
for algorithms without cross-walker coordination, embarrassing
parallelism is real.

The shards share one alias table, built once and in parallel as
KnightKing builds it (each node pre-processes the vertices it owns
under the section 6.1 |V_i| + |E_i| partition): a first pool round has
worker *i* build the slices of part *i*, and the parent lays them end
to end — bit-identical to the serial build, since a slice's alias
indices count from its own start — and keeps the table on the prepared
graph the shards inherit.  An epoch of a live ``DynamicGraph`` gets its
table from its owner instead, once, in the parent; a program with its
own Ps array builds it in every shard.

Execution is *supervised* (:class:`repro.service.pool.SupervisedPool`),
in both rounds: a worker that dies (OOM kill, ``os._exit``) surfaces
immediately as :class:`~repro.errors.WorkerError` naming the shard or
table slice instead of blocking a bare ``pool.map`` forever, worker
exceptions re-surface with their original traceback plus the task
(shard index and seed, or slice and vertex range), per-task timeouts
are enforced, and dead workers are restarted up to ``max_restarts``
times.  A ``deadline`` propagates into every shard engine's chunked
run loop, so parallel runs return partial, well-formed results tagged
``deadline_exceeded`` just like single-engine runs; a fired ``cancel``
token terminates the workers and tags the result ``cancelled``.

Implementation notes: workers are spawned via ``multiprocessing`` with
the fork start method where available, so the CSR arrays and the
table are shared copy-on-write; what crosses a pipe is a slice's
three arrays and a shard's stats, packed paths and walk lengths.  On
platforms without fork, arguments fall back to pickling (correct,
slower).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import WalkerProgram
from repro.core.stats import WalkStats
from repro.core.trace import split_paths
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import partition_graph
from repro.graph.prepared import PreparedGraph, prepare
from repro.obs import MetricsRegistry
from repro.sampling.alias import VertexAliasTables, build_alias_segments
from repro.sampling.tables import is_unit_weights, static_component, unit_weights
from repro.service.deadline import Deadline
from repro.service.pool import SupervisedPool

__all__ = ["ParallelWalkResult", "run_parallel_walk", "shard_config"]


@dataclass
class ParallelWalkResult:
    """Merged outcome of a sharded walk execution.

    ``status`` is ``"complete"``, ``"deadline_exceeded"`` or
    ``"cancelled"``.  ``metrics`` is one :class:`~repro.obs.MetricsRegistry`:
    the parent projects every shard's :class:`WalkStats` into it under
    ``shard=<i>``, beside the pool's own supervision counters (both
    rounds' tasks).
    """

    stats: WalkStats
    paths: list[np.ndarray] | None
    walk_lengths: np.ndarray
    num_workers: int
    status: str = "complete"
    metrics: MetricsRegistry | None = None


def shard_config(
    config: WalkConfig, graph: CSRGraph, num_shards: int
) -> list[WalkConfig]:
    """Split a walk configuration into per-worker shards.

    Walker counts are split as evenly as possible; explicit start
    vertices are partitioned contiguously; every shard gets a distinct
    derived seed so their random streams are independent.
    """
    if num_shards <= 0:
        raise ConfigError("num_shards must be positive")
    if config.stream_paths_to is not None:
        raise ConfigError(
            "a sharded walk cannot stream to one file; use record_paths"
        )
    total = config.resolve_num_walkers(graph)
    if num_shards > total:
        num_shards = total
    starts = (
        config.resolve_starts(graph) if config.start_vertices is not None else None
    )

    shards = []
    boundaries = np.linspace(0, total, num_shards + 1).astype(int)
    for shard in range(num_shards):
        low, high = int(boundaries[shard]), int(boundaries[shard + 1])
        count = high - low
        if count == 0:
            continue
        if starts is not None:
            shard_starts = starts[low:high]
        elif config.start_distribution is None:
            # Preserve the paper's default placement: walker i starts
            # at vertex i mod |V|, globally across shards.
            shard_starts = (
                np.arange(low, high, dtype=np.int64) % graph.num_vertices
            )
        else:
            shard_starts = None
        shards.append(
            config.evolve(
                num_walkers=count,
                walks_per_vertex=None,
                start_vertices=shard_starts,
                start_distribution=(
                    config.start_distribution if shard_starts is None else None
                ),
                seed=config.seed * 1_000_003 + shard,
            )
        )
    return shards


def _run_shard(args, cancel=None):
    graph, program, shard_config_, deadline = args
    engine = WalkEngine(graph, program, shard_config_)
    result = engine.run(deadline=deadline, cancel=cancel)
    # Two packed buffers cross the pipe, not one small array per walker.
    packed = None if result.paths is None else engine._recorder.packed()
    return result.stats, packed, result.walkers.steps, result.status


def _build_slice(args):
    """One worker's part of the table round: the alias slices of one
    vertex range, and the seconds they took.  The unit Ps arrives as
    ``None`` and is rebuilt here as its zero-stride view."""
    static, offsets, low, high = args
    if static is None:
        static = unit_weights(int(offsets[-1]))
    started = time.perf_counter()
    built = build_alias_segments(static, offsets, np.arange(low, high))
    return built, time.perf_counter() - started


def _split_build(pool, num_parts, cancel, seconds):
    """A builder of the default table for ``PreparedGraph.default_tables``:
    part *i* of the paper's |V_i| + |E_i| partition is built by worker
    *i* and the slices are laid end to end, their build seconds added
    to ``seconds``.  It returns ``None`` if ``cancel`` fired, which
    leaves the prepared graph without a table."""

    def build(graph):
        static = static_component(graph)
        if is_unit_weights(static):  # pickled, a view is |E| float64s
            static = None
        boundaries = partition_graph(graph, num_parts).boundaries.tolist()
        ranges = list(zip(boundaries, boundaries[1:]))
        outputs = pool.run(
            _build_slice,
            [(static, graph.offsets, low, high) for low, high in ranges],
            describe=lambda index: (
                "alias-table slice {} (vertices [{}, {}))".format(index, *ranges[index])
            ),
            cancel=cancel,
        )
        if outputs is None:
            return None
        seconds.extend(took for _built, took in outputs)
        return VertexAliasTables.assemble(
            graph, None, [built for built, _took in outputs]
        )

    return build


def run_parallel_walk(
    graph: CSRGraph | PreparedGraph,
    program: WalkerProgram,
    config: WalkConfig | None = None,
    num_workers: int = 2,
    deadline: Deadline | float | None = None,
    shard_timeout: float | None = None,
    max_restarts: int = 2,
    cancel=None,
) -> ParallelWalkResult:
    """Run a walk sharded across ``num_workers`` processes.

    With ``num_workers=1`` everything runs in-process (no pool), which
    is also the fallback used by tests on constrained platforms.

    Before the shards start, the parent gets the one table they all
    walk on: when the program samples the default Ps and the prepared
    graph keeps no table yet, a first pool round has each worker build
    the slices of one part of :func:`~repro.graph.partition.partition_graph`
    and the parent keeps the assembled table on the prepared graph (an
    epoch of a live ``DynamicGraph`` gets it from its owner instead).
    The shards inherit it, so none builds a table; the round's build
    seconds are summed into the merged ``init_time_seconds``.  A
    program with its own Ps array builds it in every shard.

    ``deadline`` (a :class:`~repro.service.deadline.Deadline` or a
    float budget in seconds) propagates to every shard engine; the
    merged result is tagged ``deadline_exceeded`` if any shard stopped
    early.  ``cancel`` (an object with ``.cancelled``, e.g.
    :class:`repro.service.CancelToken`) is checked before each pool
    round and watched during it: once it fires the workers are
    terminated and the result is tagged ``cancelled``, with no walks
    (in-process, the engine stops at its next batch and keeps its
    partial walks).  ``shard_timeout`` is the supervision backstop: a
    task exceeding it is terminated and raised as
    :class:`~repro.errors.WorkerError` (use a deadline for graceful
    partials, the timeout for runaway shards).  A task whose worker
    *dies* is restarted up to ``max_restarts`` times before
    ``WorkerError`` is raised.
    """
    config = config if config is not None else WalkConfig()
    if isinstance(deadline, (int, float)):
        deadline = Deadline(float(deadline))
    # One pin for every shard: a writer committing between worker
    # starts must not leave shards walking different epochs.
    graph = prepare(graph)
    shards = shard_config(config, graph, num_workers)
    payloads = [(graph, program, shard, deadline) for shard in shards]
    registry = MetricsRegistry()
    build_seconds: list[float] = []

    if len(shards) == 1 or num_workers == 1:
        outputs = [_run_shard(payload, cancel) for payload in payloads]
    else:
        pool = SupervisedPool(
            max_workers=len(shards),
            task_timeout=shard_timeout,
            max_restarts=max_restarts,
            registry=registry,
        )
        if graph.is_default(program.edge_static_comp(graph.graph)):
            parts = min(len(shards), graph.num_vertices)
            graph.default_tables(_split_build(pool, parts, cancel, build_seconds))
        # A cancel that cut the table round short also refuses this one.
        outputs = pool.run(
            _run_shard,
            payloads,
            describe=lambda index: (
                f"shard {index} (seed {shards[index].seed})"
            ),
            cancel=cancel,
        )
        if outputs is None:
            return ParallelWalkResult(
                stats=WalkStats(
                    graph_epoch=graph.epoch, maintenance=graph.maintenance
                ),
                paths=[] if config.record_paths else None,
                walk_lengths=np.zeros(0, dtype=np.int64),
                num_workers=len(shards),
                status="cancelled",
                metrics=registry,
            )

    # The graph owner's live counters, not a worker's pickled copy.
    merged = WalkStats(maintenance=graph.maintenance)
    merged.init_time_seconds = sum(build_seconds)
    all_paths: list[np.ndarray] | None = [] if config.record_paths else None
    lengths = []
    status = "complete"
    for index, (stats, packed, steps, shard_status) in enumerate(outputs):
        stats.to_registry(registry, shard=str(index))
        merged.merge(stats)
        if all_paths is not None and packed is not None:
            all_paths.extend(split_paths(*packed))
        lengths.append(steps)
        if shard_status != "complete":
            status = shard_status

    return ParallelWalkResult(
        stats=merged,
        paths=all_paths,
        walk_lengths=np.concatenate(lengths),
        num_workers=len(shards),
        status=status,
        metrics=registry,
    )
