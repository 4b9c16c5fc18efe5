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

Execution is *supervised* (:class:`repro.service.pool.SupervisedPool`):
a worker that dies (OOM kill, ``os._exit``) surfaces immediately as
:class:`~repro.errors.WorkerError` naming the shard instead of
blocking a bare ``pool.map`` forever, worker exceptions re-surface
with their original traceback plus the shard index and seed, per-shard
timeouts are enforced, and dead workers are restarted under a capped
retry budget.  A ``deadline`` propagates into every shard engine's
chunked run loop, so parallel runs return partial, well-formed results
tagged ``deadline_exceeded`` just like single-engine runs.

Implementation notes: workers are spawned via ``multiprocessing`` with
the fork start method where available, so the CSR arrays are shared
copy-on-write.  On platforms without fork, arguments fall back to
pickling (correct, slower).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import WalkerProgram
from repro.core.stats import WalkStats
from repro.core.trace import split_paths
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.prepared import PreparedGraph, prepare
from repro.obs import MetricsRegistry
from repro.service.breaker import RetryBudget
from repro.service.deadline import Deadline
from repro.service.pool import SupervisedPool

__all__ = ["ParallelWalkResult", "run_parallel_walk", "shard_config"]


@dataclass
class ParallelWalkResult:
    """Merged outcome of a sharded walk execution.

    ``metrics`` is one :class:`~repro.obs.MetricsRegistry`: the parent
    projects every shard's :class:`WalkStats` into it under
    ``shard=<i>``, beside the pool's own supervision counters.
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


def _run_shard(args):
    graph, program, shard_config_, deadline = args
    engine = WalkEngine(graph, program, shard_config_)
    result = engine.run(deadline=deadline)
    # Two packed buffers cross the pipe, not one small array per walker.
    packed = None if result.paths is None else engine._recorder.packed()
    return result.stats, packed, result.walkers.steps, result.status


def run_parallel_walk(
    graph: CSRGraph | PreparedGraph,
    program: WalkerProgram,
    config: WalkConfig | None = None,
    num_workers: int = 2,
    deadline: Deadline | float | None = None,
    shard_timeout: float | None = None,
    max_restarts: int = 2,
    retry_budget: RetryBudget | None = None,
) -> ParallelWalkResult:
    """Run a walk sharded across ``num_workers`` processes.

    With ``num_workers=1`` everything runs in-process (no pool), which
    is also the fallback used by tests on constrained platforms.

    ``deadline`` (a :class:`~repro.service.deadline.Deadline` or a
    float budget in seconds) propagates to every shard engine; the
    merged result is tagged ``deadline_exceeded`` if any shard stopped
    early.  ``shard_timeout`` is the supervision backstop: a shard
    exceeding it is terminated and raised as
    :class:`~repro.errors.WorkerError` (use a deadline for graceful
    partials, the timeout for runaway shards).  A shard whose worker
    *dies* is restarted up to ``max_restarts`` times (gated by the
    optional shared ``retry_budget``) before ``WorkerError`` is raised.
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

    if len(shards) == 1 or num_workers == 1:
        outputs = [_run_shard(payload) for payload in payloads]
    else:
        pool = SupervisedPool(
            max_workers=len(shards),
            task_timeout=shard_timeout,
            max_restarts=max_restarts,
            retry_budget=retry_budget,
            registry=registry,
        )
        outputs = pool.run(
            _run_shard,
            payloads,
            describe=lambda index: (
                f"shard {index} (seed {shards[index].seed})"
            ),
        )

    # The graph owner's live counters, not a worker's pickled copy.
    merged = WalkStats(maintenance=graph.maintenance)
    all_paths: list[np.ndarray] | None = [] if config.record_paths else None
    lengths = []
    status = "complete"
    for index, (stats, packed, steps, shard_status) in enumerate(outputs):
        stats.to_registry(registry, shard=str(index))
        merged.merge(stats)
        if all_paths is not None and packed is not None:
            all_paths.extend(split_paths(*packed))
        lengths.append(steps)
        if shard_status == "deadline_exceeded":
            status = "deadline_exceeded"

    return ParallelWalkResult(
        stats=merged,
        paths=all_paths,
        walk_lengths=np.concatenate(lengths),
        num_workers=len(shards),
        status=status,
        metrics=registry,
    )
