"""Operating long walks: parallel sharding and checkpoint/resume.

Production walk jobs (|V| walkers x hundreds of steps) want two
operational features beyond a single blocking run:

* **parallelism** — walkers never interact, so sharding them across
  worker processes is exact (`repro.parallel`).  It pays off for
  *scalar* custom programs (one Python call per trial); the built-in
  algorithms' vectorised kernels are usually faster than any amount of
  multiprocessing;
* **fault tolerance** — a long walk can be checkpointed mid-flight and
  resumed bit-identically (`repro.core.snapshot`).

This example runs the same PPR workload three ways — single engine,
4-way parallel, and interrupted+resumed — and shows all three agree.

Run with:  python examples/large_scale_operations.py
"""

import multiprocessing
import os
import tempfile
import time

import numpy as np

from repro import WalkConfig, WalkEngine, WalkerProgram
from repro.algorithms import PPR
from repro.core.snapshot import restore_checkpoint, save_checkpoint
from repro.graph import friendster_like
from repro.parallel import run_parallel_walk


class ScalarUniformWalk(WalkerProgram):
    """A custom program with no batch hooks: the engine runs it one
    Python call per trial, the regime where process sharding shines."""

    name = "scalar-uniform"


def main() -> None:
    graph = friendster_like(scale=0.25)
    print(f"graph: {graph}")
    config = WalkConfig(
        num_walkers=graph.num_vertices,
        max_steps=None,
        termination_probability=1.0 / 80.0,
        seed=11,
    )

    # 1. Baseline: one engine, one process, scalar program.
    started = time.perf_counter()
    single = WalkEngine(graph, ScalarUniformWalk(), config).run()
    single_seconds = time.perf_counter() - started
    print(
        f"\nsingle engine:   {single.stats.total_steps:,} steps, "
        f"mean length {single.walk_lengths.mean():.1f}, "
        f"{single_seconds:.2f}s"
    )

    # 2. Parallel: the same scalar workload sharded across workers.
    workers = min(4, multiprocessing.cpu_count())
    started = time.perf_counter()
    parallel = run_parallel_walk(
        graph, ScalarUniformWalk(), config, num_workers=workers
    )
    parallel_seconds = time.perf_counter() - started
    print(
        f"{workers}-way parallel:  {parallel.stats.total_steps:,} steps, "
        f"mean length {parallel.walk_lengths.mean():.1f}, "
        f"{parallel_seconds:.2f}s ({single_seconds / parallel_seconds:.1f}x; "
        f"this machine exposes {multiprocessing.cpu_count()} CPU core(s))"
    )

    # 3. Fault tolerance: interrupt after 40 iterations, checkpoint,
    #    resume in a fresh engine, finish the walk (back on the fast
    #    vectorised PPR program).
    engine = WalkEngine(graph, PPR(), config)
    engine.run(max_iterations=40)
    active_at_interrupt = engine.walkers.num_active
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = os.path.join(scratch, "walk.npz")
        save_checkpoint(engine, checkpoint)
        size_kb = os.path.getsize(checkpoint) / 1024
        resumed_engine = restore_checkpoint(graph, PPR(), config, checkpoint)
        resumed = resumed_engine.run()
    print(
        f"resumed run:     {resumed.stats.total_steps:,} steps "
        f"(interrupted with {active_at_interrupt:,} walkers active; "
        f"checkpoint {size_kb:.0f} KiB)"
    )

    # All three executions sample the same law: compare mean lengths.
    lengths = np.array(
        [
            single.walk_lengths.mean(),
            parallel.walk_lengths.mean(),
            resumed.walk_lengths.mean(),
        ]
    )
    spread = lengths.max() - lengths.min()
    print(
        f"\nmean walk lengths across executions: "
        f"{lengths.round(2).tolist()} (spread {spread:.2f}) — "
        "same distribution, three operating modes."
    )


if __name__ == "__main__":
    main()
