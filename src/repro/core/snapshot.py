"""Walk checkpoint and resume.

Long walks (PPR with a heavy tail, |V| walkers on a large graph) want
fault tolerance: :func:`save_checkpoint` writes what a running engine
says a checkpoint holds — its ``checkpoint_arrays()``: the run state
(walkers and their custom state, statistics, the RNG stream), the
pinned graph epoch and the recorded paths — into a single ``.npz``;
:func:`restore_checkpoint` rebuilds an engine that continues the walk
*bit-identically* to an uninterrupted run (the resume-determinism test
asserts exactly that).  The engine owns the contents; this module owns
only the file format, the epoch check and engine construction.

Format (version 4): every payload array is covered by a CRC32 recorded
in the file; a truncated, corrupted, or version-skewed checkpoint
raises :class:`~repro.errors.SnapshotError` instead of surfacing a raw
numpy/zipfile traceback.  Recorded paths are the recorder's packed
``(tokens, counts)`` pair.  Every array is plain numbers: counters are
the stats classes' own ``pack()`` (validated by ``unpack()``), RNG
streams are six ``uint64`` words.  Version 3 stored RNG streams as
pickles, so reading one means unpickling file content — it is refused,
like version 2 (a per-iteration move log) before it.

A :class:`~repro.cluster.engine.DistributedWalkEngine`'s run state
already carries its per-node and network counters; its file adds the
physical truths a rollback never touches — owner table, node liveness,
superstep times, the fault plane's state (delivery counters, triggered
crashes, fault RNG stream), the health monitor's and the rebalancer's —
and its in-memory recovery point, so a resumed fault run replays a
later crash from where the uninterrupted run would.  In-flight retry
queues are *by construction* empty at every BSP barrier, so
barrier-aligned checkpoints never serialise undelivered messages.

Graph, program, config — and for distributed engines the fault plan —
are not serialised: they are reproducible inputs the caller passes
again at restore time, as with every checkpointing system that
separates immutable datasets from mutable state.
"""

from __future__ import annotations

import os

import numpy as np

from repro._npz import (
    ChecksumError,
    UnreadableNpz,
    read_members,
    save_checked,
    verify_checksum,
)
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import WalkerProgram
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.graph.csr import CSRGraph

__all__ = ["save_checkpoint", "restore_checkpoint", "checkpoint_epoch"]

FORMAT_VERSION = 4


def save_checkpoint(engine: WalkEngine, path: str | os.PathLike) -> None:
    """Serialise the engine's ``checkpoint_arrays()`` to ``path`` (.npz).

    Works for both the local :class:`WalkEngine` and the distributed
    :class:`~repro.cluster.engine.DistributedWalkEngine` (which must be
    paused at a superstep boundary, i.e. between ``run`` calls — the
    only place its state is observable anyway).
    """
    if engine.config.stream_paths_to is not None:
        raise SnapshotError(
            "checkpointing is not supported with streaming path output "
            "(already-spilled sequences cannot be captured)"
        )
    payload = {"version": np.asarray([FORMAT_VERSION]), **engine.checkpoint_arrays()}
    save_checked(path, payload, np.uint64)


def _verify_and_load(path: str | os.PathLike) -> dict:
    """Read a checkpoint into memory, verifying version and checksum."""
    try:
        arrays = read_members(path)
    except FileNotFoundError as exc:
        raise SnapshotError(f"unreadable checkpoint {path}: {exc}") from exc
    except UnreadableNpz as exc:
        raise SnapshotCorruptError(
            f"unreadable checkpoint {path}: {exc}"
        ) from exc
    if "version" not in arrays or "checksum" not in arrays:
        raise SnapshotError(f"malformed checkpoint {path}: missing header")
    version = int(arrays["version"][0])
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})"
        )
    try:
        verify_checksum(arrays)
    except ChecksumError as exc:
        raise SnapshotCorruptError(
            f"corrupt checkpoint {path}: payload checksum mismatch"
        ) from exc
    return arrays


def checkpoint_epoch(path: str | os.PathLike) -> int | None:
    """The dynamic-graph epoch a checkpoint was taken at (None if the
    run used a plain static graph).

    Recovery flow for dynamic graphs: read this first, rebuild the
    graph state with ``DynamicGraph.recover(base, wal, replay_to=e)``,
    then :func:`restore_checkpoint` against that instance.
    """
    data = _verify_and_load(path)
    if "graph_epoch" not in data:
        return None
    return int(data["graph_epoch"][0])


def restore_checkpoint(
    graph: CSRGraph,
    program: WalkerProgram,
    config: WalkConfig,
    path: str | os.PathLike,
    **engine_kwargs,
) -> WalkEngine:
    """Rebuild an engine from a checkpoint; ``run()`` continues it.

    ``graph``, ``program``, and ``config`` must be the ones the
    checkpointed engine was constructed with (the static state is
    re-derived from them; only dynamic state is loaded).  A checkpoint
    taken from a distributed engine restores a
    :class:`~repro.cluster.engine.DistributedWalkEngine` on the same
    number of nodes; pass ``fault_plan``/``checkpoint_every``/... through
    ``engine_kwargs`` to re-arm fault injection — the plane then resumes
    its recorded RNG stream, triggered-crash set, and delivery counters,
    and a later crash replays from the recorded recovery point.
    """
    data = _verify_and_load(path)
    if "graph_epoch" in data:
        wanted = int(data["graph_epoch"][0])
        # A DynamicGraph or a pinned epoch says which epoch it is at; a
        # static graph (CSR or prepared) has none.
        actual = getattr(graph, "epoch", None)
        if actual != wanted:
            raise SnapshotError(
                f"checkpoint was taken at graph epoch {wanted}, but the "
                f"supplied graph is at "
                f"{'a static graph' if actual is None else f'epoch {actual}'}; "
                f"rebuild it with DynamicGraph.recover(base, wal, "
                f"replay_to={wanted})"
            )
    if "cluster_num_nodes" in data:
        from repro.cluster.engine import DistributedWalkEngine

        num_nodes = int(data["cluster_num_nodes"][0])
        requested = engine_kwargs.pop("num_nodes", None)
        if requested is not None and requested != num_nodes:
            raise SnapshotError(
                f"checkpoint was taken on {num_nodes} nodes, not {requested}"
            )
        engine = DistributedWalkEngine(
            graph, program, config, num_nodes=num_nodes, **engine_kwargs
        )
    elif engine_kwargs:
        raise SnapshotError(
            "engine options are only meaningful for distributed checkpoints"
        )
    else:
        engine = WalkEngine(graph, program, config)
    try:
        engine.load_checkpoint_arrays(data)
    except KeyError as exc:
        raise SnapshotError(f"malformed checkpoint {path}: {exc}") from exc
    return engine
