"""Walk checkpoint and resume.

Long walks (PPR with a heavy tail, |V| walkers on a large graph) want
fault tolerance: :func:`save_checkpoint` writes a running engine's run
state — its ``state_arrays()``: walkers and their custom state,
statistics, the RNG stream — plus the recorded paths into a single
``.npz``; :func:`restore_checkpoint` rebuilds an engine that continues
the walk *bit-identically* to an uninterrupted run (the
resume-determinism test asserts exactly that).

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
crashes, fault RNG stream).  In-flight retry queues are *by
construction* empty at every BSP barrier, so barrier-aligned
checkpoints never serialise undelivered messages.

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


def _cluster_extras(engine) -> dict:
    """What a distributed checkpoint stores beside the run state: the
    cluster's physical truths (liveness, owner table, superstep times,
    degraded nodes) and the fault plane's own state."""
    cluster = engine.cluster
    payload: dict[str, np.ndarray] = {
        "cluster_num_nodes": np.asarray([engine.num_nodes], dtype=np.int64),
        "cluster_alive_nodes": engine._alive_nodes,
        "cluster_owner_lookup": engine._owner_table,
        "cluster_executed_supersteps": np.asarray(
            [engine._executed_supersteps], dtype=np.int64
        ),
        "cluster_superstep_times": np.asarray(
            cluster.superstep_times, dtype=np.float64
        ),
        "cluster_degraded_nodes": np.asarray(
            cluster.recovery.degraded_nodes, dtype=np.int64
        ),
    }
    if engine.fault_plane is not None:
        payload.update(engine.fault_plane.state_dict())
    if engine.health is not None:
        payload.update(engine.health.state_arrays())
    if engine.rebalancer is not None:
        payload.update(engine.rebalancer.state_arrays())
    return payload


def save_checkpoint(engine: WalkEngine, path: str | os.PathLike) -> None:
    """Serialise the engine's dynamic state to ``path`` (.npz).

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
    payload = {"version": np.asarray([FORMAT_VERSION]), **engine.state_arrays()}
    if engine.graph_epoch is not None:
        # Dynamic-graph run: record the pinned epoch, so restore can
        # demand the same one (replayed from the write-ahead log).
        payload["graph_epoch"] = np.asarray([engine.graph_epoch], dtype=np.int64)
    if engine._recorder is not None:
        payload["path_tokens"], payload["path_counts"] = engine._recorder.packed()
    from repro.cluster.engine import DistributedWalkEngine

    if isinstance(engine, DistributedWalkEngine):
        payload.update(_cluster_extras(engine))
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


def _restore(engine: WalkEngine, data: dict, path) -> None:
    """Load the run state, the recorded paths and — into a distributed
    engine — the cluster extras."""
    try:
        engine.load_state_arrays(data)
        if engine._recorder is not None:
            if "path_tokens" not in data:
                raise SnapshotError(
                    "checkpoint lacks recorded paths but record_paths=True"
                )
            try:
                engine._recorder.restore(data["path_tokens"], data["path_counts"])
            except ValueError as exc:
                raise SnapshotError(
                    f"checkpoint paths do not match configuration: {exc}"
                ) from exc
        if "cluster_num_nodes" in data:
            _restore_cluster_extras(engine, data)
    except KeyError as exc:
        raise SnapshotError(f"malformed checkpoint {path}: {exc}") from exc


def _checked_owner_table(engine, table: np.ndarray) -> np.ndarray:
    """``table`` if it can be this graph's and the restored cluster's
    owner table, else :class:`SnapshotError` — its values index the
    per-node accounting arrays and become message endpoints."""
    if table.shape != engine._owner_table.shape or table.dtype.kind not in "iu":
        raise SnapshotError("checkpoint owner table does not match the graph")
    if table.size and not (0 <= table.min() and table.max() < engine.num_nodes):
        raise SnapshotError(
            f"checkpoint owner table names nodes outside [0, {engine.num_nodes})"
        )
    if not engine._alive_nodes[table].all():
        raise SnapshotError("checkpoint owner table assigns vertices to a dead node")
    return table


def _restore_cluster_extras(engine, data: dict) -> None:
    cluster = engine.cluster
    engine._alive_nodes[:] = data["cluster_alive_nodes"]
    engine._executed_supersteps = int(data["cluster_executed_supersteps"][0])
    cluster.superstep_times[:] = data["cluster_superstep_times"].tolist()
    cluster.recovery.degraded_nodes = data["cluster_degraded_nodes"].tolist()
    # Without the key the partition's own table stands — what a
    # run that never re-homed a vertex would have saved.
    engine._owner_table[:] = _checked_owner_table(
        engine, data.get("cluster_owner_lookup", engine._owner_table)
    )
    if engine.fault_plane is not None and "fault_rng_state" in data:
        engine.fault_plane.load_state(data)
    if engine.health is not None and "health_ewma" in data:
        engine.health.load_arrays(data)
    if engine.rebalancer is not None and "rebalance_nodes" in data:
        engine.rebalancer.load_arrays(data)


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
    number of nodes; pass ``fault_plan``/``retry_policy``/... through
    ``engine_kwargs`` to re-arm fault injection — the plane then resumes
    its recorded RNG stream, triggered-crash set, and delivery counters.
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
    _restore(engine, data, path)
    return engine
