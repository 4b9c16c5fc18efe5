"""Golden digests of the walk loop, one per (workload, engine, kernel).

The values in ``GOLDEN`` were generated at the commit *before* the
walker-centric loop was deleted (PR 14), where every cell was measured
twice — once per loop — and the two sides were required to be equal.
They replace the step-vs-walker relational tests: the second side no
longer exists, so the surviving loop is held to the recorded stream
instead.  A digest covers the whole execution, not just its product:
the determinism sanitizer's rolling hash folds every RNG draw, walker
move/kill and message batch in order; the path digest covers what the
recorder kept; the counters are the exact work and message counts.

A distributed cell also pins the simulated *bill* — simulated seconds
(``float.hex``), superstep counts, per-node walker supersteps, bytes,
local deliveries and the per-kind message matrices — and two fault
cells (``FAULT_CELLS``) pin every delivery, health and recovery counter
of a chaotic and a degraded run.  Those were generated at the commit
before PR 17 rewrote the simulator's accounting: a faster simulator
must charge exactly what the slower one did.

The workload cells all walk an undirected, unweighted, degree-6 graph
with an unfolded node2vec — no dead end, no weight, no appendix — so
six ``BRANCH_CELLS`` run the two branches they leave dark: darts
landing in outlier appendices (folded node2vec on a weighted graph,
with and without main-region rejections beside them) and the dead-end
side of the Update stage (DeepWalk with a termination coin on a
directed graph with sinks), each local and 4-node.  They were generated
at the commit before PR 20 rewrote the kernel's lane bookkeeping, and
also pin the counters that prove the branch ran.

Six ``CHURN_CELLS`` walk a :class:`~repro.graph.dynamic.DynamicGraph`
after five committed epochs of inserts, deletes and reweights (one
snapshot skipped, one cell compacting mid-way, one walking a retained
superseded epoch) and also pin the epoch's CSR and alias-table bytes.
They were generated at 554ca43, the commit before PR 23 rewrote batch
staging, materialisation and table maintenance.

Every cell is measured once more on the *prepared* axis: two engines
built over one shared ``PreparedGraph`` must both reproduce the cell's
digest from tables built once — the same table, not a second one.

Two ``SHARD_CELLS`` walk through ``run_parallel_walk`` on two worker
processes — DeepWalk on the unweighted graph, biased node2vec on the
weighted one — and pin every path, the merged counters and the walk
lengths.  They were generated at bc5dfb9, the commit before sharded
walks got their tables from one build split across the workers.

A change that intentionally alters the RNG stream or the work counts
regenerates the table with ``python -m tests.test_golden_walks`` and
says so in its description.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster import (
    FaultPlan,
    MessageFaults,
    MessageKind,
    NodeCrash,
    NodeSlowdown,
    StragglerPolicy,
)
from repro.algorithms import DeepWalk, Node2Vec
from repro.core.config import WalkConfig
from repro.graph import prepared
from repro.graph.builder import assign_random_weights
from repro.graph.dynamic import DynamicGraph, generate_churn_batches
from repro.graph.generators import erdos_renyi_graph
from repro.lint.sanitizer import DeterminismTracer
from repro.parallel import run_parallel_walk
from tests.test_path_recording import (
    PLAIN,
    WORKLOADS,
    make_config,
    make_walk_engine,
)

# The five workloads cover static, trial-paced, fused, teleporting and
# unbounded walks; nodes=0 is the local engine.
CELLS = [
    (name, nodes, fused)
    for name in sorted(WORKLOADS)
    for nodes in (0, 4)
    for fused in (True, False)
]


def cell_id(cell) -> str:
    name, nodes, fused = cell
    where = f"{nodes}node" if nodes else "local"
    return f"{name}-{where}-{'fused' if fused else 'single'}"


def digest(engine) -> dict:
    """Run a fresh engine under the sanitizer's tracer and summarise."""
    tracer = DeterminismTracer()
    engine.observe(tracer)
    result = engine.run()
    paths = hashlib.blake2b(digest_size=16)
    for path in result.paths:
        paths.update(np.asarray(path, dtype=np.int64).tobytes())
        paths.update(b"|")
    stats = result.stats
    summary = {
        "rolling_hash": tracer.rolling_hash(),
        "paths": paths.hexdigest(),
        "total_steps": int(stats.total_steps),
        "trials": int(stats.counters.trials),
        "pd_evaluations": int(stats.counters.pd_evaluations),
        "full_scan_evaluations": int(stats.full_scan_evaluations),
        "messages_sent": int(stats.messages_sent),
    }
    cluster = getattr(result, "cluster", None)
    if cluster is not None:
        summary["trials_per_node"] = cluster.trials_per_node.tolist()
        summary["pd_evaluations_per_node"] = (
            cluster.pd_evaluations_per_node.tolist()
        )
        summary.update(bill(cluster))
    return summary


def bill(cluster) -> dict:
    """What the simulator charged: time, supersteps, traffic, and the
    fault-tolerance counters the run had."""
    network = cluster.network
    summary = {
        "simulated_seconds": float(cluster.simulated_seconds).hex(),
        "num_supersteps": cluster.num_supersteps,
        "light_mode_node_supersteps": int(cluster.light_mode_node_supersteps),
        "walker_supersteps_per_node": cluster.walker_supersteps_per_node.tolist(),
        "bytes": network.total_bytes(),
        "local_deliveries": network.local_deliveries(),
        "matrices": {
            kind.name: hashlib.blake2b(
                network.matrix(kind).astype(np.int64).tobytes(), digest_size=8
            ).hexdigest()
            for kind in MessageKind
        },
    }
    if cluster.delivery is not None:
        cluster.delivery.check_conservation()
        summary["recovery"] = _fields(cluster.recovery)
        summary["delivery"] = {
            kind.name: _fields(cluster.delivery.of(kind)) for kind in MessageKind
        }
    if cluster.health is not None:
        summary["health"] = _fields(cluster.health)
    return summary


def _fields(stats) -> dict:
    """Every dataclass field, floats as exact hex."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(stats).items()
    }


def workload_engine(cell, graph=None):
    """A fresh engine for one workload cell; ``graph`` substitutes a
    prepared graph for the workload's own CSR."""
    name, nodes, fused = cell
    make_program, own_graph, _ = WORKLOADS[name]
    return make_walk_engine(
        own_graph if graph is None else graph,
        make_program(),
        make_config(name),
        nodes=nodes,
        fuse_trials=fused,
    )


def measure(cell) -> dict:
    return digest(workload_engine(cell))


# Same seed and 4-node node2vec walk as the healthy cell, made long
# enough for checkpoints, a crash and a suspicion that clears.  "chaos":
# every message fault at once plus a restarting crash (rollback and
# replay).  "degraded": a node slows down then recovers — the health
# monitor, speculation and the rebalancer (out and back) all run — and
# while it is suspected another node dies for good, its vertices
# re-homed onto the survivors.
FAULT_CELLS = {
    "node2vec-4node-chaos": dict(
        fault_plan=FaultPlan(
            seed=9,
            crashes=(NodeCrash(superstep=7, node=1),),
            default_faults=MessageFaults(drop=0.1, duplicate=0.05, delay=0.1),
        ),
        checkpoint_every=4,
    ),
    "node2vec-4node-degraded": dict(
        fault_plan=FaultPlan(
            seed=9,
            crashes=(NodeCrash(superstep=12, node=2, restart=False),),
            default_faults=MessageFaults(drop=0.05),
            slowdowns=(
                NodeSlowdown(node=0, factor=6.0, start_superstep=4, end_superstep=16),
            ),
        ),
        checkpoint_every=5,
        degrade_on_crash=True,
        straggler_policy=StragglerPolicy(min_walkers=8),
    ),
}


def fault_engine(cell: str, graph=None):
    make_program, own_graph, _ = WORKLOADS["node2vec"]
    return make_walk_engine(
        own_graph if graph is None else graph,
        make_program(),
        make_config("node2vec", max_steps=40),
        nodes=4,
        **FAULT_CELLS[cell],
    )


def measure_fault(cell: str) -> dict:
    return digest(fault_engine(cell))


# name -> (program factory, graph, config).  1/p = 4 towers over the
# folded envelope max(1, 1/q), so darts land in the return edge's
# appendix; with q = 1 envelope and floor coincide and every main dart
# pre-accepts, with q = 0.5 main darts also evaluate Pd and get
# rejected beside the appendix ones.  A mean out-degree of 2 leaves
# about one vertex in seven a sink.
WEIGHTED = assign_random_weights(PLAIN, seed=3)
BOUNDED = WalkConfig(num_walkers=120, max_steps=12, seed=9, record_paths=True)
BRANCH_CELLS = {
    "node2vec-folded-weighted": (
        lambda: Node2Vec(p=0.25, q=1.0), WEIGHTED, BOUNDED
    ),
    "node2vec-folded-rejecting": (
        lambda: Node2Vec(p=0.25, q=0.5), WEIGHTED, BOUNDED
    ),
    "deepwalk-directed-sinks": (
        DeepWalk,
        erdos_renyi_graph(150, 2.0, seed=4),
        WalkConfig(
            num_walkers=120,
            max_steps=12,
            termination_probability=0.1,
            seed=9,
            record_paths=True,
        ),
    ),
}
BRANCH_IDS = [
    f"{name}-{where}" for name in sorted(BRANCH_CELLS) for where in ("local", "4node")
]


def branch_engine(cell: str, graph=None):
    name, where = cell.rsplit("-", 1)
    make_program, own_graph, config = BRANCH_CELLS[name]
    return make_walk_engine(
        own_graph if graph is None else graph,
        make_program(),
        config,
        nodes=0 if where == "local" else 4,
    )


def branch_digest(engine) -> dict:
    summary = digest(engine)
    summary["appendix_trials"] = int(engine.stats.counters.appendix_trials)
    summary["termination"] = _fields(engine.stats.termination)
    return summary


def measure_branch(cell: str) -> dict:
    return branch_digest(branch_engine(cell))


# Five epochs of churn on the weighted graph, 40 updates each (about
# 40% inserts, 30% deletes, 30% reweights), mirrored: it is undirected.
CHURN_BATCHES = generate_churn_batches(
    WEIGHTED, num_epochs=5, updates_per_epoch=40, seed=6
)


def churned(compact_after=None, hold=None):
    """``WEIGHTED`` after the five batches.  Every epoch but the second
    is snapshotted and its tables asked for, so epoch 3 is maintained
    across a skipped one; ``compact_after`` folds the overlay there.
    ``hold`` returns that epoch's snapshot instead, kept as a walk
    would keep it while the later epochs commit."""
    dynamic = DynamicGraph(WEIGHTED)
    dynamic.snapshot().tables("alias")
    held = None
    for epoch, batch in enumerate(CHURN_BATCHES, start=1):
        assert dynamic.commit(batch) == epoch
        if epoch != 2:
            snapshot = dynamic.snapshot()
            snapshot.tables("alias")
            held = snapshot if epoch == hold else held
        if epoch == compact_after:
            dynamic.compact()
    return dynamic if hold is None else held


# name -> (program factory, nodes, graph factory).  "superseded" walks
# a held epoch 3 after epochs 4 and 5 were committed and snapshotted.
CHURN_CELLS = {
    "deepwalk-churn-local": (DeepWalk, 0, churned),
    "deepwalk-churn-4node": (DeepWalk, 4, churned),
    "node2vec-churn-local": (lambda: Node2Vec(p=0.25, q=0.5), 0, churned),
    "node2vec-churn-4node": (lambda: Node2Vec(p=0.25, q=0.5), 4, churned),
    "node2vec-churn-compacted-local": (
        lambda: Node2Vec(p=0.25, q=0.5), 0, lambda: churned(compact_after=3)
    ),
    "node2vec-churn-superseded-4node": (
        lambda: Node2Vec(p=0.25, q=0.5), 4, lambda: churned(hold=3)
    ),
}


def _widened(array: np.ndarray) -> np.ndarray:
    return array.astype(np.int64) if array.dtype.kind in "iu" else array


def measure_churn(cell: str) -> dict:
    make_program, nodes, make_graph = CHURN_CELLS[cell]
    engine = make_walk_engine(make_graph(), make_program(), BOUNDED, nodes=nodes)
    summary = branch_digest(engine)
    summary["graph_epoch"] = engine.graph_epoch
    graph, tables = engine.graph, engine.tables
    for name, arrays in (
        ("csr", (graph.offsets, graph.targets, graph.weights)),
        ("tables", (tables.totals, tables._prob, tables._alias)),
    ):
        # Values, not storage widths: integer arrays hash as int64.
        summary[name] = hashlib.blake2b(
            b"".join(_widened(array).tobytes() for array in arrays), digest_size=16
        ).hexdigest()
    return summary


def biased_node2vec():
    return Node2Vec(p=0.25, q=0.5)  # biased: Ps is the edge weights


# name -> (program factory, graph, config), walked on two processes.
SHARD_CELLS = {
    "deepwalk-2shard": (DeepWalk, PLAIN, make_config("deepwalk")),
    "node2vec-biased-weighted-2shard": (biased_node2vec, WEIGHTED, BOUNDED),
}
# Host clocks differ run to run; the owner's counters are not the walk's.
UNPINNED_STATS = ("wall_time_seconds", "init_time_seconds", "maintenance")


def measure_shards(cell: str) -> dict:
    make_program, graph, config = SHARD_CELLS[cell]
    result = run_parallel_walk(graph, make_program(), config, num_workers=2)
    paths = hashlib.blake2b(digest_size=16)
    for path in result.paths:
        paths.update(np.asarray(path, dtype=np.int64).tobytes())
        paths.update(b"|")
    stats = _fields(result.stats)
    return {
        "status": result.status,
        "num_workers": result.num_workers,
        "paths": paths.hexdigest(),
        "walk_lengths": hashlib.blake2b(
            result.walk_lengths.astype(np.int64).tobytes(), digest_size=16
        ).hexdigest(),
        "stats": {k: v for k, v in stats.items() if k not in UNPINNED_STATS},
    }


GOLDEN: dict[str, dict] = {
    "deepwalk-local-fused": {
        "rolling_hash": "cf873d3a725b286f7266d3b97fc31df5",
        "paths": "c51d6f2ecc0772464f9f85f7f87fbd9b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "deepwalk-local-single": {
        "rolling_hash": "cf873d3a725b286f7266d3b97fc31df5",
        "paths": "c51d6f2ecc0772464f9f85f7f87fbd9b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "deepwalk-4node-fused": {
        "rolling_hash": "b051695ea735d17a4d340e30de5fc56e",
        "paths": "c51d6f2ecc0772464f9f85f7f87fbd9b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 1135,
        "trials_per_node": [355, 395, 358, 332],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.b7cb32eebfbbcp-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [392, 419, 388, 361],
        "bytes": 36320,
        "local_deliveries": 305,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "c925bf4315f4ddb6",
        },
    },
    "deepwalk-4node-single": {
        "rolling_hash": "b051695ea735d17a4d340e30de5fc56e",
        "paths": "c51d6f2ecc0772464f9f85f7f87fbd9b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 1135,
        "trials_per_node": [355, 395, 358, 332],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.b7cb32eebfbbcp-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [392, 419, 388, 361],
        "bytes": 36320,
        "local_deliveries": 305,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "c925bf4315f4ddb6",
        },
    },
    "metapath-local-fused": {
        "rolling_hash": "b19694eb1881457fa1b88f60c05f0d6d",
        "paths": "29ca5f06b4458f952e66c25084db2d4b",
        "total_steps": 1047,
        "trials": 9317,
        "pd_evaluations": 9317,
        "full_scan_evaluations": 600,
        "messages_sent": 0,
    },
    "metapath-local-single": {
        "rolling_hash": "7464b47ce5f205398580bbb896a63c76",
        "paths": "784084093b20781b7aa26a07d8db8c59",
        "total_steps": 1046,
        "trials": 9446,
        "pd_evaluations": 9446,
        "full_scan_evaluations": 649,
        "messages_sent": 0,
    },
    "metapath-4node-fused": {
        "rolling_hash": "fd16f20202b106821e7479a5f4391d62",
        "paths": "29ca5f06b4458f952e66c25084db2d4b",
        "total_steps": 1047,
        "trials": 9317,
        "pd_evaluations": 9317,
        "full_scan_evaluations": 600,
        "messages_sent": 803,
        "trials_per_node": [3064, 2073, 1963, 2217],
        "pd_evaluations_per_node": [3315, 2175, 2060, 2367],
        "simulated_seconds": "0x1.3bea3bf3762edp-10",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [322, 300, 272, 273],
        "bytes": 25696,
        "local_deliveries": 244,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "d0d894525e0ec0aa",
        },
    },
    "metapath-4node-single": {
        "rolling_hash": "b6dc880ada23c517067c76187463540d",
        "paths": "784084093b20781b7aa26a07d8db8c59",
        "total_steps": 1046,
        "trials": 9446,
        "pd_evaluations": 9446,
        "full_scan_evaluations": 649,
        "messages_sent": 804,
        "trials_per_node": [2897, 2085, 2521, 1943],
        "pd_evaluations_per_node": [3111, 2207, 2701, 2076],
        "simulated_seconds": "0x1.3ac44c1fbe365p-10",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [319, 304, 291, 252],
        "bytes": 25728,
        "local_deliveries": 242,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "7e9110a366d1c3bd",
        },
    },
    "node2vec-local-fused": {
        "rolling_hash": "d1a68d16d0e314654d4eb06f9dd179e8",
        "paths": "1b3cab8274870f5911b6c98a94e8611e",
        "total_steps": 1440,
        "trials": 1699,
        "pd_evaluations": 1264,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "node2vec-local-single": {
        "rolling_hash": "d1a68d16d0e314654d4eb06f9dd179e8",
        "paths": "1b3cab8274870f5911b6c98a94e8611e",
        "total_steps": 1440,
        "trials": 1699,
        "pd_evaluations": 1264,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "node2vec-4node-fused": {
        "rolling_hash": "f0ce6a6a0a2bc25143c5e032612504ee",
        "paths": "1b3cab8274870f5911b6c98a94e8611e",
        "total_steps": 1440,
        "trials": 1699,
        "pd_evaluations": 1264,
        "full_scan_evaluations": 0,
        "messages_sent": 2665,
        "trials_per_node": [441, 444, 441, 373],
        "pd_evaluations_per_node": [329, 323, 343, 269],
        "simulated_seconds": "0x1.c845a9826fdc5p-11",
        "num_supersteps": 20,
        "light_mode_node_supersteps": 80,
        "walker_supersteps_per_node": [462, 486, 466, 405],
        "bytes": 66752,
        "local_deliveries": 757,
        "matrices": {
            "STATE_QUERY": "331038991179b903",
            "QUERY_RESPONSE": "9f97d371425c531d",
            "WALKER_MIGRATE": "9a29c9897df6e270",
        },
    },
    "node2vec-4node-single": {
        "rolling_hash": "f0ce6a6a0a2bc25143c5e032612504ee",
        "paths": "1b3cab8274870f5911b6c98a94e8611e",
        "total_steps": 1440,
        "trials": 1699,
        "pd_evaluations": 1264,
        "full_scan_evaluations": 0,
        "messages_sent": 2665,
        "trials_per_node": [441, 444, 441, 373],
        "pd_evaluations_per_node": [329, 323, 343, 269],
        "simulated_seconds": "0x1.c845a9826fdc5p-11",
        "num_supersteps": 20,
        "light_mode_node_supersteps": 80,
        "walker_supersteps_per_node": [462, 486, 466, 405],
        "bytes": 66752,
        "local_deliveries": 757,
        "matrices": {
            "STATE_QUERY": "331038991179b903",
            "QUERY_RESPONSE": "9f97d371425c531d",
            "WALKER_MIGRATE": "9a29c9897df6e270",
        },
    },
    "ppr-local-fused": {
        "rolling_hash": "604b0c90ff97c5b1b4dcdffa3cd18f6b",
        "paths": "c99c5f18156848f10c45434880aa7f39",
        "total_steps": 996,
        "trials": 996,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "ppr-local-single": {
        "rolling_hash": "604b0c90ff97c5b1b4dcdffa3cd18f6b",
        "paths": "c99c5f18156848f10c45434880aa7f39",
        "total_steps": 996,
        "trials": 996,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "ppr-4node-fused": {
        "rolling_hash": "94fa395f2ad662486b986cf92bf2ab78",
        "paths": "c99c5f18156848f10c45434880aa7f39",
        "total_steps": 996,
        "trials": 996,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 765,
        "trials_per_node": [279, 247, 250, 220],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.86653462324f3p-11",
        "num_supersteps": 40,
        "light_mode_node_supersteps": 160,
        "walker_supersteps_per_node": [305, 281, 280, 250],
        "bytes": 24480,
        "local_deliveries": 231,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "e80cdbed2c8fdbc8",
        },
    },
    "ppr-4node-single": {
        "rolling_hash": "94fa395f2ad662486b986cf92bf2ab78",
        "paths": "c99c5f18156848f10c45434880aa7f39",
        "total_steps": 996,
        "trials": 996,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 765,
        "trials_per_node": [279, 247, 250, 220],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.86653462324f3p-11",
        "num_supersteps": 40,
        "light_mode_node_supersteps": 160,
        "walker_supersteps_per_node": [305, 281, 280, 250],
        "bytes": 24480,
        "local_deliveries": 231,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "e80cdbed2c8fdbc8",
        },
    },
    "rwr-local-fused": {
        "rolling_hash": "3675a7df3711860d3d9b430e5465982e",
        "paths": "b36f13f10d3f26f4efd58cbf6a7253d5",
        "total_steps": 1440,
        "trials": 992,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "rwr-local-single": {
        "rolling_hash": "3675a7df3711860d3d9b430e5465982e",
        "paths": "b36f13f10d3f26f4efd58cbf6a7253d5",
        "total_steps": 1440,
        "trials": 992,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
    },
    "rwr-4node-fused": {
        "rolling_hash": "598b11701379209de9f43f020b37ef01",
        "paths": "b36f13f10d3f26f4efd58cbf6a7253d5",
        "total_steps": 1440,
        "trials": 992,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 999,
        "trials_per_node": [294, 273, 260, 165],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.b58760dce49cfp-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [441, 433, 416, 270],
        "bytes": 31968,
        "local_deliveries": 441,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "137a5e0f70e8e1be",
        },
    },
    "rwr-4node-single": {
        "rolling_hash": "598b11701379209de9f43f020b37ef01",
        "paths": "b36f13f10d3f26f4efd58cbf6a7253d5",
        "total_steps": 1440,
        "trials": 992,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 999,
        "trials_per_node": [294, 273, 260, 165],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.b58760dce49cfp-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [441, 433, 416, 270],
        "bytes": 31968,
        "local_deliveries": 441,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "137a5e0f70e8e1be",
        },
    },
    "node2vec-4node-chaos": {
        "rolling_hash": "1df07c7ba6a639e5f92422aca6593a09",
        "paths": "b5bb945c517cad40e5e375ca54105160",
        "total_steps": 4800,
        "trials": 5439,
        "pd_evaluations": 4070,
        "full_scan_evaluations": 0,
        "messages_sent": 9244,
        "trials_per_node": [1383, 1352, 1429, 1275],
        "pd_evaluations_per_node": [1020, 1000, 1077, 973],
        "simulated_seconds": "0x1.8db6b62087260p-8",
        "num_supersteps": 56,
        "light_mode_node_supersteps": 212,
        "walker_supersteps_per_node": [1412, 1381, 1456, 1310],
        "bytes": 229712,
        "local_deliveries": 2666,
        "matrices": {
            "STATE_QUERY": "bd71fb736f7e242e",
            "QUERY_RESPONSE": "924a37477e91e191",
            "WALKER_MIGRATE": "007c61138ecca864",
        },
        "recovery": {
            "crashes": 1,
            "restarts": 1,
            "checkpoints_taken": 14,
            "replayed_supersteps": 3,
            "degraded_nodes": [],
            "recovery_seconds": "0x1.92a737110e454p-17",
        },
        "delivery": {
            "STATE_QUERY": {
                "logical": 2940,
                "transmissions": 3309,
                "retransmissions": 369,
                "drops": 354,
                "duplicates": 152,
                "delays": 351,
                "arrivals": 3107,
                "accepts": 2940,
                "dedups": 167,
            },
            "QUERY_RESPONSE": {
                "logical": 2940,
                "transmissions": 3276,
                "retransmissions": 336,
                "drops": 326,
                "duplicates": 160,
                "delays": 341,
                "arrivals": 3110,
                "accepts": 2940,
                "dedups": 170,
            },
            "WALKER_MIGRATE": {
                "logical": 3982,
                "transmissions": 4427,
                "retransmissions": 445,
                "drops": 429,
                "duplicates": 218,
                "delays": 462,
                "arrivals": 4216,
                "accepts": 3982,
                "dedups": 234,
            },
        },
    },
    "node2vec-4node-degraded": {
        "rolling_hash": "be12e40d50224bb2a4fddbf243590ea8",
        "paths": "b5bb945c517cad40e5e375ca54105160",
        "total_steps": 4800,
        "trials": 5439,
        "pd_evaluations": 4070,
        "full_scan_evaluations": 0,
        "messages_sent": 8413,
        "trials_per_node": [1279, 1956, 346, 1858],
        "pd_evaluations_per_node": [931, 1459, 272, 1408],
        "simulated_seconds": "0x1.21c65e9e50e29p-8",
        "num_supersteps": 55,
        "light_mode_node_supersteps": 169,
        "walker_supersteps_per_node": [1309, 1997, 346, 1907],
        "bytes": 209960,
        "local_deliveries": 3607,
        "matrices": {
            "STATE_QUERY": "3b4f54c7185473f5",
            "QUERY_RESPONSE": "20a91332cecdc82e",
            "WALKER_MIGRATE": "af3dc59cb416b403",
        },
        "recovery": {
            "crashes": 1,
            "restarts": 0,
            "checkpoints_taken": 11,
            "replayed_supersteps": 2,
            "degraded_nodes": [2],
            "recovery_seconds": "0x1.92a737110e454p-17",
        },
        "delivery": {
            "STATE_QUERY": {
                "logical": 2584,
                "transmissions": 2703,
                "retransmissions": 119,
                "drops": 119,
                "duplicates": 0,
                "delays": 0,
                "arrivals": 2584,
                "accepts": 2584,
                "dedups": 0,
            },
            "QUERY_RESPONSE": {
                "logical": 2584,
                "transmissions": 2725,
                "retransmissions": 141,
                "drops": 141,
                "duplicates": 0,
                "delays": 0,
                "arrivals": 2584,
                "accepts": 2584,
                "dedups": 0,
            },
            "WALKER_MIGRATE": {
                "logical": 3632,
                "transmissions": 3913,
                "retransmissions": 281,
                "drops": 194,
                "duplicates": 0,
                "delays": 0,
                "arrivals": 3719,
                "accepts": 3632,
                "dedups": 87,
            },
        },
        "health": {
            "suspect_events": 1,
            "clear_events": 1,
            "suspected_supersteps": 14,
            "phi_max": "0x1.d9441d6054994p+6",
            "speculations": 14,
            "speculation_wins": 11,
            "speculative_copies": 87,
            "rebalances": 12,
            "migrated_walkers": 95,
            "restored_walkers": 24,
        },
    },
    "deepwalk-directed-sinks-local": {
        "rolling_hash": "ae0f23f30d80595628dfdf4ef635c49c",
        "paths": "c86b6abca8ee24bc8e29638976f205fb",
        "total_steps": 354,
        "trials": 354,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 0,
        "termination": {
            "by_step_limit": 6,
            "by_probability": 40,
            "by_dead_end": 74,
        },
    },
    "deepwalk-directed-sinks-4node": {
        "rolling_hash": "a186485762c29020462d5234a335fad1",
        "paths": "c86b6abca8ee24bc8e29638976f205fb",
        "total_steps": 354,
        "trials": 354,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 266,
        "trials_per_node": [115, 90, 72, 77],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.0cafe6b8056a7p-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [158, 116, 96, 104],
        "bytes": 8512,
        "local_deliveries": 88,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "dac56e56b3c03e97",
        },
        "appendix_trials": 0,
        "termination": {
            "by_step_limit": 6,
            "by_probability": 40,
            "by_dead_end": 74,
        },
    },
    "node2vec-folded-rejecting-local": {
        "rolling_hash": "1eda7790ab12ba0993f8bd2eecd27101",
        "paths": "fdb079224a8de1d2523ab5373367aaa8",
        "total_steps": 1440,
        "trials": 1625,
        "pd_evaluations": 852,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 114,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
    },
    "node2vec-folded-rejecting-4node": {
        "rolling_hash": "2686a4b244a687865313420c3366ddf5",
        "paths": "fdb079224a8de1d2523ab5373367aaa8",
        "total_steps": 1440,
        "trials": 1625,
        "pd_evaluations": 852,
        "full_scan_evaluations": 0,
        "messages_sent": 1950,
        "trials_per_node": [429, 398, 449, 349],
        "pd_evaluations_per_node": [229, 213, 244, 166],
        "simulated_seconds": "0x1.79ad15217a4e3p-11",
        "num_supersteps": 20,
        "light_mode_node_supersteps": 80,
        "walker_supersteps_per_node": [468, 425, 470, 382],
        "bytes": 52536,
        "local_deliveries": 560,
        "matrices": {
            "STATE_QUERY": "cb3b972d8dea57f4",
            "QUERY_RESPONSE": "073786802bac034a",
            "WALKER_MIGRATE": "799f807785f8c27b",
        },
        "appendix_trials": 114,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
    },
    "node2vec-folded-weighted-local": {
        "rolling_hash": "76ac33385546d4b04024d26eaa24ea27",
        "paths": "d46cc7af998a5f35166ebb6f52ff723b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 302,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 302,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
    },
    "node2vec-folded-weighted-4node": {
        "rolling_hash": "b0fccd8dcd6d7576ea817afe407654cf",
        "paths": "d46cc7af998a5f35166ebb6f52ff723b",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 302,
        "full_scan_evaluations": 0,
        "messages_sent": 1103,
        "trials_per_node": [414, 372, 359, 295],
        "pd_evaluations_per_node": [85, 70, 76, 71],
        "simulated_seconds": "0x1.c960dc8eb6bcap-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [443, 398, 389, 330],
        "bytes": 35296,
        "local_deliveries": 337,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "3a6e994bfa5425e0",
        },
        "appendix_trials": 302,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
    },
    "deepwalk-churn-local": {
        "rolling_hash": "a1d50351940c9539df73c86b72293ae2",
        "paths": "65650f3de463824b9735f25c78e30b13",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 0,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 5,
        "csr": "6da0958c5b5c044e1d79742cfdae6594",
        "tables": "b7244fd9aaed1ab6da0ff7b447d478c0",
    },
    "deepwalk-churn-4node": {
        "rolling_hash": "a88234ebeb4ff4e352f4d611e6f8a0af",
        "paths": "65650f3de463824b9735f25c78e30b13",
        "total_steps": 1440,
        "trials": 1440,
        "pd_evaluations": 0,
        "full_scan_evaluations": 0,
        "messages_sent": 1133,
        "trials_per_node": [389, 344, 380, 327],
        "pd_evaluations_per_node": [0, 0, 0, 0],
        "simulated_seconds": "0x1.b625c15aa8c30p-12",
        "num_supersteps": 13,
        "light_mode_node_supersteps": 52,
        "walker_supersteps_per_node": [425, 375, 399, 361],
        "bytes": 36256,
        "local_deliveries": 307,
        "matrices": {
            "STATE_QUERY": "2ca5d3f9f96a9545",
            "QUERY_RESPONSE": "2ca5d3f9f96a9545",
            "WALKER_MIGRATE": "e32469acdbbdd064",
        },
        "appendix_trials": 0,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 5,
        "csr": "6da0958c5b5c044e1d79742cfdae6594",
        "tables": "b7244fd9aaed1ab6da0ff7b447d478c0",
    },
    "node2vec-churn-local": {
        "rolling_hash": "570bda7fa6e2c1bc906c21db247a093c",
        "paths": "eb86d81b91fa5426ab1846c960ab8a98",
        "total_steps": 1440,
        "trials": 1609,
        "pd_evaluations": 837,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 115,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 5,
        "csr": "6da0958c5b5c044e1d79742cfdae6594",
        "tables": "b7244fd9aaed1ab6da0ff7b447d478c0",
    },
    "node2vec-churn-4node": {
        "rolling_hash": "d2a1d1cb92c20953a7ea1ddeebadda3d",
        "paths": "eb86d81b91fa5426ab1846c960ab8a98",
        "total_steps": 1440,
        "trials": 1609,
        "pd_evaluations": 837,
        "full_scan_evaluations": 0,
        "messages_sent": 1984,
        "trials_per_node": [449, 413, 378, 369],
        "pd_evaluations_per_node": [241, 222, 190, 184],
        "simulated_seconds": "0x1.76c2d4fc46371p-11",
        "num_supersteps": 19,
        "light_mode_node_supersteps": 76,
        "walker_supersteps_per_node": [483, 448, 393, 405],
        "bytes": 53456,
        "local_deliveries": 512,
        "matrices": {
            "STATE_QUERY": "ebdb5dca8cb63566",
            "QUERY_RESPONSE": "4d4f6e6cdbbb8d96",
            "WALKER_MIGRATE": "550e34ff806d7332",
        },
        "appendix_trials": 115,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 5,
        "csr": "6da0958c5b5c044e1d79742cfdae6594",
        "tables": "b7244fd9aaed1ab6da0ff7b447d478c0",
    },
    "node2vec-churn-compacted-local": {
        "rolling_hash": "570bda7fa6e2c1bc906c21db247a093c",
        "paths": "eb86d81b91fa5426ab1846c960ab8a98",
        "total_steps": 1440,
        "trials": 1609,
        "pd_evaluations": 837,
        "full_scan_evaluations": 0,
        "messages_sent": 0,
        "appendix_trials": 115,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 5,
        "csr": "6da0958c5b5c044e1d79742cfdae6594",
        "tables": "b7244fd9aaed1ab6da0ff7b447d478c0",
    },
    "node2vec-churn-superseded-4node": {
        "rolling_hash": "7159f37dd847792e09c5973c6f7c845d",
        "paths": "8bde9f3314c384992b6cb7b2fd468986",
        "total_steps": 1440,
        "trials": 1606,
        "pd_evaluations": 854,
        "full_scan_evaluations": 0,
        "messages_sent": 2004,
        "trials_per_node": [454, 398, 424, 330],
        "pd_evaluations_per_node": [248, 208, 224, 174],
        "simulated_seconds": "0x1.94c57468dd8f0p-11",
        "num_supersteps": 24,
        "light_mode_node_supersteps": 96,
        "walker_supersteps_per_node": [489, 421, 458, 358],
        "bytes": 53640,
        "local_deliveries": 538,
        "matrices": {
            "STATE_QUERY": "e9208bca738f627c",
            "QUERY_RESPONSE": "bcfc38c314f65ab3",
            "WALKER_MIGRATE": "f845e2e04590deb8",
        },
        "appendix_trials": 111,
        "termination": {
            "by_step_limit": 120,
            "by_probability": 0,
            "by_dead_end": 0,
        },
        "graph_epoch": 3,
        "csr": "570f4e54724fc6ba7092751dfebf1164",
        "tables": "ca6265a7f19b02b4823b298cf01a4bf4",
    },
    "deepwalk-2shard": {
        "status": "complete",
        "num_workers": 2,
        "paths": "342c34122b004c8dc98f1e747098ce6a",
        "walk_lengths": "3b95ca56faf897dfce774b336083d3d3",
        "stats": {
            "counters": {
                "trials": 1440,
                "pd_evaluations": 0,
                "pre_accepts": 1440,
                "appendix_trials": 0,
                "accepts": 1440,
            },
            "termination": {"by_step_limit": 120, "by_probability": 0, "by_dead_end": 0},
            "total_steps": 1440,
            "teleports": 0,
            "iterations": 13,
            "active_per_iteration": [120] * 13,
            "full_scan_evaluations": 0,
            "messages_sent": 0,
            "graph_epoch": None,
        },
    },
    "node2vec-biased-weighted-2shard": {
        "status": "complete",
        "num_workers": 2,
        "paths": "40b69f890f802e1149717827e6a5819a",
        "walk_lengths": "3b95ca56faf897dfce774b336083d3d3",
        "stats": {
            "counters": {
                "trials": 1587,
                "pd_evaluations": 860,
                "pre_accepts": 727,
                "appendix_trials": 135,
                "accepts": 1440,
            },
            "termination": {"by_step_limit": 120, "by_probability": 0, "by_dead_end": 0},
            "total_steps": 1440,
            "teleports": 0,
            "iterations": 18,
            "active_per_iteration": [120] * 13 + [80, 39, 17, 8, 3],
            "full_scan_evaluations": 0,
            "messages_sent": 0,
            "graph_epoch": None,
        },
    },
}


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_walk_reproduces_golden_digest(cell):
    assert measure(cell) == GOLDEN[cell_id(cell)]


@pytest.mark.parametrize("cell", sorted(FAULT_CELLS))
def test_faulty_run_reproduces_golden_bill(cell):
    assert measure_fault(cell) == GOLDEN[cell]


@pytest.mark.parametrize("cell", BRANCH_IDS)
def test_dark_branch_reproduces_golden_digest(cell):
    golden = GOLDEN[cell]
    assert measure_branch(cell) == golden
    if cell.startswith("node2vec"):
        assert golden["appendix_trials"] > 0
    else:
        assert golden["termination"]["by_dead_end"] > 0


@pytest.mark.parametrize("cell", sorted(CHURN_CELLS))
def test_walk_after_churn_reproduces_golden_digest(cell):
    assert measure_churn(cell) == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(SHARD_CELLS))
def test_sharded_walk_reproduces_golden_digest(cell):
    assert measure_shards(cell) == GOLDEN[cell]


# The prepared axis: every cell again, twice, through one PreparedGraph.
# name -> (engine factory, its cell, the cell's digest function).
PREPARED_CELLS = {cell_id(cell): (workload_engine, cell, digest) for cell in CELLS}
PREPARED_CELLS.update((cell, (fault_engine, cell, digest)) for cell in FAULT_CELLS)
PREPARED_CELLS.update((cell, (branch_engine, cell, branch_digest)) for cell in BRANCH_IDS)


@pytest.mark.parametrize("name", sorted(PREPARED_CELLS))
def test_prepared_graph_shared_by_two_engines(name, monkeypatch):
    """An engine is a PreparedGraph plus run state: two engines over
    one prepared graph both reproduce the cell's digest from tables
    built once.  (Every cell's program samples the default static
    component; ``tests/test_engine.py`` covers a program with its own.)"""
    make, cell, summarise = PREPARED_CELLS[name]
    plain = make(cell)
    built = []

    def counting(*args, build=prepared.VertexAliasTables):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(prepared, "VertexAliasTables", counting)
    shared = prepared.PreparedGraph(plain.graph)
    first, second = make(cell, shared), make(cell, shared)
    assert built == [(plain.graph,)]
    assert first.tables is second.tables is shared.tables("alias")
    assert first.graph is second.graph is plain.graph
    assert summarise(first) == summarise(second) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    table = {cell_id(cell): measure(cell) for cell in CELLS}
    table.update({cell: measure_fault(cell) for cell in sorted(FAULT_CELLS)})
    table.update({cell: measure_branch(cell) for cell in BRANCH_IDS})
    table.update({cell: measure_churn(cell) for cell in sorted(CHURN_CELLS)})
    table.update({cell: measure_shards(cell) for cell in sorted(SHARD_CELLS)})
    pprint.pprint(table, width=100, sort_dicts=False)
