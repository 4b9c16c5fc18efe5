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

A change that intentionally alters the RNG stream or the work counts
regenerates the table with ``python -m tests.test_golden_walks`` and
says so in its description.
"""

import hashlib

import numpy as np
import pytest

from repro.lint.sanitizer import DeterminismTracer
from tests.test_path_recording import WORKLOADS, make_engine

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
    return summary


def measure(cell) -> dict:
    name, nodes, fused = cell
    return digest(make_engine(name, nodes=nodes, fuse_trials=fused))


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
    },
    "metapath-local-fused": {
        "rolling_hash": "9a242f68f44a4f9510ae9c868992609c",
        "paths": "7d282827675678fd1786fd027d6c44bf",
        "total_steps": 1027,
        "trials": 9024,
        "pd_evaluations": 9024,
        "full_scan_evaluations": 623,
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
        "rolling_hash": "c039fb1127c87f4a1f5978cea2736e21",
        "paths": "7d282827675678fd1786fd027d6c44bf",
        "total_steps": 1027,
        "trials": 9024,
        "pd_evaluations": 9024,
        "full_scan_evaluations": 623,
        "messages_sent": 797,
        "trials_per_node": [3115, 1603, 2236, 2070],
        "pd_evaluations_per_node": [3394, 1635, 2372, 2246],
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
    },
}


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_walk_reproduces_golden_digest(cell):
    assert measure(cell) == GOLDEN[cell_id(cell)]


if __name__ == "__main__":
    import pprint

    pprint.pprint({cell_id(cell): measure(cell) for cell in CELLS}, width=100)
