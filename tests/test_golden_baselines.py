"""Golden digests of the baseline engines and of graph construction.

``BASELINE_GOLDEN`` pins the two comparison systems — the full-scan
engine and random-walk-adapted Gemini — on the two dynamic workloads
whose scans matter: biased node2vec on a weighted graph, and Meta-path
with walkers killed at scheme dead ends.  A cell holds the path digest
and every work and termination counter (Gemini's also the per-node Pd
attribution, the message count and the simulated seconds).

``GRAPH_GOLDEN`` pins every array of graphs built through each
construction route: the weighted dataset stand-ins, power-law weights,
random edge types, ``from_edges`` / ``GraphBuilder`` with self-loops,
anti-parallel duplicates and mixed attributes, and the bibliographic
graph.

Both tables were generated at 77f6620, the commit before the baselines
drew through the engine's full-scan kernel and graph construction went
through one CSR constructor and one per-edge draw.  A change that means
to alter one regenerates them with ``python -m tests.test_golden_baselines``
and says so in its description.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import MetaPathWalk, Node2Vec
from repro.algorithms.metapath import random_schemes
from repro.baselines import FullScanWalkEngine, GeminiWalkEngine
from repro.core.config import WalkConfig
from repro.graph import load_dataset
from repro.graph.builder import (
    GraphBuilder,
    assign_power_law_weights,
    assign_random_weights,
    from_edges,
)
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types, bibliographic_graph

WALK_GRAPH = load_dataset("livejournal", scale=0.05, weighted=True)
TYPED_GRAPH = assign_random_edge_types(
    load_dataset("livejournal", scale=0.05), num_types=5, seed=3
)
CONFIG = WalkConfig(num_walkers=400, max_steps=20, seed=5, record_paths=True)

WORKLOADS = {
    "node2vec-weighted": (
        lambda: Node2Vec(p=2.0, q=0.5, biased=True),
        WALK_GRAPH,
    ),
    "metapath-dead-ends": (
        lambda: MetaPathWalk(random_schemes(10, 5, 5, seed=2)),
        TYPED_GRAPH,
    ),
}
ENGINES = {
    "fullscan": lambda graph, program: FullScanWalkEngine(graph, program, CONFIG),
    "gemini": lambda graph, program: GeminiWalkEngine(
        graph, program, CONFIG, num_nodes=4
    ),
}
BASELINE_CELLS = [f"{engine}-{work}" for engine in ENGINES for work in WORKLOADS]


def measure_baseline(cell: str) -> dict:
    engine_name, workload = cell.split("-", 1)
    make_program, graph = WORKLOADS[workload]
    result = ENGINES[engine_name](graph, make_program()).run()
    paths = hashlib.blake2b(digest_size=16)
    for path in result.paths:
        paths.update(np.asarray(path, dtype=np.int64).tobytes())
        paths.update(b"|")
    stats = result.stats
    summary = {
        "paths": paths.hexdigest(),
        "total_steps": int(stats.total_steps),
        "pd_evaluations": int(stats.counters.pd_evaluations),
        "trials": int(stats.counters.trials),
        "accepts": int(stats.counters.accepts),
        "by_step_limit": int(stats.termination.by_step_limit),
        "by_probability": int(stats.termination.by_probability),
        "by_dead_end": int(stats.termination.by_dead_end),
    }
    cluster = getattr(result, "cluster", None)
    if cluster is not None:
        summary["pd_evaluations_per_node"] = cluster.pd_evaluations_per_node.tolist()
        summary["messages_sent"] = int(stats.messages_sent)
        summary["simulated_seconds"] = float(cluster.simulated_seconds).hex()
    return summary


def _builder_graph(undirected: bool):
    """Self-loops, anti-parallel and repeated edges, weights and types on
    some edges only, and vertex types."""
    builder = GraphBuilder(5, undirected=undirected)
    builder.add_edge(0, 1, weight=2.0, edge_type=1)
    builder.add_edge(1, 0, weight=3.0)
    builder.add_edge(2, 2, edge_type=2)
    builder.add_edge(0, 1, weight=0.5, edge_type=3)
    builder.add_edge(3, 1)
    builder.add_edge(1, 3, weight=4.0, edge_type=0)
    builder.add_edge(4, 4, weight=1.5)
    builder.add_edges([(2, 0), (0, 2, 6.0), (2, 0, 7.0)])
    builder.set_vertex_types([0, 1, 1, 0, 2])
    return builder.build()


GRAPHS = {
    **{
        f"{name}-weighted": lambda name=name: load_dataset(
            name, scale=0.1, weighted=True
        )
        for name in ("livejournal", "twitter", "friendster")
    },
    "random-weights-directed": lambda: assign_random_weights(
        uniform_degree_graph(300, 6, seed=1), seed=4
    ),
    **{
        f"power-law-{exponent}-{kind}": lambda exponent=exponent, undirected=(
            kind == "undirected"
        ): assign_power_law_weights(
            uniform_degree_graph(300, 6, seed=2, undirected=undirected),
            seed=6,
            max_weight=50.0,
            exponent=exponent,
        )
        for exponent in (1.0, 2.0)
        for kind in ("undirected", "directed")
    },
    **{
        f"edge-types-{kind}": lambda undirected=(kind == "undirected"): (
            assign_random_edge_types(
                assign_random_weights(
                    uniform_degree_graph(300, 6, seed=3, undirected=undirected),
                    seed=8,
                ),
                num_types=5,
                seed=9,
            )
        )
        for kind in ("undirected", "directed")
    },
    "from-edges-undirected": lambda: from_edges(
        4, [(0, 1), (1, 0), (2, 2), (0, 1), (3, 2), (1, 3)], undirected=True
    ),
    "from-edges-directed-weighted": lambda: from_edges(
        4, [(0, 1, 2.0), (1, 0, 1.0), (2, 2, 3.0), (0, 1, 4.0)]
    ),
    "builder-undirected": lambda: _builder_graph(undirected=True),
    "builder-directed": lambda: _builder_graph(undirected=False),
    "bibliographic": lambda: bibliographic_graph(40, 120, 3, 4, seed=5),
}


def measure_graph(cell: str) -> dict:
    graph = GRAPHS[cell]()
    summary = {"undirected": graph.is_undirected}
    for column in ("offsets", "targets", "weights", "edge_types", "vertex_types"):
        array = getattr(graph, column)
        summary[column] = (
            None
            if array is None
            else f"{array.dtype.str}:{hashlib.sha256(array.tobytes()).hexdigest()}"
        )
    return summary


BASELINE_GOLDEN: dict[str, dict] = {
    "fullscan-node2vec-weighted": {
        "paths": "31a7510770cbe045f861b725bd3a7acc",
        "total_steps": 8000,
        "pd_evaluations": 174816,
        "trials": 8000,
        "accepts": 8000,
        "by_step_limit": 400,
        "by_probability": 0,
        "by_dead_end": 0,
    },
    "fullscan-metapath-dead-ends": {
        "paths": "729135e4886814e319e752e916ea6cf3",
        "total_steps": 5585,
        "pd_evaluations": 125268,
        "trials": 5785,
        "accepts": 5585,
        "by_step_limit": 200,
        "by_probability": 0,
        "by_dead_end": 200,
    },
    "gemini-node2vec-weighted": {
        "paths": "31a7510770cbe045f861b725bd3a7acc",
        "total_steps": 8000,
        "pd_evaluations": 174816,
        "trials": 8000,
        "accepts": 8000,
        "by_step_limit": 400,
        "by_probability": 0,
        "by_dead_end": 0,
        "pd_evaluations_per_node": [42857, 44027, 44237, 43695],
        "messages_sent": 82607,
        "simulated_seconds": "0x1.ef16a3b073d0cp-7",
    },
    "gemini-metapath-dead-ends": {
        "paths": "729135e4886814e319e752e916ea6cf3",
        "total_steps": 5585,
        "pd_evaluations": 125268,
        "trials": 5785,
        "accepts": 5585,
        "by_step_limit": 200,
        "by_probability": 0,
        "by_dead_end": 200,
        "pd_evaluations_per_node": [30779, 31741, 31288, 31460],
        "messages_sent": 58961,
        "simulated_seconds": "0x1.6670e2c12ad81p-7",
    },
}

GRAPH_GOLDEN: dict[str, dict] = {
    "bibliographic": {
        "undirected": False,
        "offsets": "<i8:07f2fa5a8ad52a5f899a89c72e3ced36ca097e9f8452d2c8f100c3d02893045b",
        "targets": "<i4:a100398027ef0ff7830f667fe60ee621d4a8745ca787a349c18c1138f6d8dffb",
        "weights": None,
        "edge_types": "<i4:7bb384e88f22ebc7749afcc9319f09c712b068b54ba4b443eda719fe9616672e",
        "vertex_types": "<i4:1ed20c0c154b41136ae99e77a51fa5df9b8927eae4ffe4693a4d7884d3b5e409",
    },
    "builder-directed": {
        "undirected": False,
        "offsets": "<i8:404b6cb83aaca646b9e6ca510589e7729e3d400a36bafb8888c960f66a7cc9b9",
        "targets": "<i4:8be98b24b71c7a8947246f998e7dc405761762bdf3c6f7adc32c8bbe530791b9",
        "weights": "<f8:6bbc8ba84baa086f62421606bb020a644e6b7bba2908dc1e20f9bddb49eecda1",
        "edge_types": "<i4:0956bd01eb8855e7477f606eed43044c798448cc61f86fb4b47bafc6f8b1d927",
        "vertex_types": "<i4:a3897a2d8d46428d0c8bd185f972903dc8b4ba4e916d6c75f89c3aebe4b72007",
    },
    "builder-undirected": {
        "undirected": True,
        "offsets": "<i8:cf9c321b2e34445d38be282bde10d27daa65f23683d76102c327bbdd88807a98",
        "targets": "<i4:1fc1cb5583497d25899bc8177bafd3495aa01aa2e146b7d9024897bee49b61ee",
        "weights": "<f8:77da5314e3245b27ff584a645cffe4640fafd914b6a99a0bfade84533eba00a3",
        "edge_types": "<i4:936c96433cf28d0643c3c5000f41206e8cb8ebf489fe9505ab574c7543cce12d",
        "vertex_types": "<i4:a3897a2d8d46428d0c8bd185f972903dc8b4ba4e916d6c75f89c3aebe4b72007",
    },
    "edge-types-directed": {
        "undirected": False,
        "offsets": "<i8:2e2f8d88a263303ed7791d2c35a37cd2874483a8244b2465eb8722058ff6a5ca",
        "targets": "<i4:3c003b1024afbb6df773e0535d2e024839d91eadd19729e7dbfec4078d94ec95",
        "weights": "<f8:f4f596480afb30c2ac3ea6006bf54bffeac1592feffe46c63ed21fb0d83ba9b2",
        "edge_types": "<i4:14e644edac553c10c0a196502cede01da67c0fbe45c313f447dac1854292ee92",
        "vertex_types": None,
    },
    "edge-types-undirected": {
        "undirected": True,
        "offsets": "<i8:f8bc802db47c595b00b44367f9c46eafe8586f727dca3fe1a8cd606ce2293734",
        "targets": "<i4:3d5a44a8e2fa9253a1b8f49e139d001c4f71b4c70b234fcd5df73a104248b666",
        "weights": "<f8:19472c2ad64d45d4e5486e78ef55a8fed68b27bbbeb19f9afdc43f21fa2cf48a",
        "edge_types": "<i4:e7e1006665d20e176818a0adb00c9927b3287c00a43f72bc63f3946fb7b70988",
        "vertex_types": None,
    },
    "friendster-weighted": {
        "undirected": True,
        "offsets": "<i8:aac78b76d80c755fcb5195f18ff2c5306413e1d59e926ab559daf70a11bb15ad",
        "targets": "<i4:25a47534fcc5e6162e0b38b284cca94346da548ba24dee6b601fc95d477323a4",
        "weights": "<f8:6fb5eacc8546324c2d0065763198f427d5834e60040b8ca1466bcb08de3a9615",
        "edge_types": None,
        "vertex_types": None,
    },
    "from-edges-directed-weighted": {
        "undirected": False,
        "offsets": "<i8:27098572cf381ab56089dcf649229be79f933488f29c100124f35b32cdbb1617",
        "targets": "<i4:a45c72ee5c46d6b8872ca4a5f594dca64b919e36a87a5d659b0f7217afdf2531",
        "weights": "<f8:a515ae0734222e99c66e172d9788287da429c821d5f32759a1314250f7cc86b1",
        "edge_types": None,
        "vertex_types": None,
    },
    "from-edges-undirected": {
        "undirected": True,
        "offsets": "<i8:78a208720e82f8bf6e97e98c94d397bfcff1b16d355ec84e04ec3c91aea520b5",
        "targets": "<i4:aa0d49ad034d95079b9bb1518c15f37b7eea60f4b1fb7400baeec2127388124b",
        "weights": None,
        "edge_types": None,
        "vertex_types": None,
    },
    "livejournal-weighted": {
        "undirected": True,
        "offsets": "<i8:d95d6dbdf80906aec01982fd8d5f0253eb24289be496a2d7b61375f37d739f7c",
        "targets": "<i4:9136596896ccf94836350b35a270b9abdc7615f76921b5286453184fe7982d28",
        "weights": "<f8:715ea5f56fc4d37d54cffd55de199d4c635dc3e0239f0c56650a0835a12985d5",
        "edge_types": None,
        "vertex_types": None,
    },
    "power-law-1.0-directed": {
        "undirected": False,
        "offsets": "<i8:2e2f8d88a263303ed7791d2c35a37cd2874483a8244b2465eb8722058ff6a5ca",
        "targets": "<i4:eaf47d45f77d0e55372d68f904bc6c25da8a046d7d90baec820330d61bc949c4",
        "weights": "<f8:ae3e2d401b9cb2f6b412ccf1390dcc71f4826818d957dd91d10d7aebf688c847",
        "edge_types": None,
        "vertex_types": None,
    },
    "power-law-1.0-undirected": {
        "undirected": True,
        "offsets": "<i8:f10c3d46a7bef481079fc1fbf49f18c27e2d1c898aa56a8a2ae596d1350214b0",
        "targets": "<i4:125010227f5ea640793c046a0cdb69797cd16700f81a12af74d4e6abaa50814f",
        "weights": "<f8:f3008ea25b87dfa84f4ba88c95e2196c71b24fb80fca6aa380598d631f99d86c",
        "edge_types": None,
        "vertex_types": None,
    },
    "power-law-2.0-directed": {
        "undirected": False,
        "offsets": "<i8:2e2f8d88a263303ed7791d2c35a37cd2874483a8244b2465eb8722058ff6a5ca",
        "targets": "<i4:eaf47d45f77d0e55372d68f904bc6c25da8a046d7d90baec820330d61bc949c4",
        "weights": "<f8:b34ff595a2236f28af97fa90bd10523ae28c1d79745a439acb7fdea74b9849c7",
        "edge_types": None,
        "vertex_types": None,
    },
    "power-law-2.0-undirected": {
        "undirected": True,
        "offsets": "<i8:f10c3d46a7bef481079fc1fbf49f18c27e2d1c898aa56a8a2ae596d1350214b0",
        "targets": "<i4:125010227f5ea640793c046a0cdb69797cd16700f81a12af74d4e6abaa50814f",
        "weights": "<f8:5b028a5d5623970667f42c00866f7709d7c590440c70f7b4d887b113b8bfafdd",
        "edge_types": None,
        "vertex_types": None,
    },
    "random-weights-directed": {
        "undirected": False,
        "offsets": "<i8:2e2f8d88a263303ed7791d2c35a37cd2874483a8244b2465eb8722058ff6a5ca",
        "targets": "<i4:2a5a33cb25191c1ebdcead8ea84aa8d30e221f438f4b1a5a98cdecf91231f183",
        "weights": "<f8:a664f79c2f2c05f495cec14ab818cef6079e46cbd6be92bac03a61d7488dde2f",
        "edge_types": None,
        "vertex_types": None,
    },
    "twitter-weighted": {
        "undirected": True,
        "offsets": "<i8:cca4f13b5b1d62af408708fa1bad9716aafc7f7c865b5bd13b323d91f62516fc",
        "targets": "<i4:5e7f76f5f5f8d13c55e8424239db1feca120deb94e2c8461688295e4766f3cc3",
        "weights": "<f8:fe0d4fae5f3db211ba8e1a530a3192861420d6205be1ada904cb8ab6e467ab3e",
        "edge_types": None,
        "vertex_types": None,
    },
}


@pytest.mark.parametrize("cell", BASELINE_CELLS)
def test_baseline_reproduces_golden_digest(cell):
    golden = BASELINE_GOLDEN[cell]
    assert measure_baseline(cell) == golden
    if cell.endswith("metapath-dead-ends"):
        assert golden["by_dead_end"] > 0


@pytest.mark.parametrize("cell", sorted(GRAPHS))
def test_graph_construction_reproduces_golden_arrays(cell):
    assert measure_graph(cell) == GRAPH_GOLDEN[cell]


if __name__ == "__main__":
    import pprint

    print("BASELINE_GOLDEN = ", end="")
    pprint.pprint(
        {cell: measure_baseline(cell) for cell in BASELINE_CELLS},
        width=100,
        sort_dicts=False,
    )
    print("\nGRAPH_GOLDEN = ", end="")
    pprint.pprint(
        {cell: measure_graph(cell) for cell in sorted(GRAPHS)},
        width=100,
        sort_dicts=False,
    )
