"""Bytes a walk does not need, guarded: the adjacency index's build
transient, the recorded token matrix and the unweighted Ps.  Each
guard names the allocation it bounds, so a regression points at it."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec
from repro.baselines.mixed import MixedNode2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph import csr, load_dataset
from repro.graph.builder import assign_random_weights
from repro.graph.generators import uniform_degree_graph
from repro.graph.prepared import build_tables


def test_key_hash_build_peaks_near_the_table_it_keeps():
    """Keys go in chunk by chunk, so no |E|-sized deduplicated copy,
    slot or probe array sits beside the table."""
    keys = load_dataset("twitter", scale=1.0)._edge_key_array()
    assert keys.size >= 300_000
    tracemalloc.start()
    try:
        table, _ = csr._build_key_hash(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


def test_a_bounded_recorded_walk_holds_four_bytes_per_token():
    walkers, length = 500, 30
    graph = uniform_degree_graph(400, 6, seed=1, undirected=True)
    config = WalkConfig(
        num_walkers=walkers, max_steps=length, record_paths=True, seed=2
    )
    engine = WalkEngine(graph, DeepWalk(), config)
    tokens, _ = engine._recorder.packed()
    assert tokens.nbytes == 4 * walkers * (length + 1)
    paths = engine.run().paths
    assert all(path.base is tokens for path in paths)


def zero_stride(array: np.ndarray) -> bool:
    return array.strides == (0,) and not array.flags.writeable


@pytest.mark.parametrize("kind", ["alias", "its"])
def test_unweighted_static_weights_own_no_edge_buffer(kind):
    graph = uniform_degree_graph(300, 8, seed=3, undirected=True)
    tables = build_tables(graph, kind)
    assert tables.static_weights.size == graph.num_edges
    assert zero_stride(tables.static_weights)


@pytest.mark.parametrize(
    "program", [Node2Vec(biased=False), MixedNode2Vec(p=2.0, q=0.5)], ids=repr
)
def test_an_all_ones_program_ps_is_one_view(program):
    """Even over a weighted graph, a program that ignores the weights
    hands the engine ones that take no memory."""
    graph = assign_random_weights(uniform_degree_graph(300, 8, seed=3), seed=4)
    engine = WalkEngine(graph, program, WalkConfig(num_walkers=50, max_steps=5))
    assert zero_stride(engine.tables.static_weights)
    engine.run()
