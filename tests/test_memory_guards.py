"""Bytes a walk does not need, guarded: the adjacency index's build
transient, the recorded token matrix, the unweighted Ps, the width
of every edge-sized index array and what a dynamic graph keeps of its
superseded epochs.  Each guard names the allocation it bounds, so a
regression points at it."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec
from repro.baselines.mixed import MixedNode2Vec
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph import csr, load_dataset
from repro.graph.builder import assign_random_weights
from repro.graph.dynamic import DynamicGraph, generate_churn_batches
from repro.graph.generators import uniform_degree_graph
from repro.graph.prepared import prepare


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


@pytest.fixture(scope="module")
def twitter():
    return load_dataset("twitter", scale=1.0)


def test_edge_index_arrays_hold_four_bytes_per_entry(twitter):
    """CSR targets, alias indices, sorted adjacency keys and hash slots
    of twitter x1 (16 000 vertices, so keys fit as well)."""
    prepared = prepare(twitter)
    graph = prepared.graph
    keys = graph._edge_key_array()
    queries = np.arange(keys.size) % graph.num_vertices
    graph.has_edges_batch(queries, queries)  # bisected: pays for the hash
    graph.has_edges_batch(queries[:8], queries[:8])
    arrays = {
        "targets": graph.targets,
        "alias": prepared.tables("alias")._alias,
        "keys": keys,
        "hash": graph._key_hash[0],
    }
    assert keys.size == graph.num_edges >= 300_000
    widths = {name: array.itemsize for name, array in arrays.items()}
    assert widths == dict.fromkeys(arrays, 4)


def test_a_bisected_query_does_not_copy_the_keys(twitter):
    """Queries are cast to the keys' dtype: searching int32 keys for
    int64 queries would copy all of them on every call."""
    graph = csr.CSRGraph(twitter.offsets, twitter.targets)
    keys = graph._edge_key_array()
    sources = np.arange(64, dtype=np.int64)
    tracemalloc.start()
    try:
        graph.has_edges_batch(sources, sources + 1)
        graph.edge_span_batch(sources, sources + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph._key_hash is None and peak < keys.nbytes / 50


class MoveDtypes:
    def __init__(self):
        self.dtypes = set()

    def on_moves(self, walker_ids, targets):
        self.dtypes.update((walker_ids.dtype, targets.dtype))


@pytest.mark.parametrize("nodes", [0, 4])
def test_move_events_carry_int64_ids(nodes):
    """The graph stores int32 targets, but a move event hands on walker
    state: a tracer digests dtype and bytes, so its hashes stay put."""
    graph = uniform_degree_graph(300, 8, seed=3, undirected=True)
    config = WalkConfig(num_walkers=100, max_steps=10, seed=1)
    program = Node2Vec(p=2.0, q=0.5)
    if nodes:
        engine = DistributedWalkEngine(graph, program, config, num_nodes=nodes)
    else:
        engine = WalkEngine(graph, program, config)
    seen = MoveDtypes()
    engine.observe(seen)
    engine.run()
    assert graph.targets.dtype == np.int32
    assert seen.dtypes == {np.dtype(np.int64)}


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


@pytest.mark.parametrize("kind", ["alias"])
def test_unweighted_static_weights_own_no_edge_buffer(kind):
    graph = uniform_degree_graph(300, 8, seed=3, undirected=True)
    tables = prepare(graph).tables(kind)
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


def held_bytes(*roots) -> int:
    """Bytes of the distinct array buffers reachable from ``roots``
    through this package's objects, dicts, lists and tuples."""
    seen, buffers, stack = set(), {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return sum(buffers.values())


def test_a_dynamic_graph_keeps_nothing_per_superseded_epoch():
    """The owner holds its base, its newest epoch's CSR and tables and
    the delta buffer.  An epoch no walk holds costs it nothing: not its
    CSR, not a reverse delta of the slices its successor replaced."""
    graph = assign_random_weights(uniform_degree_graph(3000, 8, seed=5), seed=6)
    batches = generate_churn_batches(graph, num_epochs=12, updates_per_epoch=100, seed=7)
    dynamic = DynamicGraph(graph)
    csrs = []
    for batch in batches:
        dynamic.commit(batch)
        snapshot = dynamic.snapshot()
        snapshot.tables("alias")
        csrs.append(weakref.ref(snapshot.graph))
    del snapshot
    gc.collect()
    assert [ref() is None for ref in csrs] == [True] * 11 + [False]
    newest = dynamic.snapshot()
    parts = {
        "base": dynamic.base,
        "newest epoch": newest.graph,
        "delta buffer": dynamic._overlay,
        "tables": newest.tables("alias"),
        "touched sets": dynamic._touched_by_epoch,
    }
    kept, allowed = held_bytes(dynamic), held_bytes(*parts.values())
    sizes = {name: held_bytes(part) for name, part in parts.items()}
    assert kept <= allowed, f"the owner keeps {kept} B, its parts {sizes}"
