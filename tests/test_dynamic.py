"""Dynamic graphs: epochs, WAL recovery, incremental sampler upkeep.

The load-bearing test here is the seed-swept property test: a random
sequence of insert/delete/reweight epochs (with compaction interleaved)
must leave the dynamic graph *bit-identical* to a from-scratch
:func:`~repro.graph.builder.from_arrays` build of the surviving edge
list — CSR arrays, alias tables, ITS tables, and Q(v)/L(v) bound
arrays alike.  Everything else (epoch pinning in both engine modes,
the cluster simulator, the service, checkpoints, the sanitizer's
per-epoch certification) rides on that equivalence.
"""

import bisect
import copy
import gc
import hashlib
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec, UniformWalk
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import WalkerProgram
from repro.core.snapshot import (
    checkpoint_epoch,
    restore_checkpoint,
    save_checkpoint,
)
from repro.errors import GraphError, ServiceError, SnapshotError, WalError
from repro.graph.builder import assign_random_weights, from_arrays, from_edges
from repro.graph.dynamic import (
    DynamicGraph,
    EdgeUpdate,
    UpdateBatch,
    generate_churn_batches,
    parse_update_stream,
)
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.graph.prepared import PreparedGraph
from repro.lint.sanitizer import run_sanitized
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables
from repro.service import WalkRequest, WalkService
from tests.test_dynamic_chaos import churn_graph
from tests.test_golden_walks import digest as golden_digest


def small_graph(seed=3, num_vertices=40, weighted=True):
    graph = erdos_renyi_graph(num_vertices, 5.0, seed=seed)
    return assign_random_weights(graph, seed=seed + 1) if weighted else graph


def edge_list(graph):
    """The graph's edges as a CSR-ordered [(s, t, w), ...] list."""
    degrees = np.diff(graph.offsets)
    sources = np.repeat(np.arange(graph.num_vertices), degrees)
    weights = (
        graph.weights
        if graph.weights is not None
        else np.ones(graph.num_edges)
    )
    return [
        (int(s), int(t), float(w))
        for s, t, w in zip(sources, graph.targets, weights)
    ]


# ----------------------------------------------------------------------
# Update batches and the update-stream grammar
# ----------------------------------------------------------------------
class TestUpdateBatch:
    def test_roundtrip(self):
        updates = [
            EdgeUpdate("insert", 0, 1, 2.5),
            EdgeUpdate("delete", 3, 4),
            EdgeUpdate("reweight", 5, 6, 0.25, edge_type=2),
        ]
        batch = UpdateBatch.from_updates(updates)
        assert len(batch) == 3
        restored = UpdateBatch.from_bytes(batch.to_bytes())
        assert list(restored.updates()) == updates

    def test_bad_kind_rejected(self):
        with pytest.raises(GraphError):
            EdgeUpdate("frobnicate", 0, 1)

    def test_truncated_blob_rejected(self):
        blob = UpdateBatch.from_updates([EdgeUpdate("insert", 0, 1)]).to_bytes()
        with pytest.raises(WalError):
            UpdateBatch.from_bytes(blob[:-3])

    def test_parse_update_stream(self):
        lines = [
            "# comment",
            "insert 0 1 2.0",
            "delete 2 3",
            "commit",
            "reweight 4 5 0.5",
            "commit",
        ]
        batches = parse_update_stream(lines)
        assert [len(b) for b in batches] == [2, 1]
        assert batches[0].updates()[0] == EdgeUpdate("insert", 0, 1, 2.0)

    def test_parse_update_stream_bad_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_update_stream(["insert 0 1", "frobnicate 1 2"])


# ----------------------------------------------------------------------
# Commit semantics
# ----------------------------------------------------------------------
class TestCommit:
    def test_insert_visible_in_next_snapshot(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1), (1, 2)]))
        before = dyn.snapshot()
        assert dyn.commit([EdgeUpdate("insert", 0, 3)]) == 1
        after = dyn.snapshot()
        assert not before.graph.has_edge(0, 3)  # snapshot isolation
        assert after.graph.has_edge(0, 3)
        assert after.epoch == before.epoch + 1

    def test_delete_missing_edge_is_atomic(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1), (1, 2)]))
        batch = [EdgeUpdate("insert", 0, 2), EdgeUpdate("delete", 2, 3)]
        with pytest.raises(GraphError, match="delete of missing edge"):
            dyn.commit(batch)
        # Staging failed before anything was installed: no partial epoch.
        assert dyn.epoch == 0
        assert not dyn.snapshot().graph.has_edge(0, 2)

    def test_rejected_batch_leaves_no_flag_behind(self):
        """Staging used to mark the graph weighted as it went, so the
        epoch *after* a rejected batch materialised a weights array."""
        dyn = DynamicGraph(from_edges(4, [(0, 1), (1, 2)]))
        assert dyn.base.weights is None
        rejected = [EdgeUpdate("insert", 0, 2, 2.5), EdgeUpdate("delete", 0, 3)]
        with pytest.raises(GraphError, match="delete of missing edge 0->3"):
            dyn.commit(rejected)
        assert dyn.epoch == 0
        dyn.commit([EdgeUpdate("insert", 0, 2, edge_type=0)])
        graph = dyn.snapshot().graph
        assert graph.weights is None and graph.edge_types is None
        # ...and an accepted one still turns it weighted / typed.
        dyn.commit([EdgeUpdate("insert", 0, 3, 2.5, edge_type=1)])
        graph = dyn.snapshot().graph
        assert graph.weights.tolist() == [1.0, 1.0, 2.5, 1.0]
        assert graph.edge_types.tolist() == [0, 0, 1, 0]

    def test_reweight_missing_edge_raises(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1)]))
        with pytest.raises(GraphError, match="reweight of missing edge"):
            dyn.commit([EdgeUpdate("reweight", 1, 0, 2.0)])

    def test_endpoint_out_of_range(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1)]))
        with pytest.raises(GraphError):
            dyn.commit([EdgeUpdate("insert", 0, 4)])

    def test_bad_weight_rejected(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1)]))
        with pytest.raises(GraphError):
            dyn.commit([EdgeUpdate("insert", 0, 2, float("nan"))])
        with pytest.raises(GraphError):
            dyn.commit([EdgeUpdate("insert", 0, 2, -1.0)])

    def test_undirected_mirrors_both_directions(self):
        base = from_edges(4, [(0, 1), (1, 2)], undirected=True)
        dyn = DynamicGraph(base)
        dyn.commit([EdgeUpdate("insert", 0, 3, 2.5)])
        graph = dyn.snapshot().graph
        assert graph.has_edge(0, 3) and graph.has_edge(3, 0)
        dyn.commit([EdgeUpdate("delete", 3, 0)])
        graph = dyn.snapshot().graph
        assert not graph.has_edge(0, 3) and not graph.has_edge(3, 0)

    def test_stats_conservation(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1), (1, 2)]))
        dyn.commit([EdgeUpdate("insert", 0, 2), EdgeUpdate("reweight", 0, 1, 3.0)])
        dyn.commit([EdgeUpdate("delete", 1, 2)])
        stats = dyn.stats
        assert stats.epochs_committed == 2
        assert stats.updates_submitted == 3
        assert stats.inserts_applied == 1
        assert stats.deletes_applied == 1
        assert stats.reweights_applied == 1
        assert stats.conservation_balanced()

    def test_snapshot_at_retention_window(self):
        dyn = DynamicGraph(from_edges(4, [(0, 1)]), retain_epochs=2)
        for _ in range(4):
            dyn.commit([EdgeUpdate("reweight", 0, 1, 2.0)])
            dyn.snapshot()  # materialize so the epoch enters retention
        assert dyn.snapshot_at(4).epoch == 4
        assert dyn.snapshot_at(3).epoch == 3
        with pytest.raises(GraphError, match="replay_to"):
            dyn.snapshot_at(1)

    def test_snapshot_at_says_why_an_epoch_is_missing(self):
        """Every missing epoch used to point at ``replay_to``, which
        cannot reach a future epoch or one before the base either."""
        dyn = DynamicGraph(from_edges(4, [(0, 1)]), retain_epochs=2, base_epoch=3)
        for _ in range(3):
            dyn.commit([EdgeUpdate("reweight", 0, 1, 2.0)])
            dyn.snapshot()
        assert dyn.snapshot_at(5).epoch == 5
        with pytest.raises(GraphError, match="epoch 7 is not committed yet"):
            dyn.snapshot_at(7)
        with pytest.raises(GraphError, match="epoch 2 is before this graph's base"):
            dyn.snapshot_at(2)
        with pytest.raises(GraphError, match="epoch 4 is not retained.*replay_to"):
            dyn.snapshot_at(4)


# ----------------------------------------------------------------------
# Property test: epochs + compaction == from-scratch build
# ----------------------------------------------------------------------
def assert_tables_identical(ours, reference):
    """Exact (bit-level) equality of two sampler-table objects: the
    per-edge arrays the class declares, whatever is derived from them,
    and the typed tables' grouped layout."""
    assert type(ours) is type(reference)
    compared = 0
    for attr in (*getattr(type(ours), "_PER_EDGE", ()), "_totals", "_base",
                 "_running", "_static", "_flat_edges", "_flat_prob",
                 "_flat_alias", "_group_start", "_group_count"):
        mine = getattr(ours, attr, None)
        theirs = getattr(reference, attr, None)
        assert (mine is None) == (theirs is None), attr
        if mine is not None:
            np.testing.assert_array_equal(mine, theirs, err_msg=attr)
            compared += 1
    assert compared >= 2  # the helper must actually compare something


class _ModelGraph:
    """Sorted-edge-list oracle mirroring DynamicGraph's semantics."""

    def __init__(self, graph):
        self.num_vertices = graph.num_vertices
        self.edges = edge_list(graph)
        self.keys = [(s, t) for s, t, _ in self.edges]

    def apply(self, update):
        key = (update.source, update.target)
        if update.kind == "insert":
            # After equal keys: matches the builder's stable lexsort.
            pos = bisect.bisect_right(self.keys, key)
            self.keys.insert(pos, key)
            self.edges.insert(pos, (*key, update.weight))
        else:
            pos = bisect.bisect_left(self.keys, key)
            if pos == len(self.keys) or self.keys[pos] != key:
                raise AssertionError(f"model missing edge {key}")
            if update.kind == "delete":
                del self.keys[pos], self.edges[pos]
            else:
                self.edges[pos] = (*key, update.weight)

    def build(self):
        sources = np.array([e[0] for e in self.edges], dtype=np.int64)
        targets = np.array([e[1] for e in self.edges], dtype=np.int64)
        weights = np.array([e[2] for e in self.edges], dtype=np.float64)
        return from_arrays(self.num_vertices, sources, targets, weights)

    def random_update(self, rng):
        roll = rng.random()
        if roll < 0.4 or not self.edges:
            source = int(rng.integers(self.num_vertices))
            target = int(rng.integers(self.num_vertices))
            return EdgeUpdate(
                "insert", source, target, float(rng.uniform(0.5, 4.0))
            )
        source, target, _ = self.edges[int(rng.integers(len(self.edges)))]
        if roll < 0.7:
            return EdgeUpdate("delete", source, target)
        return EdgeUpdate(
            "reweight", source, target, float(rng.uniform(0.5, 4.0))
        )


class _DegreeBoundWalk(UniformWalk):
    """Exercises the scalar-hook bound-maintenance path: no
    ``upper_bound_array`` override, degree-dependent Q(v)."""

    def dynamic_upper_bound(self, graph, vertex):
        return 1.0 + 0.25 * graph.out_degree(vertex)

    def dynamic_lower_bound(self, graph, vertex):
        return 0.5 if graph.out_degree(vertex) else 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_epochs_match_from_scratch_build(seed):
    rng = np.random.default_rng(seed)
    base = small_graph(seed=seed)
    model = _ModelGraph(base)
    dyn = DynamicGraph(base, verify="full", seed=seed)
    program = _DegreeBoundWalk()

    for epoch in range(1, 7):
        updates = []
        for _ in range(int(rng.integers(1, 12))):
            update = model.random_update(rng)
            model.apply(update)
            updates.append(update)
        assert dyn.commit(updates) == epoch

        snap = dyn.snapshot()
        reference = model.build()
        assert snap.graph == reference
        np.testing.assert_array_equal(snap.graph.weights, reference.weights)
        assert_tables_identical(snap.tables("alias"), VertexAliasTables(reference))
        assert_tables_identical(snap.tables("its"), VertexITSTables(reference))
        upper, lower = snap.bounds_for(program)
        np.testing.assert_array_equal(upper, program.upper_bound_array(reference))
        np.testing.assert_array_equal(lower, program.lower_bound_array(reference))

        if epoch % 3 == 0:
            dyn.compact()  # folding must not perturb anything
            assert dyn.snapshot().graph == reference

    # verify="full" probed every vertex of every epoch without one miss.
    assert dyn.maintenance.verify_checks > 0
    assert dyn.maintenance.verify_mismatches == 0
    assert dyn.maintenance.epochs_maintained > 0
    assert dyn.stats.conservation_balanced()


def test_incremental_tables_match_full_rebuild():
    dyn = DynamicGraph(small_graph(seed=9))
    dyn.commit([EdgeUpdate("insert", 0, 5, 2.0), EdgeUpdate("insert", 7, 3, 1.5)])
    snap = dyn.snapshot()
    assert_tables_identical(snap.tables("alias"), VertexAliasTables(snap.graph))
    assert_tables_identical(snap.tables("its"), VertexITSTables(snap.graph))
    # The second epoch reuses the first's tables incrementally.
    dyn.commit([EdgeUpdate("delete", 0, 5)])
    snap = dyn.snapshot()
    assert_tables_identical(snap.tables("alias"), VertexAliasTables(snap.graph))
    assert dyn.maintenance.epochs_maintained >= 1
    assert dyn.maintenance.vertices_copied > 0


def test_verification_fallback_on_corruption():
    dyn = DynamicGraph(small_graph(seed=11), verify="full", seed=1)
    dyn.commit([EdgeUpdate("insert", 1, 2, 3.0)])
    dyn.snapshot().tables("alias")  # prime the cache
    dyn._test_corrupt_incremental = True
    dyn.commit([EdgeUpdate("insert", 2, 3, 2.0)])
    snap = dyn.snapshot()
    tables = snap.tables("alias")
    # The corrupted incremental build was detected and discarded; the
    # served tables still match a from-scratch rebuild exactly.
    assert_tables_identical(tables, VertexAliasTables(snap.graph))
    assert dyn.maintenance.verify_mismatches >= 1
    assert dyn.maintenance.verify_fallbacks >= 1


class _CappedWalk(WalkerProgram):
    """Q(v) = Pd = ``caps[v]``, read through the scalar hook: two
    instances differ only in an array attribute."""

    dynamic = True
    supports_batch = True

    def __init__(self, caps):
        self.caps = np.asarray(caps, dtype=np.float64)

    def dynamic_upper_bound(self, graph, vertex):
        return float(self.caps[vertex])

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return float(self.caps[walker.current])

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return self.caps[walkers.current[walker_ids]]


def test_bounds_are_not_shared_between_programs_differing_in_an_array():
    """The bounds cache used to key on scalar attributes only, so the
    second program was served the first one's envelope — below its Pd,
    a silently skewed law."""
    snap = DynamicGraph(small_graph(seed=12)).snapshot()
    count = snap.num_vertices
    low = _CappedWalk(np.arange(1.0, count + 1.0))
    high = _CappedWalk(np.full(count, 9.0 + count))
    np.testing.assert_array_equal(snap.bounds_for(low)[0], low.caps)
    np.testing.assert_array_equal(snap.bounds_for(high)[0], high.caps)
    config = WalkConfig(num_walkers=30, max_steps=6, seed=2)
    # validate_bounds raises on the first Pd above the envelope.
    result = WalkEngine(snap, high, config, validate_bounds=True).run()
    assert result.stats.total_steps > 0


# ----------------------------------------------------------------------
# Retention: a superseded epoch keeps its graph, not its prepared state
# ----------------------------------------------------------------------
class TestRetention:
    CONFIG = WalkConfig(num_walkers=30, max_steps=8, record_paths=True, seed=4)

    def _two_epochs(self):
        dyn = DynamicGraph(small_graph(seed=15))
        dyn.snapshot().tables("alias")
        dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
        return dyn, dyn.snapshot()

    def test_superseded_epoch_drops_its_tables_not_a_running_walk(self):
        dyn, first = self._two_epochs()
        expected = golden_digest(WalkEngine(first.graph, DeepWalk(), self.CONFIG))
        pinned = WalkEngine(dyn, DeepWalk(), self.CONFIG)  # built on epoch 1
        assert pinned.tables is first.tables("alias")
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        second = dyn.snapshot()
        retained = dyn.snapshot_at(1)
        assert retained._tables == {} and retained.graph is first.graph
        assert second._tables == {} and dyn.snapshot_at(2) is second
        assert golden_digest(pinned) == expected  # its tables are its own
        assert pinned.stats.graph_epoch == 1

    def test_late_tables_on_a_superseded_epoch_are_built_from_scratch(self):
        dyn, _ = self._two_epochs()
        dyn.commit([EdgeUpdate("insert", 2, 3, 1.5)])
        newest = dyn.snapshot().tables("alias")
        assert dyn._maintained_at["alias"][0] == 2
        before = dyn.maintenance.full_rebuilds
        retained = dyn.snapshot_at(1)
        late = retained.tables("alias")
        assert_tables_identical(late, VertexAliasTables(retained.graph))
        assert dyn.maintenance.full_rebuilds == before + 1
        # The newer entry was not displaced: epoch 3 is still incremental.
        assert dyn._maintained_at["alias"] == (2, newest)
        assert retained.tables("alias") is late  # memoised again, on the wrapper
        dyn.commit([EdgeUpdate("reweight", 2, 3, 0.5)])
        rebuilt = dyn.maintenance.vertices_rebuilt
        dyn.snapshot().tables("alias")
        assert dyn.maintenance.full_rebuilds == before + 1
        assert dyn.maintenance.vertices_rebuilt == rebuilt + 1

    def test_commit_snapshot_tables_cycle_rebuilds_only_what_was_touched(self):
        """The e2e epoch probe in small: one full build, then per epoch
        exactly the touched vertices, no fallback."""
        base = small_graph(seed=16, num_vertices=80)
        batches = generate_churn_batches(base, num_epochs=8, updates_per_epoch=9, seed=2)
        dyn = DynamicGraph(base, verify="sample")
        dyn.snapshot().tables("alias")
        touched = 0
        for batch in batches:
            dyn.commit(batch)
            touched += np.unique(batch.sources).size
            dyn.snapshot().tables("alias")
        stats = dyn.maintenance
        assert (stats.vertices_rebuilt, stats.full_rebuilds, stats.verify_fallbacks) == (
            touched, 1, 0
        )
        assert stats.epochs_maintained == 8
        # The window reaches the last 8 epochs; rebuilding one costs no tables.
        assert [dyn.snapshot_at(e).epoch for e in range(1, 9)] == list(range(1, 9))
        with pytest.raises(GraphError, match="not retained"):
            dyn.snapshot_at(0)
        assert dyn.maintenance.full_rebuilds == 1

    def test_dropped_epochs_are_rebuilt_across_new_columns_and_compaction(self):
        """Nothing holds epochs 0-2 any more: each is rebuilt from the
        newest CSR through the reverse deltas, without the weights and
        types that arrived after it."""
        dyn = DynamicGraph(from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)]))
        expected = {0: copy.deepcopy(dyn.snapshot().graph)}
        for batch in (
            [EdgeUpdate("insert", 0, 2)],
            [EdgeUpdate("insert", 3, 4, 2.5)],  # turns weighted
            [EdgeUpdate("delete", 1, 2), EdgeUpdate("insert", 5, 0, edge_type=2)],
            "compact",
            [EdgeUpdate("reweight", 0, 1, 0.5)],
            [EdgeUpdate("delete", 0, 2), EdgeUpdate("insert", 2, 1)],
        ):
            if batch == "compact":
                dyn.compact()
                continue
            epoch = dyn.commit(batch)
            expected[epoch] = copy.deepcopy(dyn.snapshot().graph)
        gc.collect()
        assert [dyn._held.get(epoch) is None for epoch in range(5)] == [
            True, True, True, False, True  # epoch 3 is the compacted base
        ]
        for epoch, graph in expected.items():
            rebuilt = dyn.snapshot_at(epoch).graph
            assert rebuilt == graph and (rebuilt.weights is None) == (epoch < 2)
            assert (rebuilt.edge_types is None) == (epoch < 3)
        assert dyn.snapshot_at(1).graph is dyn.snapshot_at(1).graph  # while held

    def test_a_superseded_epoch_retains_its_touched_slices_not_its_csr(self):
        """Vertex 0 has the same slice in a 100- and a 20 000-vertex graph:
        once an insert there supersedes epoch 1, it costs the same bytes."""
        retained = []
        for count in (100, 20_000):
            path = [(v, v + 1) for v in range(1, count - 1)]
            dyn = DynamicGraph(from_edges(count, [(0, 1), (0, 2), *path]))
            dyn.snapshot()
            dyn.commit([EdgeUpdate("insert", 1, 3)])
            dyn.snapshot()
            dyn.commit([EdgeUpdate("insert", 0, 3)])
            dyn.snapshot()
            assert dyn._held.get(1) is None  # epoch 1's CSR is gone
            touched, local, columns = dyn._retained[1]
            assert touched.tolist() == [0] and columns[0].tolist() == [1, 2]
            arrays = (touched, local, *columns)
            retained.append(sum(a.nbytes for a in arrays if a is not None))
        assert retained[0] == retained[1] < 100

    def test_touched_sets_are_pruned_once_nothing_can_ask_for_them(self):
        """``_touched_by_epoch`` gained an array per commit, forever."""
        base = small_graph(seed=18)
        batches = generate_churn_batches(base, num_epochs=500, updates_per_epoch=2, seed=5)
        dyn = DynamicGraph(base)
        dyn.snapshot().tables("alias")
        held = []
        for epoch, batch in enumerate(batches, start=1):
            dyn.commit(batch)
            held.append(len(dyn._touched_by_epoch))
            snap = dyn.snapshot()
            if epoch % 2 == 0:  # tables lag one epoch behind half the time
                snap.tables("alias")
        assert max(held) == 2 and not dyn._touched_by_epoch
        stats = dyn.maintenance
        assert (stats.epochs_maintained, stats.full_rebuilds) == (250, 1)


class TestOwnerLock:
    def test_concurrent_first_use_of_an_epoch_builds_its_tables_once(self):
        """Threads asking a fresh epoch for its tables at once each built
        (and counted) them, and walked different table objects."""
        graph = assign_random_weights(erdos_renyi_graph(5000, 8.0, seed=1), seed=2)
        batches = generate_churn_batches(graph, num_epochs=10, updates_per_epoch=20, seed=3)
        dyn = DynamicGraph(graph)
        dyn.snapshot().tables("alias")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for batch in batches:
                dyn.commit(batch)
                snap, barrier, got = dyn.snapshot(), threading.Barrier(4), []

                def ask(snap=snap, barrier=barrier, got=got):
                    barrier.wait(timeout=10.0)
                    got.append(snap.tables("alias"))

                threads = [threading.Thread(target=ask) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                assert len(got) == 4 and all(tables is got[0] for tables in got)
        finally:
            sys.setswitchinterval(interval)
        stats = dyn.maintenance
        assert (stats.epochs_maintained, stats.full_rebuilds) == (10, 1)

    def test_a_pickled_snapshot_walks_to_the_same_digest(self):
        dyn = DynamicGraph(small_graph(seed=19))
        dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
        first = copy.deepcopy(dyn.snapshot().graph)
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        snap = dyn.snapshot()
        config = WalkConfig(num_walkers=30, max_steps=8, record_paths=True, seed=4)
        thawed = pickle.loads(pickle.dumps(snap))
        assert thawed.epoch == 2 and thawed._owner is not dyn
        assert golden_digest(WalkEngine(thawed, DeepWalk(), config)) == golden_digest(
            WalkEngine(snap, DeepWalk(), config)
        )
        assert thawed._owner.snapshot_at(1).graph == first  # rebuilt from its delta


# ----------------------------------------------------------------------
# WAL recovery and durable compaction
# ----------------------------------------------------------------------
class TestWalRecovery:
    def test_recover_replays_all_epochs(self, tmp_path):
        wal = tmp_path / "graph.wal"
        base = small_graph(seed=5)
        dyn = DynamicGraph(base, wal_path=wal)
        rng = np.random.default_rng(0)
        model = _ModelGraph(base)
        for _ in range(3):
            updates = [model.random_update(rng) for _ in range(4)]
            for update in updates:
                model.apply(update)
            dyn.commit(updates)
        expected = dyn.snapshot().graph
        dyn.close()

        recovered = DynamicGraph.recover(base, wal)
        assert recovered.epoch == 3
        assert recovered.snapshot().graph == expected
        assert recovered.stats.recovery is not None
        assert recovered.stats.recovery.balanced()

    def test_recover_replay_to_partial(self, tmp_path):
        wal = tmp_path / "graph.wal"
        base = from_edges(4, [(0, 1)])
        dyn = DynamicGraph(base, wal_path=wal)
        dyn.commit([EdgeUpdate("insert", 1, 2)])
        dyn.commit([EdgeUpdate("insert", 2, 3)])
        dyn.close()
        partial = DynamicGraph.recover(base, wal, replay_to=1)
        assert partial.epoch == 1
        graph = partial.snapshot().graph
        assert graph.has_edge(1, 2) and not graph.has_edge(2, 3)

    def test_recover_refuses_an_epoch_outside_the_log(self, tmp_path):
        """``replay_to=5`` on a two-epoch log used to land on epoch 2 with
        the log reattached, and ``replay_to=-3`` on epoch 0."""
        wal = tmp_path / "graph.wal"
        base = from_edges(4, [(0, 1)])
        dyn = DynamicGraph(base, wal_path=wal)
        dyn.commit([EdgeUpdate("insert", 1, 2)])
        dyn.commit([EdgeUpdate("insert", 2, 3)])
        dyn.close()
        for replay_to in (5, -3):
            with pytest.raises(WalError, match=rf"no epoch {replay_to} in \[0, 2\]"):
                DynamicGraph.recover(base, wal, replay_to=replay_to)
        with pytest.raises(WalError, match=r"no epoch 0 in \[1, 2\]"):
            DynamicGraph.recover(base, wal, replay_to=0, base_epoch=1)
        assert DynamicGraph.recover(base, wal, replay_to=0).epoch == 0

    def test_save_compacted_roundtrip(self, tmp_path):
        wal = tmp_path / "graph.wal"
        npz = tmp_path / "base.npz"
        base = small_graph(seed=6)
        dyn = DynamicGraph(base, wal_path=wal)
        dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
        dyn.commit([EdgeUpdate("insert", 1, 0, 3.0)])
        expected = dyn.snapshot().graph
        dyn.save_compacted(npz)
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        final = dyn.snapshot().graph
        dyn.close()

        loaded = DynamicGraph.load_compacted(npz, wal)
        assert loaded.epoch == 3
        assert loaded.snapshot().graph == final
        assert expected.has_edge(0, 1)  # pre-compaction view unaffected

    def test_compacted_base_without_checksum_is_refused(self, tmp_path):
        """No WAL is recovered on top of a base nothing vouches for."""
        from repro.errors import SnapshotCorruptError

        wal = tmp_path / "graph.wal"
        npz = tmp_path / "base.npz"
        dyn = DynamicGraph(small_graph(seed=6), wal_path=wal)
        dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
        dyn.save_compacted(npz)
        dyn.commit([EdgeUpdate("insert", 1, 0, 3.0)])
        dyn.close()
        assert DynamicGraph.load_compacted(npz, wal).epoch == 2

        with np.load(npz) as data:
            arrays = {key: data[key] for key in data.files if key != "checksum"}
        arrays["targets"][5] = (arrays["targets"][5] + 1) % dyn.num_vertices
        np.savez_compressed(npz, **arrays)
        with pytest.raises(SnapshotCorruptError, match="no checksum member"):
            DynamicGraph.load_compacted(npz, wal)


# ----------------------------------------------------------------------
# Epoch pinning through the engine stack
# ----------------------------------------------------------------------
class TestEnginePinning:
    @pytest.mark.parametrize("variant", ["batch", "scalar"])
    def test_engine_pins_snapshot(self, variant):
        scalar = variant == "scalar"
        dyn = DynamicGraph(small_graph(seed=7))
        dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
        config = WalkConfig(
            num_walkers=30, max_steps=8, record_paths=True, seed=4
        )
        engine = WalkEngine(dyn, DeepWalk(), config, force_scalar=scalar)
        assert engine.graph_epoch == 1
        # Commits after construction must not affect the pinned walk.
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        result = engine.run()
        assert result.stats.graph_epoch == 1

        # The pinned epoch, its CSR and the same CSR wrapped fresh all
        # walk the same way through the one constructor path.
        pinned = dyn.snapshot_at(1)
        assert isinstance(pinned, PreparedGraph) and pinned.epoch == 1
        for graph in (pinned, pinned.graph, PreparedGraph(pinned.graph)):
            again = WalkEngine(graph, DeepWalk(), config, force_scalar=scalar)
            assert again.graph is pinned.graph
            np.testing.assert_array_equal(result.paths, again.run().paths)

    def test_engine_on_snapshot_matches_materialized(self):
        dyn = DynamicGraph(small_graph(seed=8))
        dyn.commit([EdgeUpdate("insert", 2, 3, 4.0)])
        snap = dyn.snapshot()
        config = WalkConfig(
            num_walkers=25, max_steps=6, record_paths=True, seed=9
        )
        digests = {
            name: golden_digest(WalkEngine(graph, Node2Vec(p=2.0, q=0.5), config))
            for name, graph in [("dynamic", dyn), ("epoch", snap), ("csr", snap.graph)]
        }
        assert digests["dynamic"] == digests["epoch"] == digests["csr"]
        from_snap = WalkEngine(snap, Node2Vec(p=2.0, q=0.5), config)
        from_csr = WalkEngine(snap.graph, Node2Vec(p=2.0, q=0.5), config)
        # The epoch's tables are the owner's, incrementally maintained;
        # a bare CSR builds its own — same arrays either way.
        assert from_snap.tables is snap.tables("alias")
        assert_tables_identical(from_snap.tables, from_csr.tables)
        assert from_snap.run().stats.graph_epoch == 1
        assert from_snap.stats.maintenance is dyn.maintenance
        assert from_csr.run().stats.graph_epoch is None

    def test_distributed_engine_pins_epoch(self):
        base = erdos_renyi_graph(60, 5.0, seed=2, undirected=True)
        dyn = DynamicGraph(base)
        dyn.commit([EdgeUpdate("insert", 0, 59, 2.0)])
        config = WalkConfig(
            num_walkers=40, max_steps=6, record_paths=True, seed=3
        )
        engine = DistributedWalkEngine(dyn, UniformWalk(), config, num_nodes=2)
        result = engine.run()
        assert result.stats.graph_epoch == 1
        single = WalkEngine(dyn.snapshot_at(1).graph, UniformWalk(), config)
        np.testing.assert_array_equal(result.paths, single.run().paths)


# ----------------------------------------------------------------------
# Checkpoints carry the epoch
# ----------------------------------------------------------------------
class TestCheckpointEpoch:
    def _setup(self):
        dyn = DynamicGraph(small_graph(seed=10))
        dyn.commit([EdgeUpdate("insert", 0, 2, 2.0)])
        dyn.commit([EdgeUpdate("reweight", 0, 2, 1.5)])
        config = WalkConfig(
            num_walkers=20, max_steps=10, record_paths=True, seed=1
        )
        return dyn, UniformWalk(), config

    def test_checkpoint_records_epoch(self, tmp_path):
        dyn, program, config = self._setup()
        engine = WalkEngine(dyn, program, config)
        engine.run(max_iterations=2)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        assert checkpoint_epoch(path) == 2

        restored = restore_checkpoint(dyn, program, config, path)
        finished = restored.run()
        reference = WalkEngine(dyn, program, config).run()
        for resumed_path, straight_path in zip(
            finished.paths, reference.paths
        ):
            np.testing.assert_array_equal(resumed_path, straight_path)

    def test_restore_rejects_wrong_epoch(self, tmp_path):
        dyn, program, config = self._setup()
        engine = WalkEngine(dyn, program, config)
        engine.run(max_iterations=2)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        dyn.commit([EdgeUpdate("delete", 0, 2)])
        with pytest.raises(SnapshotError, match="replay_to=2"):
            restore_checkpoint(dyn, program, config, path)

    def test_static_checkpoint_has_no_epoch(self, tmp_path):
        graph = small_graph(seed=10)
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=2)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        assert checkpoint_epoch(path) is None


# ----------------------------------------------------------------------
# Service: updates interleaved with requests
# ----------------------------------------------------------------------
class TestServiceUpdates:
    def test_apply_updates_advances_served_epoch(self):
        dyn = DynamicGraph(small_graph(seed=12))
        config = WalkConfig(num_walkers=10, max_steps=5, seed=2)
        with WalkService(dyn, num_workers=1) as service:
            first = service.submit(
                WalkRequest(program=UniformWalk(), config=config)
            ).result(timeout=30)
            assert first.ok and first.graph_epoch == 0

            epoch = service.apply_updates([EdgeUpdate("insert", 0, 3, 2.0)])
            assert epoch == 1
            second = service.submit(
                WalkRequest(program=UniformWalk(), config=config)
            ).result(timeout=30)
            assert second.ok and second.graph_epoch == 1
            assert service.metrics.updates_applied == 1
            assert service.metrics.epochs_committed == 1

    def test_apply_updates_requires_dynamic_graph(self):
        with WalkService(small_graph(seed=12), num_workers=1) as service:
            with pytest.raises(ServiceError):
                service.apply_updates([EdgeUpdate("insert", 0, 1)])


# ----------------------------------------------------------------------
# Sanitizer: per-epoch replay certification
# ----------------------------------------------------------------------
def test_sanitizer_certifies_per_epoch_replay():
    base = small_graph(seed=13)
    batches = generate_churn_batches(base, num_epochs=2, updates_per_epoch=15, seed=4)
    config = WalkConfig(num_walkers=20, max_steps=6, seed=5)

    def factory_for(epoch):
        def factory():
            dyn = DynamicGraph(base, seed=5)
            for batch in batches[:epoch]:
                dyn.commit(batch)
            return WalkEngine(dyn, UniformWalk(), config)
        return factory

    for epoch in range(1, len(batches) + 1):
        report = run_sanitized(factory_for(epoch), runs=2)
        assert report.deterministic, report.summary()


def test_generate_churn_batches_replayable():
    base = small_graph(seed=14)
    batches = generate_churn_batches(base, num_epochs=3, updates_per_epoch=10, seed=6)
    assert len(batches) == 3
    first = DynamicGraph(base)
    second = DynamicGraph(base)
    for batch in batches:
        first.commit(batch)
        second.commit(batch)
    assert first.snapshot().graph == second.snapshot().graph
    assert first.stats.conservation_balanced()


# ``UpdateBatch.to_bytes`` of whole streams, pinned at 554ca43 where the
# generator re-sorted the edge set for every delete and reweight: the
# three CI chaos seeds on ``tests/test_dynamic_chaos.py``'s graph
# (undirected, weighted) and one directed, unweighted graph.
CHURN_STREAM_DIGESTS = {
    101: "22befbf997b52c6d4ba0f5c9e975c547",
    202: "5ee251f60fb7055fe573e08bc5585dd9",
    303: "6c873ad29c97cb18778b63db915144fc",
    "directed": "6993e78a2ad439ed6dcfcefb70427960",
}


@pytest.mark.parametrize("seed", CHURN_STREAM_DIGESTS)
def test_generate_churn_batches_stream_is_unchanged(seed):
    if seed == "directed":
        graph = erdos_renyi_graph(60, 4.0, seed=5)
        batches = generate_churn_batches(graph, num_epochs=4, updates_per_epoch=25, seed=9)
    else:
        graph = churn_graph(seed)
        batches = generate_churn_batches(graph, num_epochs=7, updates_per_epoch=12, seed=seed)
    stream = b"".join(batch.to_bytes() for batch in batches)
    digest = hashlib.blake2b(stream, digest_size=16).hexdigest()
    assert digest == CHURN_STREAM_DIGESTS[seed]


def test_generate_churn_batches_keeps_its_edge_set_sorted():
    """2 000 updates against 281 k edges took 107 s when every delete
    and reweight re-sorted the set; 0.3 s now.  The bound is loose on
    purpose — it separates the two, not two machines."""
    graph = load_dataset("livejournal", scale=1.0, weighted=True)
    started = time.perf_counter()
    batches = generate_churn_batches(graph, num_epochs=20, updates_per_epoch=100, seed=1)
    assert time.perf_counter() - started < 2.0
    assert sum(len(batch) for batch in batches) == 2000
    dyn = DynamicGraph(graph)
    for batch in batches:
        dyn.commit(batch)
    assert dyn.stats.conservation_balanced() and dyn.epoch == 20
