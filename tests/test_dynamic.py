"""Dynamic graphs: epochs, WAL recovery, incremental sampler upkeep.

The load-bearing test here is the seed-swept property test: a random
sequence of insert/delete/reweight epochs (with compaction interleaved)
must leave the dynamic graph *bit-identical* to a from-scratch
:func:`~repro.graph.builder.from_arrays` build of the surviving edge
list — CSR arrays, alias tables and Q(v)/L(v) bound arrays alike.  Everything else (epoch pinning in both engine modes,
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
import warnings
import weakref

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
def huge_reweights(graph, vertex):
    """Reweights to 1e308 of two of ``vertex``'s out-edges: each is
    finite, their sum is not."""
    start, end = graph.edge_range(vertex)
    targets = np.unique(graph.targets[start:end])[:2]
    assert targets.size == 2
    return [EdgeUpdate("reweight", vertex, int(target), 1e308) for target in targets]


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

    def test_weights_summing_past_the_largest_float_are_refused(self, tmp_path):
        """Two reweights to 1e308 on one vertex used to commit, and then
        every table build of the epoch — every walk on it — failed with
        an overflow warning and an error that named no vertex."""
        base = load_dataset("livejournal", scale=0.05, weighted=True)
        wal = tmp_path / "graph.wal"
        dyn = DynamicGraph(base, wal_path=wal)
        logged = wal.stat().st_size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="vertex 3 would have no finite"):
                dyn.commit(huge_reweights(base, 3))
        assert dyn.epoch == 0 and dyn.stats.epochs_committed == 0
        assert wal.stat().st_size == logged and dyn.delta_vertices() == 0
        # One such weight still sums finitely: that batch commits and builds.
        assert dyn.commit(huge_reweights(base, 3)[:1]) == 1
        assert dyn.snapshot().tables("alias").total_static(3) > 1e307

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

    def test_retain_epochs_is_no_parameter(self, tmp_path):
        """The owner keeps no window of superseded epochs: an older one
        is a held snapshot, or a ``replay_to`` recovery from the log."""
        base = from_edges(4, [(0, 1)])
        with pytest.raises(TypeError, match="retain_epochs"):
            DynamicGraph(base, retain_epochs=2)
        wal = tmp_path / "graph.wal"
        dyn = DynamicGraph(base, wal_path=wal)
        dyn.commit([EdgeUpdate("reweight", 0, 1, 2.0)])
        dyn.close()
        with pytest.raises(TypeError, match="retain_epochs"):
            DynamicGraph.recover(base, wal, retain_epochs=2)
        assert not hasattr(dyn, "snapshot_at")


# ----------------------------------------------------------------------
# Property test: epochs + compaction == from-scratch build
# ----------------------------------------------------------------------
def assert_tables_identical(ours, reference):
    """Exact (bit-level) equality of two sampler-table objects: the
    per-edge arrays the class declares, whatever is derived from them,
    and the typed tables' grouped layout."""
    assert type(ours) is type(reference)
    compared = 0
    for attr in ("_prob", "_alias", "_totals", "_static", "_flat_edges",
                 "_flat_prob", "_flat_alias", "_group_start", "_group_count"):
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
    """Bounds through the scalar hooks only (no ``upper_bound_array``
    override): a degree-dependent Q(v) derived per epoch."""

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
    # The second epoch reuses the first's tables incrementally.
    dyn.commit([EdgeUpdate("delete", 0, 5)])
    snap = dyn.snapshot()
    assert_tables_identical(snap.tables("alias"), VertexAliasTables(snap.graph))
    assert dyn.maintenance.epochs_maintained >= 1
    assert dyn.maintenance.vertices_copied > 0


def test_verification_fallback_on_corruption(monkeypatch):
    dyn = DynamicGraph(small_graph(seed=11), verify="full", seed=1)
    dyn.commit([EdgeUpdate("insert", 1, 2, 3.0)])
    dyn.snapshot().tables("alias")  # prime the cache
    updated = VertexAliasTables.updated

    def corrupted(self, graph, static_weights, touched):
        tables = updated(self, graph, static_weights, touched)
        tables.totals[touched[0]] += 1.0  # one incrementally built entry
        return tables

    monkeypatch.setattr(VertexAliasTables, "updated", corrupted)
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


class _HalfWalk(WalkerProgram):
    """Q(v) = Pd = 0.5 through the scalar hooks."""

    dynamic = True
    supports_batch = True

    def dynamic_upper_bound(self, graph, vertex):
        return 0.5

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return 0.5

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return np.full(walker_ids.size, 0.5)


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
# Superseded epochs: the owner keeps the newest, a walk keeps its own
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
        dropped = weakref.ref(pinned.tables)
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        second = dyn.snapshot()
        assert dyn._latest is second and second._tables is None
        second.tables("alias")
        del first
        gc.collect()
        assert dropped() is pinned.tables  # its tables are its own
        assert golden_digest(pinned) == expected
        assert pinned.stats.graph_epoch == 1
        del pinned
        gc.collect()
        assert dropped() is None  # the owner kept nothing of epoch 1

    def test_late_tables_on_a_superseded_epoch_are_built_from_scratch(self):
        dyn, held = self._two_epochs()  # epoch 1's tables never asked for
        dyn.commit([EdgeUpdate("insert", 2, 3, 1.5)])
        newest = dyn.snapshot().tables("alias")
        assert dyn._maintained[0] == 2
        before = dyn.maintenance.full_rebuilds
        late = held.tables("alias")
        assert_tables_identical(late, VertexAliasTables(held.graph))
        assert dyn.maintenance.full_rebuilds == before + 1
        # The newer entry was not displaced: epoch 3 is still incremental.
        assert dyn._maintained == (2, newest)
        assert held.tables("alias") is late  # memoised, on the snapshot
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

    def test_held_epochs_survive_new_columns_and_compaction(self):
        """Epochs 0-2 stay as they were while weights, types and a
        compaction arrive after them: later epochs write new arrays."""
        dyn = DynamicGraph(from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)]))
        held = {0: dyn.snapshot()}
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
            held[epoch] = dyn.snapshot()
        expected = {epoch: copy.deepcopy(snap.graph) for epoch, snap in held.items()}
        for epoch in range(6):
            dyn.commit([EdgeUpdate("reweight", 3, 4, 1.0 + epoch)])
            dyn.snapshot().tables("alias")
        dyn.compact()
        for epoch, snap in held.items():
            assert snap.epoch == epoch and snap.graph == expected[epoch]
            assert (snap.graph.weights is None) == (epoch < 2)
            assert (snap.graph.edge_types is None) == (epoch < 3)

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
        dyn.snapshot()
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        snap = dyn.snapshot()
        config = WalkConfig(num_walkers=30, max_steps=8, record_paths=True, seed=4)
        thawed = pickle.loads(pickle.dumps(snap))
        assert thawed.epoch == 2 and thawed._owner is None
        assert golden_digest(WalkEngine(thawed, DeepWalk(), config)) == golden_digest(
            WalkEngine(snap, DeepWalk(), config)
        )

    def test_a_pickled_snapshot_carries_its_epoch_not_its_owner(self, tmp_path):
        """Under a WAL the owner does not pickle at all, and without one
        it dragged the base, the delta buffer and the newest epoch's
        tables along (400 kB for a 77 kB epoch)."""
        graph = small_graph(seed=23, num_vertices=300)
        dyn = DynamicGraph(graph, wal_path=tmp_path / "graph.wal")
        config = WalkConfig(num_walkers=60, max_steps=6, record_paths=True, seed=5)
        *batches, unbuilt_batch = generate_churn_batches(graph, 5, 25, seed=6)
        for batch in batches:
            dyn.commit(batch)
            WalkEngine(dyn.snapshot(), _HalfWalk(), config).run()
        snap = dyn.snapshot()
        tables = snap.tables("alias")
        assert dyn._maintained == (4, tables)

        blob = pickle.dumps(snap)
        thawed = pickle.loads(blob)
        own = (snap.graph.offsets, snap.graph.targets, snap.graph.weights)
        own += (tables.totals, tables._prob, tables._alias)
        assert len(blob) <= 1.5 * sum(array.nbytes for array in own)
        assert thawed._owner is None and thawed.maintenance is None
        assert thawed._tables is not None  # kept, not rebuilt
        assert thawed.graph == snap.graph
        for name in ("totals", "_prob", "_alias"):
            np.testing.assert_array_equal(
                getattr(thawed.tables("alias"), name), getattr(tables, name)
            )
        for program in (_HalfWalk, lambda: Node2Vec(p=0.5, q=2.0)):
            assert golden_digest(WalkEngine(thawed, program(), config)) == (
                golden_digest(WalkEngine(snap, program(), config))
            )
        dyn.commit(unbuilt_batch)  # pickled before its tables were built:
        unbuilt = pickle.loads(pickle.dumps(dyn.snapshot()))
        assert unbuilt._tables is None  # thawed, they build from scratch
        assert_tables_identical(
            unbuilt.tables("alias"), VertexAliasTables(unbuilt.graph)
        )
        dyn.close()


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
        pinned = dyn.snapshot()
        engine = WalkEngine(dyn, DeepWalk(), config, force_scalar=scalar)
        assert engine.graph_epoch == 1 and engine.graph is pinned.graph
        # Commits after construction must not affect the pinned walk.
        dyn.commit([EdgeUpdate("delete", 0, 1)])
        result = engine.run()
        assert result.stats.graph_epoch == 1

        # The pinned epoch, its CSR and the same CSR wrapped fresh all
        # walk the same way through the one constructor path.
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
        pinned = dyn.snapshot()
        config = WalkConfig(
            num_walkers=40, max_steps=6, record_paths=True, seed=3
        )
        engine = DistributedWalkEngine(dyn, UniformWalk(), config, num_nodes=2)
        dyn.commit([EdgeUpdate("delete", 0, 59)])
        result = engine.run()
        assert result.stats.graph_epoch == 1
        single = WalkEngine(pinned.graph, UniformWalk(), config)
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

    def test_a_refused_batch_leaves_the_service_serving_its_epoch(self):
        base = load_dataset("livejournal", scale=0.05, weighted=True)
        config = WalkConfig(num_walkers=10, max_steps=5, seed=2)
        with WalkService(DynamicGraph(base), num_workers=1) as service:
            with pytest.raises(GraphError, match="vertex 3 would have no finite"):
                service.apply_updates(huge_reweights(base, 3))
            response = service.submit(
                WalkRequest(program=UniformWalk(), config=config)
            ).result(timeout=30)
            assert response.ok and response.graph_epoch == 0
        metrics = service.metrics
        assert metrics.updates_applied == 0 and metrics.epochs_committed == 0
        assert metrics.submitted == 1
        assert metrics.submitted == metrics.served + metrics.shed + metrics.failed

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
