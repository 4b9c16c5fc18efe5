"""Batch staging and epoch materialisation against the frozen bodies.

PR 23 replaced the per-update ``np.insert`` / ``np.delete`` staging by
one sort over the batch, and the whole-CSR rebuild per epoch by a run
copy from the previous materialised epoch.  ``tests/reference_dynamic.py``
keeps the old statements; here Hypothesis draws small multigraphs
(parallel edges, self-loops, directed and mirrored, with and without
weights and types) and batches that pile conflicting updates on one
edge, miss edges at any position and carry bad endpoints and weights,
and requires: the same staged adjacencies (values *and* dtypes), the
same counts, the same error text, and a rejected batch that leaves
graph and log untouched; then chains of epochs with skipped snapshots,
compaction and ``recover(..., replay_to=)`` whose CSR arrays equal
base + overlay and whose tables equal a from-scratch build.
"""

import copy
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_arrays
from repro.graph.dynamic import DynamicGraph, EdgeUpdate, UpdateBatch
from repro.sampling.alias import VertexAliasTables
from tests.reference_dynamic import ReferenceDynamicGraph
from tests.test_dynamic import assert_tables_identical

KINDS = ("insert", "delete", "reweight")
COLUMNS = ("targets", "weights", "edge_types")


class _World:
    """One base graph, the edges it holds now, and a batch generator."""

    def __init__(self, seed, num_vertices, undirected, weighted, typed):
        self.rng = rng = np.random.default_rng(seed)
        self.count, self.undirected = num_vertices, undirected
        size = int(rng.integers(0, 3 * num_vertices))
        sources = rng.integers(0, num_vertices, size=size)
        targets = rng.integers(0, num_vertices, size=size)
        self.base = from_arrays(
            num_vertices,
            sources,
            targets,
            weights=rng.integers(1, 6, size=size) / 2.0 if weighted else None,
            edge_types=rng.integers(0, 3, size=size) if typed else None,
            undirected=undirected,
        )
        self.copies: dict[tuple[int, int], int] = {}
        base_sources = np.repeat(np.arange(num_vertices), np.diff(self.base.offsets))
        for pair in zip(base_sources.tolist(), self.base.targets.tolist()):
            self.copies[pair] = self.copies.get(pair, 0) + 1

    def batch(self, hostile):
        """Up to 14 updates, most of them valid against the edges as
        the batch itself leaves them; ``hostile`` mixes in misses and
        malformed fields.  Returns (batch, the edge counts after it)."""
        rng, copies, updates = self.rng, dict(self.copies), []
        for _ in range(int(rng.integers(0, 15))):
            kind = KINDS[int(rng.integers(3))]
            present = [pair for pair, held in copies.items() if held > 0]
            if present and (kind != "insert" or rng.random() < 0.5):
                source, target = present[int(rng.integers(len(present)))]
            else:  # anything: a miss for delete / reweight, self-loops
                source, target = (int(v) for v in rng.integers(0, self.count, 2))
            weight = float(rng.integers(0, 5) / 2.0)  # 1.0 and 0.0 included
            edge_type = int(rng.integers(0, 3) * (rng.random() < 0.5))
            if hostile and rng.random() < 0.08:
                source = int(rng.choice([-1, self.count, self.count + 3]))
            if hostile and rng.random() < 0.08:
                target = int(rng.choice([-2, self.count]))
            if hostile and rng.random() < 0.08:
                weight = float(rng.choice([np.nan, np.inf, -0.5]))
            updates.append(EdgeUpdate(kind, source, target, weight, edge_type))
            step = {"insert": 1, "delete": -1, "reweight": 0}[kind]
            copies[source, target] = copies.get((source, target), 0) + step
            if self.undirected:
                copies[target, source] = copies.get((target, source), 0) + step
        return UpdateBatch.from_updates(updates), copies


@st.composite
def worlds(draw):
    return _World(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 7)),
        *(draw(st.booleans()) for _ in range(3)),
    )


def assert_same_staging(staged, theirs):
    """The staged adjacencies of the two implementations, bit for bit."""
    expected, _ = theirs
    assert sorted(staged) == sorted(expected)
    for vertex, (lo, hi, columns) in staged.items():
        for column, values in zip(COLUMNS, columns):
            mine = values[lo:hi]
            reference = getattr(expected[vertex], column)
            assert mine.dtype == reference.dtype, (vertex, column)
            np.testing.assert_array_equal(mine, reference, err_msg=f"{vertex} {column}")


def assert_same_graph(ours, reference):
    """Every CSR array, its dtype and whether it exists at all."""
    assert ours.is_undirected == reference.is_undirected
    for column in ("offsets", *COLUMNS, "vertex_types"):
        mine, theirs = getattr(ours, column), getattr(reference, column)
        assert (mine is None) == (theirs is None), column
        if mine is not None:
            assert mine.dtype == theirs.dtype, column
            np.testing.assert_array_equal(mine, theirs, err_msg=column)


def outcome(stage, batch):
    try:
        return stage(batch), None
    except GraphError as error:
        return None, str(error)


@given(world=worlds(), history=st.integers(0, 3), hostile=st.booleans())
@settings(max_examples=150, deadline=None)
def test_staging_equals_the_frozen_per_update_staging(world, history, hostile):
    with tempfile.TemporaryDirectory() as directory:
        dynamic = DynamicGraph(world.base, wal_path=f"{directory}/graph.wal")
        try:
            check_one_staging(world, dynamic, history, hostile)
        finally:
            dynamic.close()


def check_one_staging(world, dynamic, history, hostile):
    reference = ReferenceDynamicGraph(world.base)
    for _ in range(history):  # earlier epochs: an overlay to stage over
        batch, after = world.batch(hostile=False)
        if outcome(reference.commit, batch)[1] is None:
            dynamic.commit(batch)
            world.copies = after
    batch, _ = world.batch(hostile)
    ours, error = outcome(dynamic._stage_batch, batch)
    # On a throw-away copy: the frozen staging sets flags as it goes.
    theirs, expected_error = outcome(copy.copy(reference)._stage_batch, batch)
    assert error == expected_error
    if error is None:
        assert_same_staging(ours, theirs)
        stats = dynamic.stats
        applied = (stats.inserts_applied, stats.deletes_applied, stats.reweights_applied)
        dynamic.commit(batch)
        counts = (stats.inserts_applied, stats.deletes_applied, stats.reweights_applied)
        assert tuple(np.subtract(counts, applied)) == theirs[1]
        assert stats.conservation_balanced()
        return

    def state():
        return (
            dynamic.epoch,
            dict(dynamic._overlay),
            dynamic._weighted,
            dynamic._typed,
            dynamic.stats.updates_submitted,
            dynamic.wal.bytes_written,
            dynamic.wal.records_written,
        )

    before = state()  # rejected: graph, flags, counters and log as before
    with pytest.raises(GraphError):
        dynamic.commit(batch)
    assert state() == before
    assert_same_graph(dynamic.snapshot().graph, reference._materialize())


@given(world=worlds(), epochs=st.integers(1, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_epoch_chains_equal_base_plus_overlay_and_scratch_tables(world, epochs, data):
    with tempfile.TemporaryDirectory() as directory:
        wal = f"{directory}/graph.wal"
        dynamic = DynamicGraph(world.base, wal_path=wal, verify="full")
        reference = ReferenceDynamicGraph(world.base)
        graphs = {0: world.base}
        held = []  # snapshots of materialised epochs, as walks would hold them
        for epoch in range(1, epochs + 1):
            batch, after = world.batch(hostile=data.draw(st.booleans()))
            error = outcome(reference.commit, batch)[1]
            if error is not None:  # rejected batches ride along, harmless
                with pytest.raises(GraphError) as raised:
                    dynamic.commit(batch)
                assert str(raised.value) == error
                batch, after = UpdateBatch.from_updates([]), world.copies
                reference.commit(batch)
            assert dynamic.commit(batch) == epoch
            world.copies = after
            graphs[epoch] = reference._materialize()
            if data.draw(st.booleans()):  # else: an epoch never materialised
                snapshot = dynamic.snapshot()
                assert_same_graph(snapshot.graph, graphs[epoch])
                if data.draw(st.booleans()):
                    tables = snapshot.tables("alias")
                    assert_tables_identical(tables, VertexAliasTables(snapshot.graph))
                held.append(snapshot)
                del held[:-3]  # dropped ones must not disturb the rest
                for snapshot in held:  # later epochs never write into them
                    assert_same_graph(snapshot.graph, graphs[snapshot.epoch])
            if data.draw(st.integers(0, 3)) == 0:
                dynamic.compact()  # materialises the epoch if nothing did
                reference.compact()
                assert_same_graph(dynamic.base, reference._base)
                if not held or held[-1].epoch != epoch:
                    held.append(dynamic.snapshot())
        assert_same_graph(dynamic.snapshot().graph, graphs[epochs])
        assert dynamic.maintenance.verify_mismatches == 0
        assert dynamic.maintenance.verify_fallbacks == 0
        dynamic.close()
        replay_to = data.draw(st.integers(0, epochs))
        recovered = DynamicGraph.recover(world.base, wal, replay_to=replay_to)
        assert recovered.epoch == replay_to
        assert_same_graph(recovered.snapshot().graph, graphs[replay_to])
        recovered.close()
