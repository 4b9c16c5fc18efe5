"""Chaos tests for the dynamic-graph plane: crashes around the WAL.

Two kill points matter for the durability story:

* **mid-WAL-append** — the process dies with a torn record at the tail
  of the log.  Recovery must land on the *last committed* epoch, report
  the torn bytes (``WalRecoveryReport.balanced()`` is the conservation
  law: scanned == intact + truncated), repair the tail, and keep
  accepting commits.
* **mid-compaction** — the process dies after the compacted base is
  durably on disk but before the WAL is truncated.  Reloading must not
  double-apply the already-folded records.

The CI chaos matrix runs this file as the ``churn`` profile
(``REPRO_CHAOS_PROFILE=churn``) under several ``REPRO_CHAOS_SEED``
values to widen the sampled update streams; locally a small default
seed set keeps the sweep fast.
"""

import os

import numpy as np
import pytest

from repro.algorithms import UniformWalk
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.builder import assign_random_weights, from_edges
from repro.graph.dynamic import DynamicGraph, generate_churn_batches
from repro.graph.generators import erdos_renyi_graph
from repro.graph.wal import WriteAheadLog, _InjectedCrash

# CI widens coverage by re-running the sweep under extra seeds.
CHAOS_SEEDS = (
    [int(os.environ["REPRO_CHAOS_SEED"])]
    if os.environ.get("REPRO_CHAOS_SEED")
    else [1, 2]
)

CHAOS_PROFILE = os.environ.get("REPRO_CHAOS_PROFILE", "churn")

# The dedicated churn profile commits more epochs per scenario.
NUM_EPOCHS = 6 if CHAOS_PROFILE == "churn" else 3


def churn_graph(seed):
    graph = erdos_renyi_graph(50, 5.0, seed=seed, undirected=True)
    return assign_random_weights(graph, seed=seed + 1)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("cut", [0, 1, 7, 8, 9, 20])
def test_kill_mid_wal_append(tmp_path, seed, cut):
    """Recovery after a torn append lands on the last committed epoch."""
    wal_path = tmp_path / "graph.wal"
    base = churn_graph(seed)
    batches = generate_churn_batches(
        base, num_epochs=NUM_EPOCHS + 1, updates_per_epoch=12, seed=seed
    )
    dyn = DynamicGraph(base, wal_path=wal_path)
    for batch in batches[:NUM_EPOCHS]:
        dyn.commit(batch)
    expected = dyn.snapshot().graph

    dyn.wal.inject_crash_after_bytes = cut
    with pytest.raises(_InjectedCrash):
        dyn.commit(batches[NUM_EPOCHS])
    # The in-process instance never installed the torn epoch either.
    assert dyn.epoch == NUM_EPOCHS
    dyn.close()

    recovered = DynamicGraph.recover(base, wal_path)
    assert recovered.epoch == NUM_EPOCHS
    assert recovered.snapshot().graph == expected
    report = recovered.stats.recovery
    assert report is not None and report.balanced()
    assert report.records_replayed == NUM_EPOCHS
    assert report.bytes_truncated == cut
    if cut:
        assert report.records_torn == 1
        assert report.torn_detail is not None

    # The tail was repaired in place: the log accepts further commits,
    # and a second recovery replays them without complaint.
    recovered.commit(batches[NUM_EPOCHS])
    final = recovered.snapshot().graph
    recovered.close()
    replayed = DynamicGraph.recover(base, wal_path)
    assert replayed.epoch == NUM_EPOCHS + 1
    assert replayed.snapshot().graph == final
    assert replayed.stats.recovery.bytes_truncated == 0


def test_torn_tail_every_byte_boundary(tmp_path):
    """Sweep the kill point across every byte of one WAL frame."""
    base = from_edges(6, [(0, 1), (1, 2), (2, 3)])
    first, second = generate_churn_batches(
        base, num_epochs=2, updates_per_epoch=3, seed=0
    )
    probe = DynamicGraph(base, wal_path=tmp_path / "probe.wal")
    probe.commit(first)
    durable_bytes = probe.wal.bytes_written
    probe.commit(second)
    frame_bytes = probe.wal.bytes_written - durable_bytes
    probe.close()

    for cut in range(frame_bytes):
        wal_path = tmp_path / f"cut{cut}.wal"
        dyn = DynamicGraph(base, wal_path=wal_path)
        dyn.commit(first)  # epoch 1: fully durable
        dyn.wal.inject_crash_after_bytes = cut
        with pytest.raises(_InjectedCrash):
            dyn.commit(second)
        dyn.close()

        recovered = DynamicGraph.recover(base, wal_path)
        report = recovered.stats.recovery
        assert recovered.epoch == 1, f"cut={cut}"
        assert report.balanced(), f"cut={cut}"
        assert report.bytes_truncated == cut, f"cut={cut}"
        recovered.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_kill_mid_compaction(tmp_path, seed, monkeypatch):
    """A crash between base persist and WAL truncate never
    double-applies folded records."""
    wal_path = tmp_path / "graph.wal"
    npz_path = tmp_path / "base.npz"
    base = churn_graph(seed)
    batches = generate_churn_batches(
        base, num_epochs=NUM_EPOCHS, updates_per_epoch=10, seed=seed + 50
    )
    dyn = DynamicGraph(base, wal_path=wal_path)
    for batch in batches:
        dyn.commit(batch)
    expected = dyn.snapshot().graph

    def crash(log, records):
        assert npz_path.exists()  # the base is durable, the log untouched
        raise _InjectedCrash("injected crash between base write and WAL truncation")

    with monkeypatch.context() as patch:
        patch.setattr(WriteAheadLog, "rewrite", crash)
        with pytest.raises(_InjectedCrash):
            dyn.save_compacted(npz_path)
    dyn.close()

    # The compacted base is durable; the stale WAL still holds every
    # epoch.  Loading must skip the folded records, not re-apply them.
    loaded = DynamicGraph.load_compacted(npz_path, wal_path)
    assert loaded.epoch == NUM_EPOCHS
    assert loaded.snapshot().graph == expected
    assert loaded.stats.conservation_balanced()

    # And the loaded instance keeps working: next commit, next epoch.
    more = generate_churn_batches(
        expected, num_epochs=1, updates_per_epoch=5, seed=seed + 99
    )[0]
    loaded.commit(more)
    assert loaded.epoch == NUM_EPOCHS + 1
    loaded.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_walks_identical_after_crash_recovery(tmp_path, seed):
    """A walk on the recovered graph is bit-identical to a walk on the
    original at the same epoch — the straggler of a crash is invisible
    to the logical walk."""
    wal_path = tmp_path / "graph.wal"
    base = churn_graph(seed + 7)
    batches = generate_churn_batches(
        base, num_epochs=NUM_EPOCHS, updates_per_epoch=8, seed=seed + 7
    )
    dyn = DynamicGraph(base, wal_path=wal_path)
    for batch in batches:
        dyn.commit(batch)
    config = WalkConfig(
        num_walkers=40, max_steps=8, record_paths=True, seed=seed
    )
    original = WalkEngine(dyn, UniformWalk(), config).run()

    # A batch valid against the *current* edge set, so staging succeeds
    # and the injected crash fires inside the WAL append itself.
    extra = generate_churn_batches(
        dyn.snapshot().graph, num_epochs=1, updates_per_epoch=8,
        seed=seed + 123,
    )[0]
    dyn.wal.inject_crash_after_bytes = 3
    with pytest.raises(_InjectedCrash):
        dyn.commit(extra)
    dyn.close()

    recovered = DynamicGraph.recover(base, wal_path)
    rerun = WalkEngine(recovered, UniformWalk(), config).run()
    assert rerun.stats.graph_epoch == original.stats.graph_epoch
    for original_path, rerun_path in zip(original.paths, rerun.paths):
        np.testing.assert_array_equal(original_path, rerun_path)
    assert recovered.stats.conservation_balanced()
    recovered.close()
