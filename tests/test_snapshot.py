"""Tests for walk checkpoint/resume."""

import numpy as np
import pytest

from repro.algorithms import (
    MetaPathWalk,
    Node2Vec,
    PPR,
    UniformWalk,
    random_schemes,
)
from repro.cluster import (
    DistributedWalkEngine,
    FaultPlan,
    MessageFaults,
    NodeCrash,
    NodeSlowdown,
)
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro._npz import save_checked
from repro.core.snapshot import restore_checkpoint, save_checkpoint
from repro.errors import ReproError, SnapshotError
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from tests.helpers import assert_same_run, resumed_run
from tests.test_golden_walks import FAULT_CELLS, fault_engine
from tests.test_path_recording import WORKLOADS, make_config


@pytest.fixture
def graph():
    return uniform_degree_graph(150, 5, seed=0, undirected=True)


def _rewrite(path, edit, target=None):
    """Re-save the checkpoint at ``path`` (to ``target`` if given) after
    ``edit(arrays)``, with a checksum that is valid again."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    del arrays["checksum"]
    edit(arrays)
    save_checked(target if target is not None else path, arrays, np.uint64)


class TestPartialRun:
    def test_max_iterations_stops_early(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=20)
        engine = WalkEngine(graph, UniformWalk(), config)
        result = engine.run(max_iterations=5)
        assert result.stats.iterations == 5
        assert result.walkers.num_active == 30

    def test_run_can_be_called_again(self, graph):
        config = WalkConfig(num_walkers=30, max_steps=10)
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=3)
        result = engine.run()
        assert result.walkers.num_active == 0
        assert np.all(result.walk_lengths == 10)


class TestCheckpointResume:
    def test_resume_completes_walk(self, graph, tmp_path):
        config = WalkConfig(num_walkers=40, max_steps=15, record_paths=True)
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=6)
        checkpoint = tmp_path / "walk.npz"
        save_checkpoint(engine, checkpoint)

        resumed = restore_checkpoint(graph, UniformWalk(), config, checkpoint)
        result = resumed.run()
        assert result.walkers.num_active == 0
        assert np.all(result.walk_lengths == 15)
        for path in result.paths:
            assert len(path) == 16
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_resume_is_bit_identical(self, graph, tmp_path):
        """Interrupted + resumed == uninterrupted, path for path."""
        config = WalkConfig(
            num_walkers=25, max_steps=12, record_paths=True, seed=7
        )
        uninterrupted = WalkEngine(graph, UniformWalk(), config).run()

        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=4)
        checkpoint = tmp_path / "walk.npz"
        save_checkpoint(engine, checkpoint)
        resumed = restore_checkpoint(
            graph, UniformWalk(), config, checkpoint
        ).run()

        for a, b in zip(uninterrupted.paths, resumed.paths):
            np.testing.assert_array_equal(a, b)
        assert (
            uninterrupted.stats.counters.trials
            == resumed.stats.counters.trials
        )

    def test_resume_second_order_program(self, graph, tmp_path):
        config = WalkConfig(num_walkers=30, max_steps=10, seed=2)
        program = Node2Vec(p=0.5, q=2.0, biased=False)
        engine = WalkEngine(graph, program, config)
        engine.run(max_iterations=5)
        checkpoint = tmp_path / "n2v.npz"
        save_checkpoint(engine, checkpoint)
        resumed = restore_checkpoint(
            graph, Node2Vec(p=0.5, q=2.0, biased=False), config, checkpoint
        )
        result = resumed.run()
        assert result.walkers.num_active == 0
        assert np.all(result.walk_lengths == 10)

    def test_custom_state_restored(self, tmp_path):
        graph = assign_random_edge_types(
            uniform_degree_graph(80, 4, seed=1, undirected=True), 3, seed=2
        )
        schemes = random_schemes(5, 3, 3, seed=3)
        config = WalkConfig(num_walkers=40, max_steps=9, seed=4)
        engine = WalkEngine(graph, MetaPathWalk(schemes), config)
        engine.run(max_iterations=3)
        assignments = engine.walkers.state("metapath_scheme").copy()
        checkpoint = tmp_path / "mp.npz"
        save_checkpoint(engine, checkpoint)
        resumed = restore_checkpoint(
            graph, MetaPathWalk(schemes), config, checkpoint
        )
        np.testing.assert_array_equal(
            resumed.walkers.state("metapath_scheme"), assignments
        )

    def test_termination_stats_carry_over(self, graph, tmp_path):
        config = WalkConfig(
            num_walkers=300, max_steps=None, termination_probability=0.3, seed=5
        )
        engine = WalkEngine(graph, PPR(), config)
        engine.run(max_iterations=4)
        dead_so_far = engine.stats.termination.by_probability
        assert dead_so_far > 0
        checkpoint = tmp_path / "ppr.npz"
        save_checkpoint(engine, checkpoint)
        result = restore_checkpoint(graph, PPR(), config, checkpoint).run()
        assert result.stats.termination.by_probability == 300


class TestValidation:
    def test_walker_count_mismatch(self, graph, tmp_path):
        config = WalkConfig(num_walkers=10, max_steps=5)
        engine = WalkEngine(graph, UniformWalk(), config)
        checkpoint = tmp_path / "walk.npz"
        save_checkpoint(engine, checkpoint)
        other = WalkConfig(num_walkers=11, max_steps=5)
        with pytest.raises(ReproError):
            restore_checkpoint(graph, UniformWalk(), other, checkpoint)

    def test_missing_recorder_payload(self, graph, tmp_path):
        config_plain = WalkConfig(num_walkers=10, max_steps=5)
        engine = WalkEngine(graph, UniformWalk(), config_plain)
        checkpoint = tmp_path / "walk.npz"
        save_checkpoint(engine, checkpoint)
        config_recording = WalkConfig(
            num_walkers=10, max_steps=5, record_paths=True
        )
        with pytest.raises(ReproError):
            restore_checkpoint(
                graph, UniformWalk(), config_recording, checkpoint
            )


class TestCorruptFiles:
    """Damaged checkpoints fail with SnapshotError, never a raw
    numpy/zipfile traceback."""

    @pytest.fixture
    def checkpoint(self, graph, tmp_path):
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=3)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        return path

    def test_truncated_file(self, graph, checkpoint):
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[: len(raw) // 3])
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        with pytest.raises(SnapshotError, match="unreadable|malformed"):
            restore_checkpoint(graph, UniformWalk(), config, checkpoint)

    def test_flipped_bytes_fail_checksum(self, graph, checkpoint):
        raw = bytearray(checkpoint.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        checkpoint.write_bytes(bytes(raw))
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        with pytest.raises(SnapshotError):
            restore_checkpoint(graph, UniformWalk(), config, checkpoint)

    def test_not_a_checkpoint(self, graph, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"definitely not a zip archive")
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        with pytest.raises(SnapshotError):
            restore_checkpoint(graph, UniformWalk(), config, bogus)

    def test_missing_file(self, graph, tmp_path):
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        with pytest.raises(SnapshotError):
            restore_checkpoint(
                graph, UniformWalk(), config, tmp_path / "absent.npz"
            )

    def test_version_skew(self, graph, checkpoint, tmp_path):
        skewed = tmp_path / "skewed.npz"
        _rewrite(
            checkpoint,
            lambda arrays: arrays.update(version=np.asarray([99])),
            target=skewed,
        )
        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        with pytest.raises(SnapshotError, match="version"):
            restore_checkpoint(graph, UniformWalk(), config, skewed)


class _Exploit:
    """Unpickling this would run ``FIRED.append``."""

    FIRED: list = []

    def __reduce__(self):
        return (_Exploit.FIRED.append, ("executed",))


def _pickled(obj):
    import pickle

    return np.frombuffer(pickle.dumps(obj), dtype=np.uint8)


class TestMalformedContentIsTyped:
    """A file with a valid checksum but impossible content — counter
    arrays of the wrong length or with fractions, an RNG state that is
    not six integers — raises :class:`SnapshotError` and executes
    nothing it carries."""

    CONFIG = WalkConfig(num_walkers=40, max_steps=12, seed=5)
    OPTIONS = dict(
        fault_plan=FaultPlan(
            seed=11,
            default_faults=MessageFaults(drop=0.05, duplicate=0.03),
            slowdowns=(NodeSlowdown(node=1, factor=4.0),),
        ),
        checkpoint_every=4,
    )

    @pytest.fixture
    def checkpoint(self, graph, tmp_path):
        engine = DistributedWalkEngine(
            graph, UniformWalk(), self.CONFIG, num_nodes=4, **self.OPTIONS
        )
        engine.run(max_iterations=6)
        assert engine.health is not None
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)
        return path

    def _restore(self, graph, path):
        return restore_checkpoint(
            graph, UniformWalk(), self.CONFIG, path, **self.OPTIONS
        )

    def test_intact_file_restores(self, graph, checkpoint):
        assert self._restore(graph, checkpoint).stats.iterations == 6

    MALFORMED = {
        "stats-short": ("stats_scalars", lambda a: a[:5]),
        "stats-long": ("stats_scalars", lambda a: np.append(a, 0)),
        "stats-fraction": ("stats_scalars", lambda a: a + 0.5),
        "stats-nan": ("stats_scalars", lambda a: a.astype(np.float64) * np.nan),
        "stats-2d": ("stats_scalars", lambda a: a.reshape(1, -1)),
        "stats-bool": ("stats_scalars", lambda a: a.astype(bool)),
        "cluster-short": ("cluster_scalars", lambda a: a[:-1]),
        "cluster-fraction": ("cluster_scalars", lambda a: a + 0.5),
        "delivery-kind-missing": ("fault_counters", lambda a: a[:-1]),
        "delivery-field-missing": ("fault_counters", lambda a: a[:, :-1]),
        "delivery-1d": ("fault_counters", lambda a: a[0]),
        "delivery-fraction": ("fault_counters", lambda a: a + 0.25),
        "health-short": ("health_stats", lambda a: a[:-1]),
        "health-fraction": ("health_stats", lambda a: a + 0.5),
        "rng-short": ("rng_state", lambda a: a[:5]),
        "rng-signed": ("rng_state", lambda a: a.astype(np.int64)),
        "rng-float": ("rng_state", lambda a: a.astype(np.float64)),
        "rng-flag-2": (
            "rng_state",
            lambda a: np.where(np.arange(6) == 4, 2, a).astype(a.dtype),
        ),
        "fault-rng-short": ("fault_rng_state", lambda a: a[:5]),
        "fault-rng-bytes": ("fault_rng_state", lambda a: a.view(np.uint8)),
        # The recovery point a later crash would replay from.
        "recovery-rng-short": ("recovery_rng_state", lambda a: a[:5]),
        "recovery-stats-fraction": ("recovery_stats_scalars", lambda a: a + 0.5),
        "recovery-cluster-short": ("recovery_cluster_scalars", lambda a: a[:-1]),
    }

    @pytest.mark.parametrize("key,edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_array_is_refused(self, graph, checkpoint, key, edit):
        _rewrite(checkpoint, lambda arrays: arrays.update({key: edit(arrays[key])}))
        with pytest.raises(SnapshotError):
            self._restore(graph, checkpoint)

    @pytest.mark.parametrize("key", ["rng_state", "fault_rng_state"])
    def test_crafted_pickle_is_never_loaded(self, graph, checkpoint, key):
        """Version 3 stored these as pickles of the generator state; a
        crafted one ran code inside ``restore_checkpoint``."""
        _Exploit.FIRED.clear()
        _rewrite(checkpoint, lambda arrays: arrays.update({key: _pickled(_Exploit())}))
        with pytest.raises(SnapshotError, match="RNG state"):
            self._restore(graph, checkpoint)
        assert _Exploit.FIRED == []

    def test_version_3_file_is_refused_by_name(self, graph, checkpoint):
        """Reading a v3 file's RNG state *is* the unpickling, so there
        is no converter: it is refused naming both versions."""
        engine = self._restore(graph, checkpoint)

        def downgrade(arrays):
            arrays["version"] = np.asarray([3])
            arrays["rng_state"] = _pickled(engine._rng.bit_generator.state)

        _rewrite(checkpoint, downgrade)
        with pytest.raises(SnapshotError, match=r"version 3 .*expected 4"):
            self._restore(graph, checkpoint)

    def test_no_pickle_in_the_checkpoint_modules(self):
        import repro.cluster.faults as faults
        import repro.core.snapshot as snapshot

        assert not hasattr(snapshot, "pickle")
        assert not hasattr(faults, "pickle")


class TestCorruptionIsTyped:
    """Damage is distinguishable from absence: torn or bit-flipped
    files raise :class:`SnapshotCorruptError` (a :class:`SnapshotError`
    subclass), so callers can catch corruption specifically."""

    def _flip_middle_byte(self, path):
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_checkpoint_bit_flip_raises_corrupt_error(self, graph, tmp_path):
        from repro.errors import SnapshotCorruptError

        config = WalkConfig(num_walkers=20, max_steps=10, seed=1)
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=3)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        self._flip_middle_byte(path)
        with pytest.raises(SnapshotCorruptError):
            restore_checkpoint(graph, UniformWalk(), config, path)

    def test_graph_file_bit_flip_raises_corrupt_error(self, graph, tmp_path):
        from repro.errors import SnapshotCorruptError
        from repro.graph.io import load_binary, save_binary

        path = tmp_path / "graph.npz"
        save_binary(graph, path)
        assert load_binary(path) == graph  # intact file round-trips
        self._flip_middle_byte(path)
        with pytest.raises(SnapshotCorruptError):
            load_binary(path)

    def test_graph_file_truncation_raises_corrupt_error(self, graph, tmp_path):
        from repro.errors import SnapshotCorruptError
        from repro.graph.io import load_binary, save_binary

        path = tmp_path / "graph.npz"
        save_binary(graph, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotCorruptError):
            load_binary(path)

    def test_missing_graph_file_is_not_corruption(self, tmp_path):
        from repro.errors import GraphFormatError, SnapshotCorruptError
        from repro.graph.io import load_binary

        with pytest.raises(GraphFormatError) as excinfo:
            load_binary(tmp_path / "absent.npz")
        assert not isinstance(excinfo.value, SnapshotCorruptError)


class TestDistributedCheckpoint:
    def test_round_trip_resumes_bit_identically(self, graph, tmp_path):
        config = WalkConfig(
            num_walkers=60, max_steps=16, record_paths=True, seed=3
        )
        plan = FaultPlan(
            seed=11,
            crashes=(NodeCrash(superstep=4, node=1),),
            default_faults=MessageFaults(drop=0.05, duplicate=0.03),
        )

        def make():
            return DistributedWalkEngine(
                graph,
                Node2Vec(p=0.5, q=2.0, biased=False),
                config,
                num_nodes=4,
                fault_plan=plan,
                checkpoint_every=5,
            )

        uninterrupted = make().run()
        engine = make()
        engine.run(max_iterations=7)
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)
        resumed = restore_checkpoint(
            graph,
            Node2Vec(p=0.5, q=2.0, biased=False),
            config,
            path,
            fault_plan=plan,
            checkpoint_every=5,
        )
        result = resumed.run()
        for a, b in zip(uninterrupted.paths, result.paths):
            np.testing.assert_array_equal(a, b)
        # Cluster accounting carries across the restore.
        assert (
            result.cluster.num_supersteps
            == uninterrupted.cluster.num_supersteps
        )
        assert result.cluster.recovery.crashes == 1
        result.cluster.delivery.check_conservation()

    # A node dies for good at superstep 3: the saved owner table has
    # re-homed its vertices, and the resumed run must follow it.
    DEGRADED = dict(
        num_nodes=4,
        fault_plan=FaultPlan(
            seed=11, crashes=(NodeCrash(superstep=3, node=2, restart=False),)
        ),
        checkpoint_every=5,
        degrade_on_crash=True,
    )

    @pytest.mark.parametrize("with_table", [True, False])
    def test_owner_table_round_trip(self, graph, tmp_path, with_table):
        """Saved with every checkpoint; a file without the key (what a
        healthy run used to write) resumes on the partition's own table."""
        config = WalkConfig(num_walkers=60, max_steps=16, record_paths=True, seed=3)
        options = self.DEGRADED if with_table else dict(num_nodes=4)

        def make():
            return DistributedWalkEngine(
                graph, Node2Vec(p=0.5, q=2.0, biased=False), config, **options
            )

        uninterrupted = make().run()
        engine = make()
        engine.run(max_iterations=7)
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)
        if not with_table:
            _rewrite(path, lambda arrays: arrays.pop("cluster_owner_lookup"))
        resumed = restore_checkpoint(
            graph, Node2Vec(p=0.5, q=2.0, biased=False), config, path, **options
        )
        np.testing.assert_array_equal(resumed._owner_table, engine._owner_table)
        assert (2 in resumed._owner_table) != with_table
        result = resumed.run()
        for a, b in zip(uninterrupted.paths, result.paths):
            np.testing.assert_array_equal(a, b)
        assert result.stats.messages_sent == uninterrupted.stats.messages_sent
        assert (
            result.cluster.simulated_seconds
            == uninterrupted.cluster.simulated_seconds
        )
        np.testing.assert_array_equal(
            result.cluster.network.matrix(), uninterrupted.cluster.network.matrix()
        )

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda table: table[:-1], "does not match the graph"),
            (lambda table: table.astype(np.float64), "does not match the graph"),
            (lambda table: np.where(table == 0, 4, table), r"outside \[0, 4\)"),
            (lambda table: np.where(table == 0, -1, table), r"outside \[0, 4\)"),
            (lambda table: np.where(table == 0, 2, table), "dead node"),
            # Dropped: the partition's table still homes node 2's range.
            (None, "dead node"),
        ],
        ids=["short", "float", "node-4", "node-minus-1", "on-dead-node", "dropped"],
    )
    def test_invalid_owner_table_is_rejected(self, graph, tmp_path, edit, match):
        config = WalkConfig(num_walkers=20, max_steps=8, seed=2)
        engine = DistributedWalkEngine(graph, UniformWalk(), config, **self.DEGRADED)
        engine.run(max_iterations=5)
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)

        def corrupt(arrays):
            table = arrays.pop("cluster_owner_lookup")
            if edit is not None:
                arrays["cluster_owner_lookup"] = edit(table)

        _rewrite(path, corrupt)
        with pytest.raises(SnapshotError, match=match):
            restore_checkpoint(graph, UniformWalk(), config, path, **self.DEGRADED)

    def test_node_count_mismatch(self, graph, tmp_path):
        config = WalkConfig(num_walkers=20, max_steps=8, seed=2)
        engine = DistributedWalkEngine(
            graph, UniformWalk(), config, num_nodes=4
        )
        engine.run(max_iterations=2)
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)
        with pytest.raises(SnapshotError, match="4 nodes"):
            restore_checkpoint(
                graph, UniformWalk(), config, path, num_nodes=8
            )

    def test_local_checkpoint_rejects_engine_options(self, graph, tmp_path):
        config = WalkConfig(num_walkers=10, max_steps=5)
        engine = WalkEngine(graph, UniformWalk(), config)
        path = tmp_path / "walk.npz"
        save_checkpoint(engine, path)
        with pytest.raises(SnapshotError):
            restore_checkpoint(
                graph, UniformWalk(), config, path, degrade_on_crash=True
            )


class TestResumedFaultRunIsExact:
    """Both fault cells of ``tests/test_golden_walks.py``, saved to a
    file mid-run and resumed: paths and the whole simulated bill equal
    the uninterrupted run's.  The file carries the in-memory recovery
    point (a crash after the resume replays from the last periodic
    checkpoint, and no extra point zero is charged) and the monitor's
    newly cleared suspicions (the re-homed vertices still move back)."""

    PAUSES = (1, 6, 11, 19, 30)

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return {cell: fault_engine(cell).run() for cell in FAULT_CELLS}

    @staticmethod
    def _restore(cell):
        make_program, graph, _ = WORKLOADS["node2vec"]
        config = make_config("node2vec", max_steps=40)
        return lambda path: restore_checkpoint(
            graph, make_program(), config, path, num_nodes=4, **FAULT_CELLS[cell]
        )

    @pytest.mark.parametrize("pause", PAUSES)
    @pytest.mark.parametrize("cell", sorted(FAULT_CELLS))
    def test_paths_and_bill_match(self, uninterrupted, cell, pause, tmp_path):
        resumed = resumed_run(
            fault_engine(cell), pause, tmp_path / "dist.npz", self._restore(cell)
        )
        assert_same_run(resumed, uninterrupted[cell])

    def test_file_without_the_new_keys_still_resumes(self, uninterrupted, tmp_path):
        """A v4 file written before the recovery point and the cleared
        suspicions were saved resumes as it did then: the same walk,
        from a fresh recovery point."""
        cell = "node2vec-4node-degraded"
        engine = fault_engine(cell)
        engine.run(max_iterations=19)
        path = tmp_path / "dist.npz"
        save_checkpoint(engine, path)

        def strip(arrays):
            new = [key for key in arrays if key.startswith("recovery_")]
            assert new and "health_newly_cleared" in arrays
            for key in new + ["health_newly_cleared"]:
                del arrays[key]

        _rewrite(path, strip)
        result = self._restore(cell)(path).run()
        whole = uninterrupted[cell]
        for a, b in zip(result.paths, whole.paths):
            np.testing.assert_array_equal(a, b)
        assert result.stats.total_steps == whole.stats.total_steps
        taken = result.cluster.recovery.checkpoints_taken
        assert taken == whole.cluster.recovery.checkpoints_taken + 1
