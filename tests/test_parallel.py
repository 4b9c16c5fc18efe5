"""Tests for multi-process walk execution."""

import dataclasses
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import parallel
from repro.algorithms import DeepWalk, Node2Vec, PPR, UniformWalk
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import ConfigError, ObsError, SamplingError, WorkerError
from repro.graph.builder import assign_random_weights
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, EdgeUpdate
from repro.graph.generators import erdos_renyi_graph, star_graph, uniform_degree_graph
from repro.graph.prepared import PreparedGraph
from repro.parallel import run_parallel_walk, shard_config
from repro.sampling.alias import VertexAliasTables, build_alias_segments
from repro.service.deadline import CancelToken
from repro.service.pool import SupervisedPool

from tests.helpers import diamond_graph


@pytest.fixture
def graph():
    return uniform_degree_graph(200, 5, seed=0, undirected=True)


class TestShardConfig:
    def test_walker_counts_partition(self, graph):
        config = WalkConfig(num_walkers=103, max_steps=5)
        shards = shard_config(config, graph, 4)
        assert sum(s.num_walkers for s in shards) == 103
        assert len(shards) == 4

    def test_default_starts_preserved_globally(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5)
        shards = shard_config(config, graph, 3)
        starts = np.concatenate([s.resolve_starts(graph) for s in shards])
        np.testing.assert_array_equal(
            starts, np.arange(10) % graph.num_vertices
        )

    def test_explicit_starts_partition(self, graph):
        explicit = np.arange(20) * 3 % graph.num_vertices
        config = WalkConfig(num_walkers=20, start_vertices=explicit, max_steps=5)
        shards = shard_config(config, graph, 4)
        starts = np.concatenate([s.resolve_starts(graph) for s in shards])
        np.testing.assert_array_equal(starts, explicit)

    def test_distinct_seeds(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=5, seed=9)
        shards = shard_config(config, graph, 4)
        assert len({s.seed for s in shards}) == 4

    def test_more_shards_than_walkers(self, graph):
        config = WalkConfig(num_walkers=3, max_steps=5)
        shards = shard_config(config, graph, 8)
        assert len(shards) == 3

    def test_invalid_shards(self, graph):
        with pytest.raises(ConfigError):
            shard_config(WalkConfig(num_walkers=5), graph, 0)

    def test_streaming_to_one_file_is_refused(self, graph, tmp_path):
        # The shards used to drop the target: no file, ``paths=None``.
        config = WalkConfig(
            num_walkers=10, max_steps=5, stream_paths_to=str(tmp_path / "corpus")
        )
        with pytest.raises(ConfigError, match="cannot stream to one file"):
            run_parallel_walk(graph, UniformWalk(), config, num_workers=2)

    def test_shards_keep_every_field_they_do_not_split(self, graph):
        config = WalkConfig(
            walks_per_vertex=2,
            max_steps=None,
            termination_probability=0.25,
            seed=9,
            record_paths=True,
        )
        split = {"num_walkers", "walks_per_vertex", "start_vertices",
                 "start_distribution", "seed"}
        for shard in shard_config(config, graph, 3):
            for field in dataclasses.fields(WalkConfig):
                if field.name not in split:
                    assert getattr(shard, field.name) == getattr(config, field.name)

    def test_start_vertices_shorter_than_walkers_rejected(self, graph):
        config = WalkConfig(
            num_walkers=10,
            max_steps=5,
            start_vertices=np.zeros(4, dtype=np.int64),
        )
        with pytest.raises(ConfigError, match="4 start vertices"):
            shard_config(config, graph, 2)
        with pytest.raises(ConfigError, match="4 start vertices"):
            run_parallel_walk(graph, UniformWalk(), config, num_workers=2)

    def test_seed_streams_independent_across_shards(self, graph):
        """Shards with identical starts must not replay each other."""
        config = WalkConfig(
            num_walkers=40,
            max_steps=12,
            record_paths=True,
            seed=7,
            start_vertices=np.zeros(40, dtype=np.int64),
        )
        shards = shard_config(config, graph, 2)
        results = [
            WalkEngine(graph, UniformWalk(), shard).run() for shard in shards
        ]
        identical = sum(
            np.array_equal(a, b)
            for a, b in zip(results[0].paths, results[1].paths)
        )
        # A handful of 12-step coincidences is plausible; wholesale
        # duplication means the shards shared a random stream.
        assert identical < len(results[0].paths) // 2

    def test_shard_seeds_differ_across_base_seeds(self, graph):
        config_a = WalkConfig(num_walkers=8, max_steps=5, seed=1)
        config_b = WalkConfig(num_walkers=8, max_steps=5, seed=2)
        seeds_a = {s.seed for s in shard_config(config_a, graph, 4)}
        seeds_b = {s.seed for s in shard_config(config_b, graph, 4)}
        assert not seeds_a & seeds_b

    def test_shard_seeds_never_alias_across_master_seeds(self, graph):
        # (seed, shard) -> shard seed must be injective for every master
        # seed SeedSequence accepts, 2**31 and above included.
        masters = [0, 1, 2, 2146, 2147, 2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**40]
        shard_seeds = [
            shard.seed
            for seed in masters
            for shard in shard_config(
                WalkConfig(num_walkers=8, max_steps=5, seed=seed), graph, 8
            )
        ]
        assert len(set(shard_seeds)) == len(shard_seeds) == 80

    def test_master_seeds_2_pow_31_apart_walk_differently(self, graph):
        def corpus(seed):
            config = WalkConfig(
                num_walkers=20, max_steps=8, record_paths=True, seed=seed
            )
            result = run_parallel_walk(graph, UniformWalk(), config, num_workers=2)
            return [path.tolist() for path in result.paths]

        assert corpus(0) != corpus(2**31)


class TestParallelExecution:
    def test_single_worker_matches_walker_count(self, graph):
        config = WalkConfig(num_walkers=60, max_steps=10, record_paths=True)
        result = run_parallel_walk(graph, UniformWalk(), config, num_workers=1)
        assert result.walk_lengths.size == 60
        assert len(result.paths) == 60
        assert result.stats.total_steps == 600

    def test_multi_worker_counts(self, graph):
        config = WalkConfig(num_walkers=80, max_steps=8, record_paths=True)
        result = run_parallel_walk(graph, DeepWalk(), config, num_workers=4)
        assert result.num_workers == 4
        assert result.walk_lengths.size == 80
        assert result.stats.total_steps == 80 * 8
        assert all(len(path) == 9 for path in result.paths)

    def test_paths_valid(self, graph):
        config = WalkConfig(num_walkers=40, max_steps=6, record_paths=True)
        result = run_parallel_walk(
            graph, Node2Vec(p=2, q=0.5, biased=False), config, num_workers=2
        )
        for path in result.paths:
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_termination_accounting_merged(self, graph):
        config = WalkConfig(
            num_walkers=200,
            max_steps=None,
            termination_probability=0.2,
        )
        result = run_parallel_walk(graph, PPR(), config, num_workers=3)
        stats = result.stats
        assert stats.termination.total == 200
        # Shards of unequal length: the merged per-iteration series is
        # the padded element-wise sum, as long as the slowest shard.
        assert len(stats.active_per_iteration) == stats.iterations
        assert stats.active_per_iteration[0] == 200
        assert stats.active_per_iteration[-1] > 0

    def test_distribution_matches_single_engine(self):
        """Sharded executions draw from the same law."""
        graph = diamond_graph()
        config = WalkConfig(
            num_walkers=8000,
            max_steps=1,
            record_paths=True,
            seed=3,
            start_vertices=np.full(8000, 1, dtype=np.int64),
        )
        parallel = run_parallel_walk(
            graph, UniformWalk(), config, num_workers=4
        )
        single = WalkEngine(graph, UniformWalk(), config).run()
        a = np.bincount([int(p[-1]) for p in parallel.paths], minlength=4)
        b = np.bincount([int(p[-1]) for p in single.paths], minlength=4)
        assert np.abs(a / 8000 - b / 8000).max() < 0.03

    def test_pd_evaluation_rate_unchanged(self, graph):
        """Sharding must not change per-step sampling cost."""
        program_args = dict(p=0.5, q=2.0, biased=False)
        config = WalkConfig(num_walkers=200, max_steps=10, seed=4)
        parallel = run_parallel_walk(
            graph, Node2Vec(**program_args), config, num_workers=4
        )
        single = WalkEngine(graph, Node2Vec(**program_args), config).run()
        assert parallel.stats.pd_evaluations_per_step == pytest.approx(
            single.stats.pd_evaluations_per_step, rel=0.15
        )


class CommitDuringSetup(UniformWalk):
    """A writer that lands between the first shard's start and the
    next one's."""

    def __init__(self, dyn):
        self.dyn = dyn

    def setup_walkers(self, graph, walkers, rng):
        if self.dyn.epoch == 1:
            self.dyn.commit([EdgeUpdate("insert", 3, 4)])


class TestDynamicGraphSharding:
    """A sharded walk on a dynamic graph reports the epoch it pinned
    and the graph's live maintenance counters, like an unsharded one."""

    @pytest.fixture
    def dyn(self, graph):
        dyn = DynamicGraph(graph)
        dyn.commit([EdgeUpdate("insert", 0, 1), EdgeUpdate("insert", 1, 2)])
        return dyn

    @pytest.mark.parametrize("pinned", [False, True], ids=["graph", "snapshot"])
    def test_epoch_and_live_maintenance_survive_the_merge(self, dyn, pinned):
        config = WalkConfig(num_walkers=40, max_steps=6, seed=2)
        graph = dyn.snapshot() if pinned else dyn
        result = run_parallel_walk(graph, DeepWalk(), config, num_workers=2)
        assert result.num_workers == 2
        assert result.stats.graph_epoch == 1
        assert result.stats.maintenance is dyn.maintenance
        for shard in ("0", "1"):
            assert result.metrics.value("walk_graph_epoch", shard=shard) == 1

    def test_one_snapshot_is_pinned_for_every_shard(self, dyn, monkeypatch):
        """Each shard used to pin its own snapshot when its engine
        started, so a commit in between split the walk across epochs."""
        monkeypatch.setattr(
            SupervisedPool,
            "run",
            lambda self, fn, payloads, describe=None, cancel=None: [
                fn(p) for p in payloads
            ],
        )
        config = WalkConfig(num_walkers=40, max_steps=4, seed=2)
        result = run_parallel_walk(
            dyn, CommitDuringSetup(dyn), config, num_workers=2
        )
        assert dyn.epoch == 2
        assert result.stats.graph_epoch == 1
        assert result.metrics.value("walk_graph_epoch", shard="1") == 1

    def test_the_epoch_table_is_built_once_through_its_owner(self, graph):
        """The shards used to build a fresh epoch's table each, in forked
        workers: no build reached the owner's counters, and the next
        unsharded walk on that epoch built it again."""
        weighted = assign_random_weights(graph, seed=3)
        config = WalkConfig(num_walkers=40, max_steps=6, seed=2)
        moved = []
        for num_workers in (1, 2):
            dyn = DynamicGraph(weighted)
            dyn.snapshot().tables("alias")
            dyn.commit([EdgeUpdate("insert", 0, 1, 2.0)])
            dyn.commit([EdgeUpdate("insert", 5, 9, 3.0)])
            run_parallel_walk(dyn, DeepWalk(), config, num_workers=num_workers)
            assert dyn.snapshot()._tables is not None
            after_walk = dataclasses.asdict(dyn.maintenance)
            WalkEngine(dyn, DeepWalk(), config).run()
            assert dataclasses.asdict(dyn.maintenance) == after_walk
            moved.append(after_walk)
        assert moved[1] == moved[0]
        assert moved[0]["vertices_rebuilt"] == 4
        assert moved[0]["full_rebuilds"] == 1

    def test_unit_weights_walk_the_owners_epoch_table(self, graph, monkeypatch):
        """On an unweighted epoch, ``unit_weights`` is the owner's table:
        neither an engine nor a shard builds a second one."""
        dyn = DynamicGraph(graph)
        dyn.snapshot().tables("alias")
        dyn.commit([EdgeUpdate("insert", 0, 1)])
        owners = dyn.snapshot().tables("alias")
        built = dataclasses.asdict(dyn.maintenance)

        def refuse(*args, **kwargs):
            raise AssertionError("a table was built beside the owner's")

        monkeypatch.setattr(VertexAliasTables, "__init__", refuse)
        config = WalkConfig(num_walkers=40, max_steps=6, seed=2)
        for program in (UniformWalk(), Node2Vec(p=2, q=0.5, biased=False)):
            assert WalkEngine(dyn, program, config).tables is owners
            run_parallel_walk(dyn, program, config, num_workers=2)
        assert dataclasses.asdict(dyn.maintenance) == built

    def test_merging_different_epochs_is_a_typed_error(self, dyn):
        config = WalkConfig(num_walkers=10, max_steps=3, seed=2)
        first = WalkEngine(dyn, DeepWalk(), config).run().stats
        dyn.commit([EdgeUpdate("insert", 5, 6)])
        second = WalkEngine(dyn, DeepWalk(), config).run().stats
        with pytest.raises(ObsError, match="graph_epoch differs"):
            first.merge(second)


class RaisingWalk(UniformWalk):
    """Raises during walker setup inside the worker process."""

    def setup_walkers(self, graph, walkers, rng):
        raise ValueError("bad start table")


class DyingWalk(UniformWalk):
    """Kills its worker process outright (simulated OOM kill)."""

    def setup_walkers(self, graph, walkers, rng):
        os._exit(23)


class TestSupervision:
    """The supervised pool: death, exceptions, timeouts, deadlines."""

    def test_dead_worker_raises_promptly(self, graph):
        """Regression for the bare pool.map hang on worker death."""
        config = WalkConfig(num_walkers=8, max_steps=4)
        started = time.monotonic()
        with pytest.raises(WorkerError) as info:
            run_parallel_walk(
                graph, DyingWalk(), config, num_workers=2, max_restarts=0
            )
        assert time.monotonic() - started < 60.0
        assert info.value.kind == "died"
        assert info.value.shard in (0, 1)
        message = str(info.value)
        assert "shard" in message and "seed" in message

    def test_dead_worker_exhausts_restarts(self, graph):
        config = WalkConfig(num_walkers=8, max_steps=4)
        with pytest.raises(
            WorkerError, match=r"2 attempt\(s\) \(max_restarts=1 exhausted\)"
        ):
            run_parallel_walk(
                graph, DyingWalk(), config, num_workers=2, max_restarts=1
            )

    def test_worker_exception_preserves_context(self, graph):
        config = WalkConfig(num_walkers=8, max_steps=4, seed=42)
        shards = shard_config(config, graph, 2)
        with pytest.raises(WorkerError) as info:
            run_parallel_walk(graph, RaisingWalk(), config, num_workers=2)
        error = info.value
        assert error.kind == "exception"
        assert error.shard in (0, 1)
        # Original exception and the worker-side traceback survive.
        assert "bad start table" in str(error)
        assert str(shards[error.shard].seed) in str(error)
        assert "setup_walkers" in error.worker_traceback
        assert "ValueError" in error.worker_traceback

    def test_shard_timeout_raises_worker_error(self, graph):
        config = WalkConfig(num_walkers=8, max_steps=4)

        class SleepyWalk(UniformWalk):
            def setup_walkers(self, inner_graph, walkers, rng):
                time.sleep(60.0)

        started = time.monotonic()
        with pytest.raises(WorkerError) as info:
            run_parallel_walk(
                graph, SleepyWalk(), config, num_workers=2, shard_timeout=0.5
            )
        assert info.value.kind == "timeout"
        assert time.monotonic() - started < 30.0

    def test_deadline_propagates_to_shards(self, graph):
        config = WalkConfig(num_walkers=20, max_steps=50, record_paths=True)
        result = run_parallel_walk(
            graph, UniformWalk(), config, num_workers=2, deadline=0.0
        )
        assert result.status == "deadline_exceeded"
        assert result.walk_lengths.size == 20
        assert all(len(path) >= 1 for path in result.paths)

    def test_no_deadline_status_complete(self, graph):
        config = WalkConfig(num_walkers=10, max_steps=5)
        result = run_parallel_walk(graph, UniformWalk(), config, num_workers=2)
        assert result.status == "complete"


# ---------------------------------------------------------------------------
# The table round: one default table per sharded walk, split across workers
# ---------------------------------------------------------------------------


def _zero_weight_graph():
    """Weighted, with one vertex whose out-edges all weigh 0 and one
    with a zero among positive weights."""
    base = assign_random_weights(uniform_degree_graph(120, 4, seed=5), seed=6)
    weights = base.weights.copy()
    weights[base.offsets[7] : base.offsets[8]] = 0.0
    weights[base.offsets[11]] = 0.0
    return CSRGraph(base.offsets, base.targets, weights)


TABLE_GRAPHS = {
    "weighted": lambda: assign_random_weights(
        uniform_degree_graph(200, 5, seed=0, undirected=True), seed=1
    ),
    "unweighted": lambda: uniform_degree_graph(200, 5, seed=0, undirected=True),
    "zero-weight-vertex": _zero_weight_graph,
    "dead-ends": lambda: erdos_renyi_graph(150, 2.0, seed=4),
    "hub": lambda: assign_random_weights(star_graph(300), seed=2),
}


def assert_tables_equal(tables, expected):
    for name in ("_prob", "_alias", "_totals", "_sizes"):
        actual, wanted = getattr(tables, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype, name
        np.testing.assert_array_equal(actual, wanted, err_msg=name)
    assert tables.has_dead_ends == expected.has_dead_ends


def sharded_tables(graph, num_workers, **kwargs):
    """Walk ``graph`` on ``num_workers`` shards and return the table the
    round left on the prepared graph, with the result."""
    prepared = PreparedGraph(graph)
    config = WalkConfig(num_walkers=2 * num_workers, max_steps=2, seed=3)
    result = run_parallel_walk(prepared, DeepWalk(), config, num_workers, **kwargs)
    return prepared._tables, result


class TestTableRound:
    """``run_parallel_walk`` builds the default table once, split by the
    |V_i| + |E_i| partition across its workers, before any shard starts."""

    @pytest.mark.parametrize("num_workers", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(TABLE_GRAPHS))
    def test_assembled_table_equals_the_serial_build(self, kind, num_workers):
        graph = TABLE_GRAPHS[kind]()
        tables, result = sharded_tables(graph, num_workers)
        assert result.num_workers == num_workers
        assert_tables_equal(tables, VertexAliasTables(graph))

    def test_more_workers_than_vertices(self):
        graph = assign_random_weights(
            uniform_degree_graph(3, 2, seed=0, undirected=True), seed=1
        )
        tables, result = sharded_tables(graph, 8)
        assert result.num_workers == 8
        assert_tables_equal(tables, VertexAliasTables(graph))

    def test_slices_that_do_not_cover_the_graph_are_refused(self, graph):
        half = build_alias_segments(
            np.ones(graph.num_edges), graph.offsets, np.arange(100)
        )
        with pytest.raises(SamplingError, match="do not cover"):
            VertexAliasTables.assemble(graph, None, [half])

    def test_no_shard_builds_a_table(self, graph, monkeypatch):
        """Table construction raises from here on, in the parent and in
        every forked worker: only the round's slices may build.  On the
        unweighted graph, ``unit_weights`` (UniformWalk, unbiased
        node2vec) is the default Ps and gets the round too."""
        config = WalkConfig(num_walkers=60, max_steps=6, seed=8, record_paths=True)
        programs = (
            lambda: Node2Vec(p=2, q=0.5),
            lambda: Node2Vec(p=2, q=0.5, biased=False),
            UniformWalk,
        )
        expected = [
            run_parallel_walk(graph, make(), config, 3).paths for make in programs
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a table was built outside the table round")

        monkeypatch.setattr(VertexAliasTables, "__init__", refuse)
        for make, paths in zip(programs, expected):
            result = run_parallel_walk(graph, make(), config, 3)
            assert [p.tolist() for p in result.paths] == [p.tolist() for p in paths]
        weighted = assign_random_weights(graph, seed=1)
        with pytest.raises(WorkerError, match="a table was built"):
            run_parallel_walk(weighted, UniformWalk(), config, 3)  # its own Ps

    def test_a_kept_table_is_not_built_again(self, graph, monkeypatch):
        prepared = PreparedGraph(graph)
        tables = prepared.tables("alias")
        monkeypatch.setattr(parallel, "_build_slice", None)  # no round at all
        config = WalkConfig(num_walkers=20, max_steps=4, seed=1)
        run_parallel_walk(prepared, DeepWalk(), config, num_workers=2)
        assert prepared.tables("alias") is tables

    def test_build_seconds_reach_the_merged_init_time(self, graph, monkeypatch):
        build = parallel.build_alias_segments

        def slow(*args):
            time.sleep(0.3)
            return build(*args)

        monkeypatch.setattr(parallel, "build_alias_segments", slow)
        tables, result = sharded_tables(graph, 2)
        assert result.stats.init_time_seconds >= 2 * 0.3
        assert_tables_equal(tables, VertexAliasTables(graph))

    def test_a_builder_that_dies_once_is_restarted(self, graph, monkeypatch, tmp_path):
        build, marker = parallel.build_alias_segments, str(tmp_path / "died")

        def dies_once(*args):
            try:  # the first builder to get here dies, the rest build
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return build(*args)
            os._exit(17)

        monkeypatch.setattr(parallel, "build_alias_segments", dies_once)
        tables, result = sharded_tables(graph, 2)
        assert result.metrics.value("pool_restarts") == 1
        assert_tables_equal(tables, VertexAliasTables(graph))

    def test_a_builder_that_always_dies_exhausts_its_restarts(self, graph, monkeypatch):
        monkeypatch.setattr(parallel, "build_alias_segments", lambda *a: os._exit(17))
        with pytest.raises(WorkerError, match="attempt") as info:
            sharded_tables(graph, 2, max_restarts=1)
        assert info.value.kind == "died"
        assert "alias-table slice" in str(info.value)
        assert "vertices" in str(info.value)

    def test_a_builder_that_raises_resurfaces_its_traceback(self, graph, monkeypatch):
        def raises(*args):
            raise ValueError("bad slice")

        monkeypatch.setattr(parallel, "build_alias_segments", raises)
        with pytest.raises(WorkerError) as info:
            sharded_tables(graph, 2)
        assert info.value.kind == "exception"
        assert "alias-table slice" in str(info.value)
        assert "bad slice" in info.value.worker_traceback
        assert "ValueError" in info.value.worker_traceback

    def test_shard_timeout_applies_to_table_tasks(self, graph, monkeypatch):
        monkeypatch.setattr(parallel, "build_alias_segments", lambda *a: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(WorkerError) as info:
            sharded_tables(graph, 2, shard_timeout=0.5)
        assert info.value.kind == "timeout"
        assert "alias-table slice" in str(info.value)
        assert time.monotonic() - started < 30.0

    def test_deadline_expiring_during_the_round_gives_a_partial(self, graph, monkeypatch):
        build = parallel.build_alias_segments

        def slow(*args):
            time.sleep(0.4)
            return build(*args)

        monkeypatch.setattr(parallel, "build_alias_segments", slow)
        config = WalkConfig(num_walkers=20, max_steps=50, record_paths=True)
        result = run_parallel_walk(
            graph, DeepWalk(), config, num_workers=2, deadline=0.1
        )
        assert result.status == "deadline_exceeded"
        assert result.walk_lengths.size == 20
        assert len(result.paths) == 20
        assert all(len(path) >= 1 for path in result.paths)


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def _sleep_task(seconds):
    time.sleep(seconds)
    return seconds


class TestCancellation:
    def test_pool_terminates_its_workers_when_the_token_fires(self):
        token = CancelToken()
        threading.Timer(0.2, token.cancel).start()
        started = time.monotonic()
        outcome = SupervisedPool(max_workers=2).run(_sleep_task, [30, 30], cancel=token)
        assert outcome is None
        assert time.monotonic() - started < 0.2 + 0.5
        assert not multiprocessing.active_children()

    def test_pool_starts_nothing_once_cancelled(self):
        token = CancelToken()
        token.cancel()
        pool = SupervisedPool(max_workers=2)
        assert pool.run(_sleep_task, [30], cancel=token) is None
        assert not multiprocessing.active_children()

    def test_a_cancelled_sharded_walk_is_tagged_and_leaves_no_worker(self, graph):
        token = CancelToken()
        token.cancel()
        config = WalkConfig(num_walkers=40, max_steps=5, record_paths=True)
        result = run_parallel_walk(graph, DeepWalk(), config, 2, cancel=token)
        assert result.status == "cancelled"
        assert result.paths == [] and result.walk_lengths.size == 0
        assert result.stats.total_steps == 0
        assert result.metrics.value("pool_tasks") == 0
        assert not multiprocessing.active_children()

    def test_in_process_cancel_stops_the_engine(self, graph):
        token = CancelToken()
        token.cancel()
        config = WalkConfig(num_walkers=40, max_steps=5)
        result = run_parallel_walk(graph, DeepWalk(), config, 1, cancel=token)
        assert result.status == "cancelled"
        assert result.stats.total_steps < 40 * 5
