"""The dense path recorder against the per-move replay oracle.

``PathRecorder`` writes each move straight into its walker's row (or,
for unbounded walks, a flat log grouped by one argsort).  The oracle in
``tests.helpers`` is the old recorder: it keeps every batch and replays
move by move.  Both see the same batches, so their paths must be equal
on every engine, pacing and layout — plus the properties that rest on
the recorder's state: partial results, checkpoints, crash rollback,
streaming, and the unbounded layout's memory bound.
"""

import io

import numpy as np
import pytest

from repro._npz import save_checked
from repro._textblock import decimal
from repro.algorithms import (
    PPR,
    DeepWalk,
    MetaPathWalk,
    Node2Vec,
    RandomWalkWithRestart,
)
from repro.analysis import save_corpus
from repro.cluster import DistributedWalkEngine
from repro.cluster.faults import FaultPlan, NodeCrash
from repro.cluster.recovery import capture_cluster_state, restore_cluster_state
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.snapshot import restore_checkpoint, save_checkpoint
from repro.core.trace import BLOCK_ROWS, write_walks
from repro.errors import SnapshotError
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from repro.parallel import run_parallel_walk, shard_config
from tests.helpers import ReplayPathOracle

PLAIN = uniform_degree_graph(150, 6, seed=1, undirected=True)
TYPED = assign_random_edge_types(PLAIN, 4, seed=2)


def node2vec():
    return Node2Vec(p=2.0, q=0.5)  # second order: trial pacing


def metapath():
    return MetaPathWalk([[0, 1, 2], [2, 3]])


def rwr():
    return RandomWalkWithRestart(0.3)  # teleports


# name -> (program factory, graph, config overrides).  PPR is the
# unbounded layout (max_steps=None); the rest use the dense matrix.
WORKLOADS = {
    "deepwalk": (DeepWalk, PLAIN, dict(max_steps=12)),
    "node2vec": (node2vec, PLAIN, dict(max_steps=12)),
    "metapath": (metapath, TYPED, dict(max_steps=12)),
    "rwr": (rwr, PLAIN, dict(max_steps=12)),
    "ppr": (PPR, PLAIN, dict(max_steps=None, termination_probability=0.1)),
}


def make_config(name, **overrides):
    settings = dict(num_walkers=120, seed=9, record_paths=True)
    settings.update(WORKLOADS[name][2])
    settings.update(overrides)
    return WalkConfig(**settings)


def make_engine(name, *, nodes=0, config=None, **engine_kwargs):
    make_program, graph, _ = WORKLOADS[name]
    config = config if config is not None else make_config(name)
    return make_walk_engine(
        graph, make_program(), config, nodes=nodes, **engine_kwargs
    )


def make_walk_engine(graph, program, config, *, nodes=0, **engine_kwargs):
    """The local engine, or the distributed one on ``nodes`` nodes."""
    if nodes:
        return DistributedWalkEngine(
            graph, program, config, num_nodes=nodes, **engine_kwargs
        )
    return WalkEngine(graph, program, config, **engine_kwargs)


def as_lists(paths):
    return [path.tolist() for path in paths]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestAgainstOracle:
    @pytest.mark.parametrize("variant", ["batch", "scalar"])
    def test_local_engine(self, name, variant):
        engine = make_engine(name, force_scalar=variant == "scalar")
        oracle = ReplayPathOracle.attach(engine)
        result = engine.run()
        assert as_lists(result.paths) == oracle.paths()
        # The invariant rewind relies on.
        np.testing.assert_array_equal(
            [len(path) - 1 for path in result.paths], result.walkers.steps
        )
        assert result.stats.total_steps > 0

    def test_distributed_engine(self, name):
        engine = make_engine(name, nodes=4)
        oracle = ReplayPathOracle.attach(engine)
        assert as_lists(engine.run().paths) == oracle.paths()

    def test_parallel_shards(self, name):
        """Paths shipped as packed buffers and split by the parent
        equal the oracle's over the same shard configurations."""
        make_program, graph, _ = WORKLOADS[name]
        config = make_config(name)
        merged = run_parallel_walk(graph, make_program(), config, num_workers=2)
        expected = []
        for shard in shard_config(config, graph, 2):
            engine = WalkEngine(graph, make_program(), shard)
            oracle = ReplayPathOracle.attach(engine)
            engine.run()
            expected.extend(oracle.paths())
        assert as_lists(merged.paths) == expected


class _ExpiresAfter:
    """Duck-typed deadline that expires after a number of checks."""

    def __init__(self, checks):
        self.checks = checks

    def expired(self):
        self.checks -= 1
        return self.checks < 0


@pytest.mark.parametrize("name", ["node2vec", "rwr", "ppr"])
def test_deadline_cut_paths_are_prefixes(name):
    full = make_engine(name).run().paths
    partial = make_engine(name).run(deadline=_ExpiresAfter(5))
    assert partial.status == "deadline_exceeded"
    assert sum(len(path) for path in partial.paths) < sum(len(p) for p in full)
    for short, whole in zip(partial.paths, full):
        assert short.tolist() == whole[: len(short)].tolist()


class TestCheckpointResume:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("nodes", [0, 4])
    def test_resume_is_bit_identical(self, name, nodes, tmp_path):
        make_program, graph, _ = WORKLOADS[name]
        uninterrupted = make_engine(name, nodes=nodes).run().paths
        engine = make_engine(name, nodes=nodes)
        engine.run(max_iterations=4)
        save_checkpoint(engine, tmp_path / "walk.npz")
        resumed = restore_checkpoint(
            graph, make_program(), make_config(name), tmp_path / "walk.npz"
        )
        assert as_lists(resumed.run().paths) == as_lists(uninterrupted)

    def test_version_2_file_is_refused_by_name(self, tmp_path):
        """A version-2 file carries a per-iteration move log this
        recorder cannot hold; it is refused naming both versions, not
        by an AttributeError somewhere in the restore."""
        engine = make_engine("deepwalk")
        oracle = ReplayPathOracle.attach(engine)
        engine.run(max_iterations=4)
        save_checkpoint(engine, tmp_path / "v4.npz")
        with np.load(tmp_path / "v4.npz") as data:
            payload = {key: data[key] for key in data.files}
        for key in ("checksum", "path_tokens", "path_counts"):
            del payload[key]
        payload["version"] = np.asarray([2])
        payload["recorder_lengths"] = np.asarray(
            [batch.size for batch in oracle.move_walkers], dtype=np.int64
        )
        payload["recorder_walkers"] = np.concatenate(oracle.move_walkers)
        payload["recorder_vertices"] = np.concatenate(oracle.move_vertices)
        save_checked(tmp_path / "v2.npz", payload, np.uint64)
        with pytest.raises(SnapshotError, match=r"version 2 .*expected 4"):
            restore_checkpoint(
                PLAIN, DeepWalk(), make_config("deepwalk"), tmp_path / "v2.npz"
            )

    @pytest.mark.parametrize(
        "other",
        [dict(max_steps=20), dict(max_steps=None, termination_probability=0.1)],
    )
    def test_layout_mismatch_is_typed(self, other, tmp_path):
        engine = make_engine("deepwalk")
        engine.run(max_iterations=3)
        save_checkpoint(engine, tmp_path / "walk.npz")
        with pytest.raises(SnapshotError, match="paths do not match"):
            restore_checkpoint(
                PLAIN, DeepWalk(), make_config("deepwalk", **other),
                tmp_path / "walk.npz",
            )


class TestCrashRollback:
    @pytest.mark.parametrize("name", ["deepwalk", "node2vec", "ppr"])
    def test_rewind_leaks_no_later_token(self, name):
        """After a rollback the recorder shows exactly the paths of the
        restored superstep, and the replay reproduces the original."""
        engine = make_engine(name, nodes=4)
        engine.run(max_iterations=3)
        checkpoint = capture_cluster_state(engine)
        at_checkpoint = as_lists(engine._recorder.paths())
        engine.run(max_iterations=4)
        assert as_lists(engine._recorder.paths()) != at_checkpoint
        restore_cluster_state(engine, checkpoint)
        assert as_lists(engine._recorder.paths()) == at_checkpoint
        assert as_lists(engine.run().paths) == as_lists(
            make_engine(name, nodes=4).run().paths
        )

    @pytest.mark.parametrize("name", ["deepwalk", "rwr", "ppr"])
    def test_crashed_run_equals_fault_free(self, name):
        plan = FaultPlan(seed=3, crashes=(NodeCrash(superstep=5, node=1),))
        faulty = make_engine(
            name, nodes=4, fault_plan=plan, checkpoint_every=3
        ).run()
        assert faulty.cluster.recovery.replayed_supersteps >= 1
        assert as_lists(faulty.paths) == as_lists(
            make_engine(name, nodes=4).run().paths
        )


@pytest.mark.parametrize("name", ["deepwalk", "node2vec", "ppr"])
@pytest.mark.parametrize("nodes", [0, 4])
def test_streamed_file_equals_in_memory_paths(name, nodes, tmp_path):
    """Same lines as the in-memory paths (order aside), and the same
    bytes per line as ``save_corpus`` writes."""
    recorded = make_engine(name, nodes=nodes).run().paths
    streamed = make_engine(
        name,
        nodes=nodes,
        config=make_config(
            name, record_paths=False, stream_paths_to=str(tmp_path / "s.txt")
        ),
    ).run()
    assert streamed.paths is None
    save_corpus(recorded, tmp_path / "m.txt")
    streamed_lines = (tmp_path / "s.txt").read_bytes().splitlines()
    saved_lines = (tmp_path / "m.txt").read_bytes().splitlines()
    assert len(streamed_lines) == len(recorded)
    assert sorted(streamed_lines) == sorted(saved_lines)


def reference_corpus(walks) -> str:
    """The one-line-at-a-time formatter write_walks replaced."""
    return "".join(" ".join(map(str, walk)) + "\n" for walk in walks)


def written(walks) -> str:
    handle = io.StringIO()
    write_walks(handle, walks)
    return handle.getvalue()


class TestBlockWriterAgainstReference:
    """write_walks formats BLOCK_ROWS walks at a time; every byte must
    be what formatting one walk at a time wrote."""

    @pytest.mark.parametrize(
        "rows",
        [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7],
    )
    def test_row_counts_around_the_block(self, rows):
        rng = np.random.default_rng(rows)
        walks = [rng.integers(0, 300, size=n) for n in rng.integers(1, 6, size=rows)]
        assert written(walks) == reference_corpus(w.tolist() for w in walks)

    def test_digit_boundaries_and_large_ids(self):
        walks = [[0], [9, 10], [99, 100, 101], [2**31, 2**62], [10, 9, 0]]
        assert written(walks) == reference_corpus(walks)
        assert written([[2**31 - 1, 2**31, 2**31 + 1]] * 5) == reference_corpus(
            [[2**31 - 1, 2**31, 2**31 + 1]] * 5
        )

    def test_both_ways_of_formatting_a_block(self):
        """decimal() looks ids up in a table when the block spans fewer
        ids than it has tokens and peels digits otherwise: the same
        walks renumbered far apart take the other way, and both match
        the reference."""
        rng = np.random.default_rng(3)
        dense = [rng.integers(0, 50, size=n) for n in rng.integers(1, 30, size=400)]
        spread = rng.integers(0, 2**62, size=50)
        sparse = [spread[walk] for walk in dense]
        tokens = np.concatenate(dense)
        assert tokens.max() - tokens.min() < tokens.size  # the table's side
        far = np.concatenate(sparse)
        assert far.max() - far.min() >= far.size  # the arithmetic side
        assert written(dense) == reference_corpus(w.tolist() for w in dense)
        assert written(sparse) == reference_corpus(w.tolist() for w in sparse)

    def test_decimal_is_str_of_int_on_either_side(self):
        extremes = [-(2**63), -10, -9, -1, 0, 1, 9, 10, 2**63 - 1]
        for values in (extremes, list(range(-30, 30)) * 2):
            text = decimal(np.array(values, dtype=np.int64))
            assert [bytes(row).replace(b"\0", b"").decode() for row in text] == [
                str(v) for v in values
            ]

    def test_walks_without_tokens_keep_their_lines(self):
        walks = [[], [4, 5], [], [], [6], []]
        assert written(walks) == "\n4 5\n\n\n6\n\n"
        assert written([[], []]) == "\n\n"

    def test_ragged_walks_of_the_log_recorder(self):
        paths = make_engine("ppr").run().paths  # unbounded: geometric lengths
        assert len({len(path) for path in paths}) > 5
        assert written(paths) == reference_corpus(p.tolist() for p in paths)


@pytest.mark.parametrize("name", ["deepwalk", "ppr"])
def test_streamed_bytes_are_the_reference_of_the_recorded_corpus(name, tmp_path):
    """Same seed, streamed vs kept in memory: the file holds exactly
    the reference formatting of as_corpus(), line order aside."""
    engine = make_engine(name)
    engine.run()
    corpus = engine._recorder.as_corpus()
    make_engine(
        name,
        config=make_config(
            name, record_paths=False, stream_paths_to=str(tmp_path / "s.txt")
        ),
    ).run()
    streamed = (tmp_path / "s.txt").read_text().splitlines(keepends=True)
    assert sorted(streamed) == sorted(
        reference_corpus(corpus).splitlines(keepends=True)
    )


@pytest.mark.parametrize("name", ["deepwalk", "rwr", "ppr"])
def test_interrupted_stream_then_close_writes_each_walker_once(name, tmp_path):
    """Pause a streaming run, close the recorder: finished walkers were
    flushed as they ended, the rest are written by close(), nobody
    twice — the lines are the paths an in-memory run paused at the same
    iteration holds."""
    overrides = {}
    if name != "ppr":
        overrides["termination_probability"] = 0.2  # some end before the pause
    engine = make_engine(
        name,
        config=make_config(
            name,
            record_paths=False,
            stream_paths_to=str(tmp_path / "s.txt"),
            **overrides,
        ),
    )
    result = engine.run(max_iterations=4)
    assert result.status == "paused"
    # The log layout (ppr) has no rows to flush before close() sorts it.
    flushed = engine._recorder.lines_written
    assert (flushed == 0) if name == "ppr" else (0 < flushed)
    assert flushed < engine.config.num_walkers
    engine._recorder.close()
    engine._recorder.close()  # idempotent
    kept = make_engine(name, config=make_config(name, **overrides))
    partial = kept.run(max_iterations=4).paths
    lines = (tmp_path / "s.txt").read_text().splitlines(keepends=True)
    assert len(lines) == engine.config.num_walkers
    assert sorted(lines) == sorted(
        reference_corpus(p.tolist() for p in partial).splitlines(keepends=True)
    )


def test_unbounded_heavy_tail_memory_is_linear_in_moves():
    """PPR at Pt = 1/80: the longest walk is many times the mean, so a
    (walkers x longest walk) matrix would dwarf the moves recorded."""
    graph = uniform_degree_graph(2000, 8, seed=4, undirected=True)
    config = WalkConfig(
        num_walkers=5000,
        max_steps=None,
        termination_probability=1 / 80,
        record_paths=True,
        seed=2,
    )
    engine = WalkEngine(graph, PPR(), config)
    result = engine.run()
    moves = result.stats.total_steps
    held = sum(
        value.nbytes
        for value in vars(engine._recorder).values()
        if isinstance(value, np.ndarray)
    )
    assert held <= 5 * 8 * (config.num_walkers + moves)
    longest = int(result.walk_lengths.max())
    assert held < 8 * config.num_walkers * (longest + 1) / 2
    assert sum(len(path) for path in result.paths) == config.num_walkers + moves
