"""The token contract: a recorder stores every vertex and walker id in
the narrowest integer type that holds them (int32 below 2**31), and
nothing a caller reads changes value — paths, shard merges, resumed
checkpoints and corpus bytes all equal an int64 reference."""

import numpy as np
import pytest

from repro._npz import save_checked
from repro.algorithms import PPR, DeepWalk, Node2Vec
from repro.cli import main
from repro.cluster import DistributedWalkEngine
from repro.core import engine as engine_module
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.snapshot import restore_checkpoint, save_checkpoint
from repro.core.trace import PathRecorder, token_dtype
from repro.graph.generators import uniform_degree_graph
from repro.graph.io import save_edge_list
from repro.parallel import run_parallel_walk, shard_config

GRAPH = uniform_degree_graph(150, 6, seed=1, undirected=True)
INT32 = np.dtype(np.int32)

# name -> (program factory, config overrides): the bounded matrix and
# the unbounded log.
LAYOUTS = {
    "matrix": (lambda: Node2Vec(p=2.0, q=0.5), dict(max_steps=12)),
    "log": (PPR, dict(max_steps=None, termination_probability=0.1)),
}


def make_config(layout, **overrides):
    return WalkConfig(
        **dict(num_walkers=120, seed=9, record_paths=True, **LAYOUTS[layout][1]),
        **overrides,
    )


def with_reference(graph, program, config):
    """An engine plus an int64 recorder subscribed to the same moves."""
    engine = WalkEngine(graph, program, config)
    reference = PathRecorder(
        engine.walkers.current.copy(), config.max_steps, dtype=np.int64
    )
    engine.observe(reference)
    return engine, reference


def assert_equal_to_int64(paths, reference_paths):
    assert len(paths) == len(reference_paths)
    for path, expected in zip(paths, reference_paths):
        assert path.dtype == INT32 and expected.dtype == np.int64
        np.testing.assert_array_equal(path, expected)


def test_token_dtype_rule():
    assert token_dtype(10, 10) == INT32
    assert token_dtype(2**31, 5) == INT32  # ids up to 2**31 - 1
    assert token_dtype(2**31 + 1, 5) == np.int64
    assert token_dtype(5, 2**31 + 1) == np.int64
    assert PathRecorder(np.array([0])).packed()[0].dtype == np.int64


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_recorded_paths_equal_an_int64_reference(layout):
    engine, reference = with_reference(GRAPH, LAYOUTS[layout][0](), make_config(layout))
    result = engine.run()
    assert engine._recorder.packed()[0].dtype == INT32
    assert_equal_to_int64(result.paths, reference.paths())


def test_log_growth_keeps_the_token_type():
    """The log starts with one entry per walker; every later batch grows
    it, and the grown log is still int32."""
    engine, reference = with_reference(GRAPH, PPR(), make_config("log"))
    first = engine._recorder._log.shape[1]
    result = engine.run()
    recorder = engine._recorder
    assert first == 120 and recorder._log.shape[1] > 2 * first
    assert recorder._log.dtype == INT32
    assert_equal_to_int64(result.paths, reference.paths())


@pytest.mark.parametrize("num_workers", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_shard_merge(layout, num_workers):
    make_program = LAYOUTS[layout][0]
    config = make_config(layout)
    merged = run_parallel_walk(GRAPH, make_program(), config, num_workers=num_workers)
    expected = []
    for shard in shard_config(config, GRAPH, num_workers):
        engine, reference = with_reference(GRAPH, make_program(), shard)
        engine.run()
        expected.extend(reference.paths())
    assert_equal_to_int64(merged.paths, expected)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_int64_checkpoint_resumes_into_the_narrow_recorder(layout, tmp_path):
    """A checkpoint written while tokens were int64 restores, and the
    finished paths equal an uninterrupted run's."""
    make_program = LAYOUTS[layout][0]
    uninterrupted = WalkEngine(GRAPH, make_program(), make_config(layout)).run()
    engine = WalkEngine(GRAPH, make_program(), make_config(layout))
    engine.run(max_iterations=4)
    save_checkpoint(engine, tmp_path / "walk.npz")
    with np.load(tmp_path / "walk.npz") as data:
        payload = {key: data[key] for key in data.files if key != "checksum"}
    assert payload["path_tokens"].dtype == INT32
    payload["path_tokens"] = payload["path_tokens"].astype(np.int64)
    save_checked(tmp_path / "wide.npz", payload, np.uint64)
    resumed = restore_checkpoint(
        GRAPH, make_program(), make_config(layout), tmp_path / "wide.npz"
    )
    assert resumed._recorder.packed()[0].dtype == INT32
    finished = resumed.run().paths
    assert [p.tolist() for p in finished] == [p.tolist() for p in uninterrupted.paths]


def test_restore_refuses_ids_the_token_type_cannot_hold():
    recorder = PathRecorder(np.array([0, 1]), 2, dtype=np.int32)
    tokens = np.zeros((2, 3), dtype=np.int64)
    tokens[1, 1] = 2**31
    with pytest.raises(ValueError, match="beyond int32"):
        recorder.restore(tokens, np.array([0, 1]))


def test_cli_corpus_bytes_equal_int64_tokens(tmp_path, monkeypatch, capsys):
    """``repro walk --output`` streams the same bytes as it did with
    int64 tokens, line order included."""
    edges = tmp_path / "g.txt"
    save_edge_list(GRAPH, edges)

    def walk(output):
        argv = ["walk", "--edge-list", str(edges), "--algorithm", "deepwalk"]
        argv += ["--length", "20", "--seed", "3", "--output", str(output)]
        assert main(argv) == 0
        return output.read_bytes()

    narrow = walk(tmp_path / "a.txt")
    monkeypatch.setattr(engine_module, "token_dtype", lambda *_: np.dtype(np.int64))
    wide = walk(tmp_path / "b.txt")
    capsys.readouterr()
    assert narrow == wide and narrow.count(b"\n") == GRAPH.num_vertices


def test_distributed_engine_records_the_same_tokens():
    """The cluster engine records through the same recorder."""
    config = make_config("matrix")
    engine = DistributedWalkEngine(GRAPH, DeepWalk(), config, num_nodes=4)
    reference = PathRecorder(engine.walkers.current.copy(), 12, dtype=np.int64)
    engine.observe(reference)
    assert_equal_to_int64(engine.run().paths, reference.paths())
