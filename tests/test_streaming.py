"""Tests for streaming path output (constant-memory corpora)."""

import numpy as np
import pytest

from repro.algorithms import PPR, UniformWalk
from repro.analysis import load_corpus
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.snapshot import save_checkpoint
from repro.core.trace import PathRecorder
from repro.errors import ConfigError, ReproError
from repro.graph.generators import uniform_degree_graph


@pytest.fixture
def graph():
    return uniform_degree_graph(80, 5, seed=0, undirected=True)


class TestStreamingPathRecorder:
    def test_flush_and_close(self, tmp_path):
        target = tmp_path / "walks.txt"
        recorder = PathRecorder(np.array([7, 8]), max_steps=3, stream_to=target)
        recorder.record_moves(np.array([0, 1]), np.array([1, 2]))
        recorder.record_moves(np.array([0]), np.array([3]))
        recorder.flush_finished(np.array([0]))
        assert recorder.lines_written == 1
        recorder.close()  # flushes walker 1
        walks = load_corpus(target)
        assert [w.tolist() for w in walks] == [[7, 1, 3], [8, 2]]

    def test_double_close_safe(self, tmp_path):
        recorder = PathRecorder(np.array([1]), stream_to=tmp_path / "w.txt")
        recorder.close()
        recorder.close()

    def test_context_manager(self, tmp_path):
        target = tmp_path / "w.txt"
        with PathRecorder(np.array([4]), stream_to=target) as recorder:
            recorder.record_moves(np.array([0]), np.array([5]))
        assert load_corpus(target)[0].tolist() == [4, 5]


class TestEngineStreaming:
    def test_streamed_corpus_matches_recorded(self, graph, tmp_path):
        """Same seed: the streamed corpus contains exactly the same
        walks an in-memory run records (order-insensitive)."""
        target = tmp_path / "corpus.txt"
        streamed = WalkEngine(
            graph,
            UniformWalk(),
            WalkConfig(
                num_walkers=40, max_steps=10, stream_paths_to=str(target), seed=3
            ),
        ).run()
        assert streamed.paths is None
        recorded = WalkEngine(
            graph,
            UniformWalk(),
            WalkConfig(num_walkers=40, max_steps=10, record_paths=True, seed=3),
        ).run()
        streamed_walks = sorted(
            tuple(w.tolist()) for w in load_corpus(target)
        )
        recorded_walks = sorted(tuple(p.tolist()) for p in recorded.paths)
        assert streamed_walks == recorded_walks

    def test_geometric_termination_streams_incrementally(self, graph, tmp_path):
        target = tmp_path / "corpus.txt"
        config = WalkConfig(
            num_walkers=200,
            max_steps=None,
            termination_probability=0.3,
            stream_paths_to=str(target),
            seed=4,
        )
        result = WalkEngine(graph, PPR(), config).run()
        walks = load_corpus(target)
        assert len(walks) == 200
        lengths = np.array([len(w) - 1 for w in walks])
        assert int(lengths.sum()) == result.stats.total_steps

    def test_distributed_streaming(self, graph, tmp_path):
        target = tmp_path / "corpus.txt"
        config = WalkConfig(
            num_walkers=30, max_steps=6, stream_paths_to=str(target), seed=5
        )
        DistributedWalkEngine(
            graph, UniformWalk(), config, num_nodes=3
        ).run()
        walks = load_corpus(target)
        assert len(walks) == 30
        for walk in walks:
            for source, targetv in zip(walk[:-1], walk[1:]):
                assert graph.has_edge(int(source), int(targetv))

    def test_mutually_exclusive_with_record_paths(self, tmp_path):
        with pytest.raises(ConfigError):
            WalkConfig(
                record_paths=True, stream_paths_to=str(tmp_path / "x.txt")
            )

    def test_checkpoint_rejected_while_streaming(self, graph, tmp_path):
        config = WalkConfig(
            num_walkers=10,
            max_steps=10,
            stream_paths_to=str(tmp_path / "c.txt"),
        )
        engine = WalkEngine(graph, UniformWalk(), config)
        engine.run(max_iterations=2)
        with pytest.raises(ReproError):
            save_checkpoint(engine, tmp_path / "ckpt.npz")
