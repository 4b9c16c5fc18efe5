"""Unit tests for walk path recording."""

import numpy as np

from repro.core.trace import PathRecorder


class TestPathRecorder:
    def test_no_moves(self):
        recorder = PathRecorder(np.array([4, 7]))
        paths = recorder.paths()
        assert [p.tolist() for p in paths] == [[4], [7]]

    def test_single_walker_sequence(self):
        recorder = PathRecorder(np.array([0]))
        for vertex in (1, 2, 3):
            recorder.record_moves(np.array([0]), np.array([vertex]))
        assert recorder.paths()[0].tolist() == [0, 1, 2, 3]

    def test_interleaved_walkers(self):
        recorder = PathRecorder(np.array([0, 10]))
        recorder.record_moves(np.array([0, 1]), np.array([1, 11]))
        recorder.record_moves(np.array([1]), np.array([12]))  # only walker 1
        recorder.record_moves(np.array([0, 1]), np.array([2, 13]))
        paths = recorder.paths()
        assert paths[0].tolist() == [0, 1, 2]
        assert paths[1].tolist() == [10, 11, 12, 13]

    def test_empty_batches_ignored(self):
        recorder = PathRecorder(np.array([5]))
        recorder.record_moves(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert recorder.paths()[0].tolist() == [5]

    def test_as_corpus(self):
        recorder = PathRecorder(np.array([1, 2]))
        recorder.record_moves(np.array([0]), np.array([3]))
        assert recorder.as_corpus() == [[1, 3], [2]]

    def test_inputs_copied(self):
        """Mutating the caller's arrays must not corrupt recordings."""
        recorder = PathRecorder(np.array([0]))
        walker_ids = np.array([0])
        vertices = np.array([5])
        recorder.record_moves(walker_ids, vertices)
        vertices[0] = 99
        assert recorder.paths()[0].tolist() == [0, 5]
