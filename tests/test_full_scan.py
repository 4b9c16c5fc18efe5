"""Tests for the full-scan baseline engine and the scan it samples by
(:func:`~repro.core.kernels.full_scan_spans`)."""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, MetaPathWalk, Node2Vec, UniformWalk
from repro.baselines.full_scan import FullScanWalkEngine
from repro.core.config import WalkConfig
from repro.core.kernels import full_scan_spans
from repro.core.walker import WalkerSet
from repro.graph.builder import from_edges
from repro.graph.generators import uniform_degree_graph
from repro.graph.hetero import assign_random_edge_types
from repro.sampling.alias import VertexAliasTables

from tests.helpers import assert_matches_distribution, diamond_graph, scan_of_masses


class TestGatherOutEdges:
    """``full_scan_spans`` lays every walker's out-edge slice end to end."""

    def test_structure(self):
        graph = diamond_graph()
        vertices = np.array([1, 0, 3])
        spans = full_scan_spans(
            graph,
            VertexAliasTables(graph),
            Node2Vec(p=2.0, q=0.5),
            WalkerSet(vertices),
            np.arange(3),
        )
        assert spans.flat_edges.size == 3 + 2 + 2
        assert spans.boundaries.tolist() == [0, 3, 5, 7]
        assert spans.evaluations.tolist() == [3, 2, 2]
        # Each gathered index lies in its vertex's CSR slice.
        for lane, vertex in enumerate(vertices):
            start, end = graph.edge_range(int(vertex))
            low, high = spans.boundaries[lane], spans.boundaries[lane + 1]
            chunk = spans.flat_edges[low:high]
            assert np.all((chunk >= start) & (chunk < end))

    def test_empty_vertex(self):
        # A vertex without out-edges is never scanned: Pe ends the walk
        # there before the Move stage gathers anything.
        graph = from_edges(3, [(0, 1)])
        config = WalkConfig(
            num_walkers=1, max_steps=3, start_vertices=np.array([1])
        )
        result = FullScanWalkEngine(graph, Node2Vec(p=2.0, q=0.5), config).run()
        assert result.stats.termination.by_dead_end == 1
        assert result.stats.counters.pd_evaluations == 0


class TestSegmentedSample:
    """``FullScanSpans.sample``: ITS within each walker's own span."""

    def test_matches_per_segment_distribution(self):
        spans = scan_of_masses([[1.0, 3.0], [2.0, 2.0, 0.0, 5.0]])
        assert spans.totals.tolist() == [4.0, 9.0]
        rng = np.random.default_rng(0)
        lanes = np.arange(2)
        first, second = [], []
        for _ in range(20_000):
            choices = spans.sample(lanes, rng)
            first.append(choices[0])
            second.append(choices[1] - 2)
        assert_matches_distribution(first, [1.0, 3.0])
        assert_matches_distribution(second, [2.0, 2.0, 0.0, 5.0])

    def test_zero_segment(self):
        spans = scan_of_masses([[0.0, 0.0], [1.0]])
        assert spans.totals[0] == 0.0
        # The zero-mass edges cost no Pd evaluation.
        assert spans.evaluations.tolist() == [0, 1]
        choices = spans.sample(np.arange(2), np.random.default_rng(1))
        assert choices[1] == 2

    def test_empty_segment(self):
        # A walker at a sink beside one that can move: the sink's lane
        # is never scanned, the other walker's step is.
        graph = from_edges(4, [(0, 1), (0, 2), (1, 0), (2, 0)])
        config = WalkConfig(
            num_walkers=2, max_steps=1, start_vertices=np.array([3, 0])
        )
        result = FullScanWalkEngine(graph, Node2Vec(p=2.0, q=0.5), config).run()
        assert result.stats.termination.by_dead_end == 1
        assert result.stats.termination.by_step_limit == 1
        assert result.stats.total_steps == 1
        assert result.stats.counters.pd_evaluations == 2

    def test_all_zero(self):
        spans = scan_of_masses([[0.0, 0.0, 0.0]])
        assert spans.totals.tolist() == [0.0]

    def test_one_uniform_per_lane(self):
        spans = scan_of_masses([[1.0], [0.0, 0.0], [2.0, 1.0]])
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        spans.sample(np.array([0, 1, 2, 2]), rng)
        twin.random(4)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestFullScanEngine:
    def test_counts_every_edge_scanned(self):
        # Directed uniform graph: every vertex has out-degree exactly 7,
        # so the scan costs exactly 7 Pd evaluations per step.
        graph = uniform_degree_graph(50, 7, seed=0)
        config = WalkConfig(num_walkers=20, max_steps=10)
        result = FullScanWalkEngine(
            graph, Node2Vec(p=2, q=0.5, biased=False), config
        ).run()
        assert result.stats.pd_evaluations_per_step == pytest.approx(7.0)
        assert result.stats.total_steps == 200

    def test_static_programs_skip_scanning(self):
        graph = uniform_degree_graph(50, 4, seed=0)
        config = WalkConfig(num_walkers=20, max_steps=10)
        result = FullScanWalkEngine(graph, DeepWalk(), config).run()
        assert result.stats.counters.pd_evaluations == 0

    def test_paths_are_valid(self):
        graph = uniform_degree_graph(60, 5, seed=1, undirected=True)
        config = WalkConfig(num_walkers=20, max_steps=8, record_paths=True)
        result = FullScanWalkEngine(
            graph, Node2Vec(p=0.5, q=2.0, biased=False), config
        ).run()
        for path in result.paths:
            for source, target in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(source), int(target))

    def test_metapath_dead_end(self):
        graph = assign_random_edge_types(
            uniform_degree_graph(30, 3, seed=2), 1, seed=3
        )
        program = MetaPathWalk([[7]])  # type 7 never exists
        config = WalkConfig(num_walkers=10, max_steps=5)
        result = FullScanWalkEngine(graph, program, config).run()
        assert result.stats.termination.by_dead_end == 10

    def test_uniform_walk_matches_rejection_engine(self):
        from repro.core.engine import WalkEngine

        graph = diamond_graph()
        histograms = {}
        for engine_cls in (FullScanWalkEngine, WalkEngine):
            config = WalkConfig(
                num_walkers=10_000,
                max_steps=1,
                record_paths=True,
                seed=4,
                start_vertices=np.full(10_000, 1, dtype=np.int64),
            )
            result = engine_cls(graph, UniformWalk(), config).run()
            finals = [int(p[-1]) for p in result.paths]
            histograms[engine_cls] = np.bincount(finals, minlength=4)
        a = histograms[FullScanWalkEngine]
        b = histograms[WalkEngine]
        assert np.abs(a / 10_000 - b / 10_000).max() < 0.03
