"""Tests for the runtime determinism sanitizer (repro.lint.sanitizer)."""

import numpy as np
import pytest

from repro.algorithms import DeepWalk, Node2Vec, UniformWalk
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.generators import uniform_degree_graph
from repro.lint.sanitizer import DeterminismTracer, TracedRNG, run_sanitized


@pytest.fixture(scope="module")
def graph():
    return uniform_degree_graph(60, 4, seed=3, undirected=True)


class TestTracer:
    def test_traced_rng_preserves_draws(self):
        tracer = DeterminismTracer()
        plain = np.random.default_rng(7)
        traced = TracedRNG(np.random.default_rng(7), tracer)
        np.testing.assert_array_equal(
            plain.integers(0, 100, size=10), traced.integers(0, 100, size=10)
        )
        np.testing.assert_allclose(plain.random(5), traced.random(5))
        assert tracer.num_events == 2
        assert tracer.kinds == ["rng", "rng"]

    def test_identical_streams_hash_identically(self):
        tracers = []
        for _ in range(2):
            tracer = DeterminismTracer()
            rng = tracer.wrap_rng(np.random.default_rng(11))
            rng.random(8)
            tracer.on_moves(np.arange(4), np.array([1, 2, 3, 4]))
            tracers.append(tracer)
        assert tracers[0].rolling_hash() == tracers[1].rolling_hash()

    def test_different_draws_hash_differently(self):
        hashes = []
        for seed in (0, 1):
            tracer = DeterminismTracer()
            tracer.wrap_rng(np.random.default_rng(seed)).random(8)
            hashes.append(tracer.rolling_hash())
        assert hashes[0] != hashes[1]


class TestRunSanitized:
    def test_requires_two_runs(self, graph):
        with pytest.raises(ValueError):
            run_sanitized(
                lambda: WalkEngine(graph, UniformWalk(), WalkConfig(max_steps=3)),
                runs=1,
            )

    def test_local_engine_is_deterministic(self, graph):
        config = WalkConfig(num_walkers=25, max_steps=8, seed=5)

        def factory():
            return WalkEngine(graph, Node2Vec(p=2.0, q=0.5), config)

        report = run_sanitized(factory)
        assert report.deterministic
        assert report.divergence is None
        assert report.events[0] > 0
        assert report.events[0] == report.events[1]
        assert report.rolling_hashes[0] == report.rolling_hashes[1]
        assert report.kind_counts.get("rng", 0) > 0
        assert report.kind_counts.get("walker", 0) > 0
        assert "deterministic" in report.summary()

    def test_distributed_engine_traces_deliveries(self, graph):
        config = WalkConfig(num_walkers=25, max_steps=6, seed=5)

        def factory():
            return DistributedWalkEngine(
                graph, DeepWalk(), config, num_nodes=4
            )

        report = run_sanitized(factory)
        assert report.deterministic
        assert report.kind_counts.get("message", 0) > 0

    def test_catches_unseeded_rng_divergence(self, graph):
        """The acceptance property: an unseeded generator in workload
        setup makes the two runs diverge, and the report localizes it."""

        def nondeterministic_factory():
            entropy = np.random.default_rng()  # lint: disable=RK102 -- deliberately unseeded: this test exists to prove the sanitizer catches exactly this bug
            starts = entropy.integers(0, graph.num_vertices, size=25)
            config = WalkConfig(
                num_walkers=25, max_steps=8, seed=5,
                start_vertices=starts.astype(np.int64),
            )
            return WalkEngine(graph, UniformWalk(), config)

        report = run_sanitized(nondeterministic_factory)
        assert not report.deterministic
        assert report.divergence is not None
        assert report.divergence.index >= 0
        summary = report.summary()
        assert "NON-DETERMINISTIC" in summary
        assert "first divergence at event" in summary
        # The diverging event is described in kind:label terms.
        assert report.divergence.event_a.split(":")[0] in {
            "rng", "walker", "message"
        }

    def test_seeded_runs_match_unsanitized_result(self, graph):
        # Tracing must observe, not perturb: the traced engine's walk
        # matches an untraced engine under the same seed.
        config = WalkConfig(
            num_walkers=10, max_steps=6, seed=9, record_paths=True
        )
        plain = WalkEngine(graph, UniformWalk(), config).run()

        traced_engine = WalkEngine(graph, UniformWalk(), config)
        traced_engine.observe(DeterminismTracer())
        traced = traced_engine.run()

        for left, right in zip(plain.paths, traced.paths):
            np.testing.assert_array_equal(left, right)
