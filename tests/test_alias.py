"""Unit and property tests for alias-method sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import UniformWalk
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.errors import SamplingError
from repro.graph import load_dataset
from repro.graph.builder import assign_random_weights, from_arrays, from_edges
from repro.graph.generators import truncated_power_law_graph
from repro.sampling.alias import (
    AliasTable,
    VertexAliasTables,
    build_alias_arrays,
    build_alias_segments,
)
from repro.sampling.its import VertexITSTables
from repro.sampling.typed import TypedVertexAliasTables

from tests.helpers import assert_matches_distribution, diamond_graph


def assert_table_of_rescaled(weights):
    """The table of ``weights`` is, bit for bit, that of ``weights *
    2**1074`` (an exact scaling) -> that table."""
    prob, alias = build_alias_arrays(weights)
    rescaled_prob, rescaled_alias = build_alias_arrays(np.ldexp(weights, 1074))
    np.testing.assert_array_equal(prob.view(np.uint64), rescaled_prob.view(np.uint64))
    np.testing.assert_array_equal(alias, rescaled_alias)
    return prob, alias


class TestBuildAliasArrays:
    def test_structure(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        prob, alias = build_alias_arrays(weights)
        assert prob.shape == alias.shape == (4,)
        assert np.all((prob >= 0) & (prob <= 1 + 1e-12))
        assert np.all((alias >= 0) & (alias < 4))

    def test_reconstructs_weights(self):
        """Total bucket mass assigned to each outcome equals its weight."""
        weights = np.array([0.5, 3.0, 1.5, 2.0, 0.1])
        prob, alias = build_alias_arrays(weights)
        mass = np.zeros(5)
        per_bucket = weights.sum() / 5
        for bucket in range(5):
            mass[bucket] += prob[bucket] * per_bucket
            mass[alias[bucket]] += (1 - prob[bucket]) * per_bucket
        np.testing.assert_allclose(mass, weights, rtol=1e-9)

    def test_uniform_weights(self):
        prob, _alias = build_alias_arrays(np.ones(7))
        np.testing.assert_allclose(prob, np.ones(7))

    def test_single_outcome(self):
        prob, alias = build_alias_arrays(np.array([5.0]))
        assert prob[0] == pytest.approx(1.0)
        assert alias[0] == 0

    def test_zero_weight_entries_never_sampled(self):
        weights = np.array([0.0, 1.0, 0.0, 2.0])
        table = AliasTable(weights)
        rng = np.random.default_rng(0)
        samples = table.sample_many(rng, 4000)
        assert set(np.unique(samples)) <= {1, 3}

    def test_errors(self):
        with pytest.raises(SamplingError):
            build_alias_arrays(np.array([]))
        with pytest.raises(SamplingError):
            build_alias_arrays(np.array([-1.0, 2.0]))
        with pytest.raises(SamplingError):
            build_alias_arrays(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_refused_not_left_unwritten(self, bad):
        # No entry of a NaN-scaled slice is ``< 1`` or ``>= 1``: ``prob``
        # used to come back as whatever ``np.empty`` found in memory.
        with pytest.raises(SamplingError, match="finite"):
            build_alias_arrays(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize(
        "weights", [[5e-324, 5e-324, 0.0], [0.0, 5e-324], [1e-310, 0.0, 3e-310]]
    )
    def test_subnormal_total_builds_the_table_of_the_rescaled_weights(self, weights):
        # ``n / total`` overflows here, and a zero weight scaled to
        # ``0 * inf`` is a NaN: its bucket used to read [1, 1, 1] or garbage.
        weights = np.array(weights)
        prob, _alias = assert_table_of_rescaled(weights)
        assert np.all(prob[weights == 0] == 0)


class TestAliasTable:
    def test_distribution(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable(weights)
        rng = np.random.default_rng(1)
        samples = table.sample_many(rng, 40_000)
        assert_matches_distribution(samples, weights)

    def test_scalar_matches_batch_distribution(self):
        weights = np.array([5.0, 1.0, 1.0])
        table = AliasTable(weights)
        rng = np.random.default_rng(2)
        samples = [table.sample(rng) for _ in range(20_000)]
        assert_matches_distribution(samples, weights)


class TestVertexAliasTables:
    def test_per_vertex_distribution(self):
        graph = diamond_graph(weights=True)
        tables = VertexAliasTables(graph)
        rng = np.random.default_rng(3)
        for vertex in range(graph.num_vertices):
            start, end = graph.edge_range(vertex)
            samples = [tables.sample(vertex, rng) - start for _ in range(8000)]
            assert_matches_distribution(samples, graph.edge_weights(vertex))

    def test_default_weights_are_graph_weights(self):
        graph = assign_random_weights(
            truncated_power_law_graph(50, 2.0, 2, 10, seed=0), seed=1
        )
        tables = VertexAliasTables(graph)
        np.testing.assert_array_equal(tables.static_weights, graph.weights)
        assert tables.total_static(0) == pytest.approx(
            graph.total_out_weight(0)
        )

    def test_batch_matches_scalar_distribution(self):
        graph = diamond_graph(weights=True)
        tables = VertexAliasTables(graph)
        rng = np.random.default_rng(4)
        vertices = np.full(30_000, 1, dtype=np.int64)
        start, _end = graph.edge_range(1)
        samples = tables.sample_batch(vertices, rng) - start
        assert_matches_distribution(samples, graph.edge_weights(1))

    def test_custom_static_weights(self):
        graph = diamond_graph()
        custom = np.arange(1.0, graph.num_edges + 1.0)
        tables = VertexAliasTables(graph, custom)
        rng = np.random.default_rng(5)
        start, end = graph.edge_range(2)
        samples = [tables.sample(2, rng) - start for _ in range(10_000)]
        assert_matches_distribution(samples, custom[start:end])

    @pytest.mark.parametrize(
        "tables", [VertexAliasTables, VertexITSTables, TypedVertexAliasTables]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_static_component_names_the_edge(self, tables, bad):
        graph = from_arrays(3, [0, 0, 1, 2], [1, 2, 2, 0], edge_types=[0, 1, 0, 0])
        static = np.array([1.0, 2.0, bad, 1.0])
        with pytest.raises(SamplingError, match="edge 2 is not finite"):
            tables(graph, static)

    def test_walk_over_a_reciprocal_of_a_zero_weight_is_refused(self):
        class Reciprocal(UniformWalk):
            def edge_static_comp(self, graph):
                with np.errstate(divide="ignore"):
                    return 1.0 / graph.weights

        graph = from_edges(3, [(0, 1, 2.0), (1, 2, 0.0), (2, 0, 1.0)])
        with pytest.raises(SamplingError, match="edge 1 is not finite"):
            WalkEngine(graph, Reciprocal(), WalkConfig(num_walkers=3, max_steps=4))

    def test_subnormal_total_vertex_never_draws_its_zero_weight_edge(self):
        graph = from_arrays(
            4, [0, 0, 0, 1], [1, 2, 3, 0], weights=[5e-324, 5e-324, 0.0, 1.0]
        )
        tables = VertexAliasTables(graph)
        start, end = graph.edge_range(0)
        zero_edge = start + int(np.flatnonzero(graph.weights[start:end] == 0)[0])
        vertices = np.zeros(4000, dtype=np.int64)
        draws = tables.sample_batch(vertices, np.random.default_rng(8))
        assert set(draws.tolist()) == set(range(start, end)) - {zero_edge}

    def test_dead_end_vertex(self):
        graph = from_edges(3, [(0, 1)])
        tables = VertexAliasTables(graph)
        rng = np.random.default_rng(6)
        with pytest.raises(SamplingError):
            tables.sample(1, rng)
        with pytest.raises(SamplingError):
            tables.sample_batch(np.array([1]), rng)

    def test_zero_mass_vertex(self):
        graph = from_edges(3, [(0, 1), (0, 2)])
        tables = VertexAliasTables(graph, np.zeros(2))
        rng = np.random.default_rng(7)
        with pytest.raises(SamplingError):
            tables.sample(0, rng)

    def test_misaligned_weights(self):
        with pytest.raises(SamplingError):
            VertexAliasTables(diamond_graph(), np.ones(3))

    def test_negative_weights(self):
        graph = from_edges(2, [(0, 1)])
        with pytest.raises(SamplingError):
            VertexAliasTables(graph, np.array([-1.0]))

    def test_totals_array(self):
        graph = diamond_graph(weights=True)
        tables = VertexAliasTables(graph)
        for vertex in range(4):
            assert tables.totals[vertex] == pytest.approx(
                graph.total_out_weight(vertex)
            )


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.0, max_value=100.0),
        min_size=1,
        max_size=30,
    )
)
def test_alias_mass_conservation_property(weights):
    """For any non-negative weights with positive total, the alias
    table's implied per-outcome mass equals the input weights."""
    weights = np.asarray(weights)
    if weights.sum() <= 0:
        return
    prob, alias = build_alias_arrays(weights)
    n = weights.size
    mass = np.zeros(n)
    per_bucket = weights.sum() / n
    for bucket in range(n):
        mass[bucket] += prob[bucket] * per_bucket
        mass[alias[bucket]] += (1 - prob[bucket]) * per_bucket
    np.testing.assert_allclose(mass, weights, rtol=1e-6, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    units=st.lists(st.integers(0, 2**20), min_size=1, max_size=300),
    exponent=st.integers(-1074, -1000),
)
def test_tiny_totals_never_sample_a_zero_weight(units, exponent):
    """Weights ``units * 2**exponent`` (exact), so the total is tiny and
    ``n / total`` may overflow: no zero-weight bucket keeps its outcome,
    no bucket aliases one, and the table is that of the weights scaled
    by an exact power of two."""
    assume(any(units))
    weights = np.ldexp(np.array(units, dtype=np.float64), exponent)
    prob, alias = assert_table_of_rescaled(weights)
    zero = weights == 0
    assert np.all(prob[zero] == 0)
    assert not zero[alias].any()


def test_alias_segments_peak_memory_stays_near_their_output():
    """A full build holds one segment's Python lists at a time: an
    |E|-sized list of boxed floats alone costs twice the tables it
    produces."""
    graph = assign_random_weights(load_dataset("twitter", scale=1.0), seed=1)
    assert graph.num_edges >= 300_000
    tracemalloc.start()
    try:
        tables = build_alias_segments(graph.weights, graph.offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(array.nbytes for array in tables)
