"""Every path to a sampler table against the frozen per-vertex builds.

PR 22 put the derivation of a table slice behind one function per
sampler kind (``build_alias_segments``, ``segmented_cumsum``) and made
the alias layout vertex-local.  ``tests/reference_tables.py`` keeps the
old per-vertex statements; here Hypothesis draws graphs — weighted and
not, with empty vertices, all-zero slices and a hub above the
rank-iteration cutoff — and requires the from-scratch tables, chains of
``updated(...)`` under degree-changing touched sets and the typed
groups to equal them bit for bit, and ``mismatches`` to name exactly
the vertices whose slices were damaged.  The pairing pass itself is
held to the frozen one on single segments too — degrees up to 300,
duplicates, zeros, weights over 1e-300...1e300 and long stack chains —
comparing the bits of ``prob``.  A rewrite of either builder (ROADMAP
2a) has to keep this file green.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_arrays
from repro.sampling.alias import VertexAliasTables, build_alias_arrays
from repro.sampling.its import _RANK_ITERATION_CUTOFF, VertexITSTables
from repro.sampling.typed import TypedVertexAliasTables
from tests.reference_tables import (
    reference_alias_tables,
    reference_build_alias_arrays,
    reference_its_tables,
)
from tests.test_dynamic import assert_tables_identical

KINDS = (VertexAliasTables, VertexITSTables)
NUM_TYPES = 3


class _Edges:
    """A mutable edge set whose untouched slices survive ``redraw``."""

    def __init__(self, rng, count, weighted):
        self.rng, self.count, self.weighted = rng, count, weighted
        self.sources = np.zeros(0, dtype=np.int64)
        self.targets = np.zeros(0, dtype=np.int64)
        self.weights = np.zeros(0)
        self.types = np.zeros(0, dtype=np.int32)
        self.redraw(np.arange(count))

    def redraw(self, vertices):
        """New adjacency (another degree, possibly none) for ``vertices``."""
        rng = self.rng
        degrees = rng.integers(0, 7, size=len(vertices))
        if len(vertices) and rng.random() < 0.3:  # a hub above the cutoff
            degrees[rng.integers(len(vertices))] = (
                _RANK_ITERATION_CUTOFF + rng.integers(1, 40)
            )
        keep = ~np.isin(self.sources, vertices)
        sources = np.repeat(np.asarray(vertices, dtype=np.int64), degrees)
        weights = rng.integers(0, 9, size=sources.size) / 2.0 + rng.random(
            sources.size
        ) * (rng.random(sources.size) < 0.5)
        for vertex in vertices:  # all-zero slices, and single zero entries
            if rng.random() < 0.2:
                weights[sources == vertex] = 0.0
        self.sources = np.concatenate([self.sources[keep], sources])
        self.targets = np.concatenate(
            [self.targets[keep], rng.integers(0, self.count, size=sources.size)]
        )
        self.weights = np.concatenate([self.weights[keep], weights])
        self.types = np.concatenate(
            [self.types[keep], rng.integers(0, NUM_TYPES, size=sources.size)]
        ).astype(np.int32)

    def graph(self):
        return from_arrays(
            self.count,
            self.sources,
            self.targets,
            weights=self.weights if self.weighted else None,
            edge_types=self.types,
        )


@st.composite
def edge_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _Edges(rng, draw(st.integers(1, 9)), draw(st.booleans()))


def static_of(graph, rng, custom):
    """``None`` (the default Ps) or a program's own array."""
    if not custom:
        return None
    return rng.integers(0, 4, size=graph.num_edges) * rng.random(graph.num_edges)


def at_touched(graph, touched):
    """Per edge: whether its source is one of ``touched``."""
    sources = np.repeat(np.arange(graph.num_vertices), np.diff(graph.offsets))
    return np.isin(sources, touched)


def assert_equals_frozen(tables):
    graph, static = tables.graph, tables.static_weights
    if isinstance(tables, VertexAliasTables):
        prob, flat_alias, totals = reference_alias_tables(graph, static)
        starts = np.repeat(graph.offsets[:-1], np.diff(graph.offsets))
        np.testing.assert_array_equal(tables._prob, prob)
        np.testing.assert_array_equal(starts + tables._alias, flat_alias)
    else:
        cdf, totals = reference_its_tables(graph, static)
        np.testing.assert_array_equal(tables._cdf, cdf)
    np.testing.assert_array_equal(tables.totals, totals)


@pytest.mark.parametrize("kind", KINDS)
@given(edges=edge_sets(), custom=st.booleans(), epochs=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_full_build_and_update_chains_equal_the_frozen_build(
    kind, edges, custom, epochs
):
    rng = edges.rng
    graph = edges.graph()
    if not custom:  # "weights, or ones": the one default
        expected = graph.weights if edges.weighted else np.ones(graph.num_edges)
        np.testing.assert_array_equal(kind(graph).static_weights, expected)
    tables = kind(graph, static_of(graph, rng, custom))
    assert_equals_frozen(tables)
    for _ in range(epochs):
        touched = np.flatnonzero(rng.random(edges.count) < 0.4)
        edges.redraw(touched)
        graph = edges.graph()
        static = static_of(graph, rng, custom)
        if custom:  # untouched slices keep the Ps they were built over
            static[~at_touched(graph, touched)] = tables.static_weights[
                ~at_touched(tables.graph, touched)
            ]
        tables = tables.updated(graph, static, touched)
        assert tables.graph is graph
        assert_equals_frozen(tables)
        assert_tables_identical(tables, kind(graph, static))
        assert tables.mismatches(np.arange(edges.count)) == []


@given(edges=edge_sets(), custom=st.booleans())
@settings(max_examples=60, deadline=None)
def test_typed_tables_equal_a_per_group_build(edges, custom):
    graph = edges.graph()
    tables = TypedVertexAliasTables(graph, static_of(graph, edges.rng, custom))
    static = tables.static_weights
    entries = 0
    for vertex in range(graph.num_vertices):
        start, end = graph.edge_range(vertex)
        for edge_type in range(NUM_TYPES):
            group = start + np.flatnonzero(graph.edge_types[start:end] == edge_type)
            total = static[group].sum() if group.size else 0.0
            assert tables.total_static(vertex, edge_type) == total
            assert tables.has_type(vertex, edge_type) == (total > 0)
            if total <= 0:
                if edge_type < tables.num_types:
                    assert tables._group_count[vertex, edge_type] == 0
                continue
            prob, alias = reference_build_alias_arrays(static[group])
            first = tables._group_start[vertex, edge_type]
            span = slice(first, first + tables._group_count[vertex, edge_type])
            np.testing.assert_array_equal(tables._flat_edges[span], group)
            np.testing.assert_array_equal(tables._flat_prob[span], prob)
            np.testing.assert_array_equal(tables._flat_alias[span], alias)
            entries += group.size
    assert tables.total_entries() == entries


@st.composite
def weight_segments(draw):
    """One segment of 1-300 weights, with ``n / total`` finite: drawn
    from a small pool (duplicates; zeros; one value makes it uniform),
    or log-uniform over a drawn span of 1e-300...1e300, some zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        magnitudes = st.builds(
            lambda mantissa, exponent: mantissa * 10.0**exponent,
            st.floats(1.0, 9.0),
            st.integers(-300, 299),
        )
        values = st.one_of(st.just(0.0), magnitudes)
        pool = draw(st.lists(values, min_size=1, max_size=6))
        weights = np.array(pool)[rng.integers(len(pool), size=n)]
    else:
        low = draw(st.integers(-300, 300))
        high = draw(st.integers(low, 300))
        weights = 10.0 ** rng.uniform(low, high, size=n)
        weights[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    assume(weights.sum() > 0)
    return weights


def assert_equals_frozen_pass(weights):
    prob, alias = build_alias_arrays(weights)
    expected_prob, expected_alias = reference_build_alias_arrays(weights)
    np.testing.assert_array_equal(prob.view(np.uint64), expected_prob.view(np.uint64))
    np.testing.assert_array_equal(alias, expected_alias)
    return alias


@given(weights=weight_segments())
@settings(max_examples=150, deadline=None)
def test_pairing_pass_equals_the_frozen_pass_bitwise(weights):
    assert_equals_frozen_pass(weights)


@pytest.mark.parametrize("n", [2, 64, 65, 300, 5000])
def test_a_long_large_chain_equals_the_frozen_pass(n):
    # One heavy weight among light ones: ``large`` holds the heavy
    # outcome alone, popped and pushed back n - 1 times.
    rng = np.random.default_rng(n)
    weights = rng.random(n)
    heavy = int(rng.integers(n))
    weights[heavy] = 1e3 * n
    alias = assert_equals_frozen_pass(weights)
    assert np.all(np.delete(alias, heavy) == heavy)


@pytest.mark.parametrize(
    "kind, array",
    [(kind, name) for kind in KINDS for name in (*kind._PER_EDGE, "_totals")],
)
@given(edges=edge_sets(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_mismatches_names_exactly_the_damaged_vertices(kind, array, edges, data):
    graph = edges.graph()
    tables = kind(graph)
    vertices = np.arange(edges.count)
    assert tables.mismatches(vertices) == []
    if array != "_totals":  # only a vertex with an edge has a slice
        vertices = np.flatnonzero(np.diff(graph.offsets) > 0)
    damaged = set()
    if vertices.size:
        damaged = data.draw(st.sets(st.sampled_from(vertices.tolist())))
    for vertex in damaged:
        start, end = graph.edge_range(vertex)
        index = vertex if array == "_totals" else int(edges.rng.integers(start, end))
        getattr(tables, array)[index] += 1
    assert tables.mismatches(np.arange(edges.count)) == sorted(damaged)
    probes = np.flatnonzero(edges.rng.random(edges.count) < 0.5)
    assert tables.mismatches(probes) == sorted(damaged & set(probes.tolist()))
