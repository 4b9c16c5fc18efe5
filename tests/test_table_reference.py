"""Every path to a sampler table against the frozen per-vertex build.

The derivation of a table slice sits behind one function,
``build_alias_segments``, and the alias layout is vertex-local.
``tests/reference_tables.py`` keeps the old per-vertex statements; here
Hypothesis draws graphs — weighted and not, with empty vertices,
all-zero slices, a hub of over 256 edges and degrees at numpy's
pairwise-sum boundaries (8 and 128) — and a chunk size for the weighted
build, down to one edge, so chunk boundaries fall before, at and
inside hubs.  It requires the from-scratch tables, chains of
``updated(...)`` under degree-changing touched sets and the typed
groups to equal the frozen build bit for bit, and ``mismatches`` to
name exactly the vertices whose slices were damaged.  Zero-mass,
subnormal-total and overflowing segments are mixed with plain ones in
one build.
The pairing pass itself is held to the frozen one on single segments
too — degrees up to 300, duplicates, zeros, weights over
1e-300...1e300 and long stack chains — comparing the bits of ``prob``.

A chunk's tables pair in lock step until fewer than ``FINISH_LANES``
remain, which the scalar pass finishes.  Every test here also draws
(or loops over) that threshold at three settings: 1, the lock step to
the end; the default; and one above any table count, the scalar pass
alone.  The small graphs above seldom hold the default's count of
tables, so lock-step graphs of 100-160 pairing vertices — a hub among
them, and twins, vertices with identical slices whose larges demote
in the same round — are drawn as well.  A rewrite of the segment
builder, the lock step or the pass has to keep this file green.
"""

import functools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.graph.builder import from_arrays
from repro.sampling import alias as alias_module
from repro.sampling.alias import (
    VertexAliasTables,
    build_alias_arrays,
    build_alias_segments,
)
from repro.sampling.typed import TypedVertexAliasTables
from tests.reference_tables import (
    reference_alias_tables,
    reference_build_alias_arrays,
)
from tests.test_dynamic import assert_tables_identical

KINDS = (VertexAliasTables,)
HUB_DEGREE = 256
NUM_TYPES = 3
# Around numpy's pairwise summation: 8 accumulators from 8 entries on,
# blocks of 128, and a hub of over a thousand.
BOUNDARY_DEGREES = (1, 7, 8, 9, 127, 128, 129, 1031)
CHUNKS = (1, 7, 64, 300, alias_module.CHUNK_EDGES)
# Lock step to the end, the default, and the scalar pass alone.
FINISHES = (1, alias_module.FINISH_LANES, 10**9)


def chunked(
    chunk, finish=alias_module.FINISH_LANES, entries=alias_module.FINISH_ENTRIES
):
    """The weighted build, a chunk of ``chunk`` edges at a time, in lock
    step while ``finish`` tables or more are left, the rest finished
    about ``entries`` stack entries at a time."""
    return mock.patch.multiple(
        alias_module, CHUNK_EDGES=chunk, FINISH_LANES=finish, FINISH_ENTRIES=entries
    )


def in_chunks(test):
    """``test`` with the weighted build in chunks of its edge set's size,
    finished at its edge set's threshold."""

    @functools.wraps(test)
    def run(*args, edges, **kwargs):
        with chunked(edges.chunk, edges.finish):
            return test(*args, edges=edges, **kwargs)

    return run


class _Edges:
    """A mutable edge set whose untouched slices survive ``redraw``."""

    def __init__(self, rng, count, weighted, chunk, finish):
        self.rng, self.count, self.weighted = rng, count, weighted
        self.chunk, self.finish = chunk, finish
        self.sources = np.zeros(0, dtype=np.int64)
        self.targets = np.zeros(0, dtype=np.int64)
        self.weights = np.zeros(0)
        self.types = np.zeros(0, dtype=np.int32)
        self.redraw(np.arange(count))

    def redraw(self, vertices):
        """New adjacency (another degree, possibly none) for ``vertices``."""
        rng = self.rng
        degrees = rng.integers(0, 7, size=len(vertices))
        if len(vertices) and rng.random() < 0.3:  # a hub
            degrees[rng.integers(len(vertices))] = HUB_DEGREE + rng.integers(1, 40)
        if len(vertices) and rng.random() < 0.3:
            degrees[rng.integers(len(vertices))] = rng.choice(BOUNDARY_DEGREES)
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
    return _Edges(
        rng,
        draw(st.integers(1, 9)),
        draw(st.booleans()),
        draw(st.sampled_from(CHUNKS)),
        draw(st.sampled_from(FINISHES)),
    )


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
    graph = tables.graph
    prob, flat_alias, totals = reference_alias_tables(graph, tables.static_weights)
    starts = np.repeat(graph.offsets[:-1], np.diff(graph.offsets))
    np.testing.assert_array_equal(tables._prob, prob)
    np.testing.assert_array_equal(starts + tables._alias, flat_alias)
    np.testing.assert_array_equal(tables.totals, totals)


@pytest.mark.parametrize("kind", KINDS)
@given(edges=edge_sets(), custom=st.booleans(), epochs=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
@in_chunks
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
@in_chunks
def test_typed_tables_equal_a_per_group_build(edges, custom):
    graph = edges.graph()
    assert_typed_equals_frozen(
        TypedVertexAliasTables(graph, static_of(graph, edges.rng, custom))
    )


def assert_typed_equals_frozen(tables):
    graph, static = tables.graph, tables.static_weights
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


@pytest.mark.parametrize("reach", [-1, 0, 1, 150, 300])
def test_a_chunk_may_end_before_at_or_inside_a_hub(reach):
    # Ten vertices of degree 3, a hub of 300 starting at edge 30, five
    # more: a chunk of 30 + reach edges ends a vertex early, exactly at
    # the hub, or cannot hold it — then the hub is a chunk of its own.
    rng = np.random.default_rng(reach + 2)
    degrees = np.array([3] * 10 + [300] + [3] * 5)
    sources = np.repeat(np.arange(degrees.size), degrees)
    graph = from_arrays(
        degrees.size,
        sources,
        rng.integers(0, degrees.size, size=sources.size),
        weights=rng.random(sources.size) * 4,
    )
    for finish in FINISHES:
        for entries in (8, alias_module.FINISH_ENTRIES):  # the hub's alone
            with chunked(30 + reach, finish, entries):
                assert_equals_frozen(VertexAliasTables(graph))


@st.composite
def lock_step_edges(draw):
    """100-160 vertices of degree 2-20 and one hub, each with a small
    and a large entry, so all of them pair in one chunk; one in five a
    twin of the vertex before it (the same slice, so their larges
    demote in the same round)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(100, 160))
    degrees = rng.integers(2, 21, size=count)
    degrees[rng.integers(count)] = HUB_DEGREE + rng.integers(1, 40)
    slices = []
    for degree in degrees.tolist():
        if slices and rng.random() < 0.2:
            slices.append(slices[-1].copy())
            continue
        weights = rng.integers(0, 9, size=degree) / 2.0
        weights += rng.random(degree) * (rng.random() < 0.5)
        if np.ptp(weights) == 0:  # a uniform slice pairs nothing
            weights[0] += 1.0
        slices.append(weights)
    degrees = np.array([weights.size for weights in slices])
    sources = np.repeat(np.arange(count), degrees)
    return from_arrays(
        count,
        sources,
        rng.integers(0, count, size=sources.size),
        weights=np.concatenate(slices),
        edge_types=rng.integers(0, NUM_TYPES, size=sources.size).astype(np.int32),
    )


@given(graph=lock_step_edges(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_lock_step_tables_equal_the_frozen_build(graph, data):
    """At each threshold — lock step to the end, the default, the scalar
    pass alone, and that in batches of 8 stack entries — a chunk of 100
    or more pairing tables equals the frozen build, from scratch,
    updated, verified and as typed groups (the first setting against
    the frozen statements, the others against the first, bit for
    bit)."""
    touched = np.array(
        sorted(data.draw(st.sets(st.integers(0, graph.num_vertices - 1), min_size=100)))
    )
    lock_step = alias_module._vose_lock_step
    built = []
    settings = [(finish, alias_module.FINISH_ENTRIES) for finish in FINISHES]
    for finish, entries in settings + [(FINISHES[-1], 8)]:  # + small batches
        with chunked(alias_module.CHUNK_EDGES, finish, entries), mock.patch.object(
            alias_module, "_vose_lock_step", wraps=lock_step
        ) as entered:
            tables = VertexAliasTables(graph)
            assert entered.call_args.args[3].shape[1] == graph.num_vertices
            assert_tables_identical(tables.updated(graph, None, touched), tables)
            assert tables.mismatches(np.arange(graph.num_vertices)) == []
            built.append((tables, TypedVertexAliasTables(graph)))
    (first, first_typed), *others = built
    assert_equals_frozen(first)
    assert_typed_equals_frozen(first_typed)
    for tables, typed in others:
        assert_tables_identical(tables, first)
        assert_tables_identical(typed, first_typed)


SEGMENT_KINDS = ("plain", "empty", "zero-mass", "subnormal-total")


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(SEGMENT_KINDS), min_size=1, max_size=12),
    chunk=st.sampled_from(CHUNKS),
    finish=st.sampled_from(FINISHES),
    overflow_at=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_odd_segments_mixed_with_plain_ones_in_one_build(
    seed, kinds, chunk, finish, overflow_at
):
    """Each segment of one build equals its own frozen table: a zero-mass
    one is unusable (``prob`` 0), a subnormal total's is that of its
    weights scaled by the exact ``2**1074``.  Then one segment whose sum
    overflows, put among them, fails the build by its id — warning of
    nothing."""
    rng = np.random.default_rng(seed)
    segments = []
    for kind in kinds:
        degree = 0 if kind == "empty" else int(rng.choice(BOUNDARY_DEGREES[:7]))
        weights = rng.random(degree) * 10.0 ** rng.uniform(-300, 300)
        if kind == "zero-mass":
            weights[:] = 0.0
        elif kind == "subnormal-total":
            weights = np.ldexp(rng.integers(0, 2**20, degree).astype(float), -1074)
            weights[0] = 5e-324
        segments.append(weights)
    values, offsets = laid_end_to_end(segments)
    with chunked(chunk, finish), warnings.catch_warnings():
        warnings.simplefilter("error")
        totals, prob, alias = build_alias_segments(values, offsets)
    for index, (kind, weights) in enumerate(zip(kinds, segments)):
        span = slice(offsets[index], offsets[index + 1])
        assert totals[index].tobytes() == weights.sum().tobytes()
        if kind in ("empty", "zero-mass"):
            assert not prob[span].any() and not alias[span].any()
            continue
        if kind == "subnormal-total":
            weights = np.ldexp(weights, 1074)
        expected_prob, expected_alias = reference_build_alias_arrays(weights)
        np.testing.assert_array_equal(
            prob[span].view(np.uint64), expected_prob.view(np.uint64)
        )
        np.testing.assert_array_equal(alias[span], expected_alias)
    overflow_at = min(overflow_at, len(segments))
    segments.insert(overflow_at, np.array([1e308, 1.0, 1e308]))
    values, offsets = laid_end_to_end(segments)
    order = rng.permutation(len(segments))  # a partial build names its own ids
    with chunked(chunk, finish), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SamplingError, match=f"vertex {overflow_at} have no"):
            build_alias_segments(values, offsets)
        with pytest.raises(SamplingError, match=f"vertex {overflow_at} have no"):
            build_alias_segments(values, offsets, order)


def laid_end_to_end(segments):
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([weights.size for weights in segments], out=offsets[1:])
    return np.concatenate(segments), offsets


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
    [(kind, name) for kind in KINDS for name in ("_prob", "_alias", "_totals")],
)
@given(edges=edge_sets(), data=st.data())
@settings(max_examples=40, deadline=None)
@in_chunks
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
