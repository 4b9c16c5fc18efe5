"""Additional hypothesis property tests across the sampling stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_arrays
from repro.graph.partition import partition_graph
from repro.graph.transform import induced_subgraph, reverse_graph
from repro.sampling.alias import VertexAliasTables

from tests.helpers import scan_of_masses


@st.composite
def weighted_fans(draw):
    """A single-source fan graph with random positive weights."""
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=50.0),
            min_size=1,
            max_size=12,
        )
    )
    edges = [(0, i + 1, w) for i, w in enumerate(weights)]
    sources = np.zeros(len(weights), dtype=np.int64)
    targets = np.arange(1, len(weights) + 1, dtype=np.int64)
    graph = from_arrays(
        len(weights) + 1, sources, targets, weights=np.asarray(weights)
    )
    return graph, np.asarray(weights)


@settings(max_examples=30, deadline=None)
@given(data=weighted_fans(), seed=st.integers(0, 10_000))
def test_alias_samples_the_exact_law(data, seed):
    """Alias draws approximate the exact shares of the weights."""
    graph, weights = data
    draws = 3000
    samples = VertexAliasTables(graph).sample_batch(
        np.zeros(draws, dtype=np.int64), np.random.default_rng(seed)
    )
    frequencies = np.bincount(samples, minlength=weights.size) / draws
    assert np.abs(frequencies - weights / weights.sum()).max() < 0.12


@settings(max_examples=30, deadline=None)
@given(
    masses=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 10_000),
)
def test_full_scan_sample_respects_segments(masses, seed):
    """Choices always land inside their own segment with positive mass."""
    flat = np.concatenate([np.asarray(m) for m in masses])
    spans = scan_of_masses(masses)
    offsets = spans.boundaries
    choices = spans.sample(np.arange(len(masses)), np.random.default_rng(seed))
    grand_total = flat.sum()
    for index, mass in enumerate(masses):
        total = sum(mass)
        assert spans.totals[index] == pytest.approx(total)
        if total == 0:
            assert spans.totals[index] <= 0.0
        else:
            low, high = offsets[index], offsets[index + 1]
            assert low <= choices[index] < high
            # Weight-proportional selection holds unless the segment's
            # mass is below the global prefix sum's float resolution
            # (the documented caveat of FullScanSpans).
            if total > 1e-12 * grand_total:
                assert flat[choices[index]] > 0


@st.composite
def random_csr_graphs(draw):
    num_vertices = draw(st.integers(2, 15))
    num_edges = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges)
    targets = rng.integers(0, num_vertices, size=num_edges)
    return from_arrays(num_vertices, sources, targets)


@settings(max_examples=40, deadline=None)
@given(graph=random_csr_graphs(), parts=st.integers(1, 6))
def test_partition_owner_consistency(graph, parts):
    parts = min(parts, graph.num_vertices)
    partition = partition_graph(graph, parts)
    owners = partition.owners(np.arange(graph.num_vertices))
    # Every vertex has exactly one owner, owners are sorted ranges.
    assert owners.min() >= 0 and owners.max() < parts
    assert np.all(np.diff(owners) >= 0)
    for part in range(parts):
        for vertex in partition.vertices_of(part):
            assert owners[vertex] == part


@settings(max_examples=40, deadline=None)
@given(graph=random_csr_graphs())
def test_reverse_is_involutive(graph):
    assert reverse_graph(reverse_graph(graph)) == graph


@settings(max_examples=30, deadline=None)
@given(graph=random_csr_graphs(), seed=st.integers(0, 1000))
def test_induced_subgraph_edges_are_original_edges(graph, seed):
    rng = np.random.default_rng(seed)
    size = rng.integers(1, graph.num_vertices + 1)
    chosen = rng.choice(graph.num_vertices, size=size, replace=False)
    subgraph, mapping = induced_subgraph(graph, chosen)
    for new_source in range(subgraph.num_vertices):
        for new_target in subgraph.neighbors(new_source):
            assert graph.has_edge(
                int(mapping[new_source]), int(mapping[new_target])
            )


@settings(max_examples=25, deadline=None)
@given(
    paths=st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=12),
        min_size=1,
        max_size=10,
    )
)
def test_corpus_roundtrip_property(paths, tmp_path_factory):
    from repro.analysis import load_corpus, save_corpus

    directory = tmp_path_factory.mktemp("corpus")
    target = directory / "walks.txt"
    save_corpus([np.asarray(p) for p in paths], target)
    loaded = load_corpus(target)
    assert [p.tolist() for p in loaded] == paths
