"""Shared test utilities: small graphs, distribution checks, oracles."""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.kernels import batch_trial_round, first_accepts, full_scan_spans
from repro.core.walker import WalkerSet
from repro.graph.builder import from_arrays, from_edges
from repro.sampling.alias import VertexAliasTables

__all__ = [
    "diamond_graph",
    "two_triangle_graph",
    "empirical_counts",
    "scan_of_masses",
    "assert_matches_distribution",
    "exact_node2vec_law",
    "widened_round",
    "ReplayPathOracle",
    "resumed_run",
    "assert_same_run",
]


def diamond_graph(weights: bool = False):
    """4-vertex undirected diamond: 0-1, 0-2, 1-2, 1-3, 2-3.

    Small enough to enumerate exact walk laws by hand; vertex 0 and 3
    are NOT adjacent, giving node2vec all three d_tx cases.
    """
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    if weights:
        edges = [(u, v, 1.0 + 0.5 * i) for i, (u, v) in enumerate(edges)]
    return from_edges(4, edges, undirected=True)


def two_triangle_graph():
    """Two triangles sharing vertex 0 (undirected, 5 vertices)."""
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    return from_edges(5, edges, undirected=True)


class _UnitPd:
    """A program whose Pd is 1 on every edge: a scan's mass is its Ps."""

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return np.ones(candidate_edges.size)


def scan_of_masses(masses):
    """``full_scan_spans`` of one walker per segment of ``masses``:
    walker ``i`` sits at vertex ``i``, whose out-edges carry Ps
    ``masses[i]`` in order (every segment needs at least one edge)."""
    degrees = [len(segment) for segment in masses]
    sources = np.repeat(np.arange(len(masses)), degrees)
    graph = from_arrays(
        len(masses) + 1,
        sources,
        np.full(sources.size, len(masses)),
        weights=np.concatenate([np.asarray(m, dtype=np.float64) for m in masses]),
    )
    walkers = WalkerSet(np.arange(len(masses)))
    return full_scan_spans(
        graph, VertexAliasTables(graph), _UnitPd(), walkers, np.arange(len(masses))
    )


def empirical_counts(samples, support_size: int) -> np.ndarray:
    """Histogram of integer samples over 0..support_size-1."""
    return np.bincount(np.asarray(samples, dtype=np.int64), minlength=support_size)


def assert_matches_distribution(
    samples,
    expected_probabilities: np.ndarray,
    significance: float = 1e-4,
) -> None:
    """Chi-square goodness-of-fit check of integer samples.

    ``significance`` is deliberately tiny: these tests should only fail
    for real bugs, not for unlucky draws.  Zero-probability outcomes
    must not appear at all.
    """
    expected_probabilities = np.asarray(expected_probabilities, dtype=np.float64)
    expected_probabilities = expected_probabilities / expected_probabilities.sum()
    counts = empirical_counts(samples, expected_probabilities.size)
    impossible = expected_probabilities == 0
    assert counts[impossible].sum() == 0, (
        f"sampled impossible outcomes: {np.flatnonzero(impossible & (counts > 0))}"
    )
    observed = counts[~impossible]
    expected = expected_probabilities[~impossible] * counts.sum()
    if observed.size < 2:
        return  # degenerate single-outcome distribution
    _stat, p_value = stats.chisquare(observed, expected)
    assert p_value > significance, (
        f"distribution mismatch (p={p_value:.2e}): observed {observed}, "
        f"expected {expected}"
    )


def exact_node2vec_law(
    graph, current: int, previous: int, p: float, q: float, biased: bool
) -> np.ndarray:
    """Exact next-vertex law for node2vec by direct enumeration."""
    start, end = graph.edge_range(current)
    law = np.zeros(graph.num_vertices, dtype=np.float64)
    for edge in range(start, end):
        target = int(graph.targets[edge])
        static = (
            float(graph.weights[edge])
            if (biased and graph.weights is not None)
            else 1.0
        )
        if previous < 0:
            dynamic = 1.0
        elif target == previous:
            dynamic = 1.0 / p
        elif graph.has_edge(previous, target):
            dynamic = 1.0
        else:
            dynamic = 1.0 / q
        law[target] += static * dynamic
    total = law.sum()
    assert total > 0
    return law / total


def widened_round(
    graph, tables, program, walkers, ctx, rng, counters, scratch, num_trials,
    validate_bounds=False, main_dynamic_comp=None,
):
    """A fused round as ``WalkEngine._trial_round`` runs it: the batch
    kernel over ``num_trials`` lanes per walker, then each walker's
    first accept.  Returns ``(accepted, edges, trials_used, pd_used)``
    per walker and the per-cell outcome they were reduced from."""
    cells = batch_trial_round(
        graph, tables, program, walkers, ctx.repeat(num_trials), rng, None,
        scratch, validate_bounds=validate_bounds,
        main_dynamic_comp=main_dynamic_comp,
    )
    return first_accepts(cells, num_trials, counters), cells


class ReplayPathOracle:
    """The pre-PR-13 path recorder, kept as the reference: it stores
    one (walker_ids, vertices) batch per commit and rebuilds every
    walker's sequence by replaying each move in Python.  Slow and
    obviously right; :class:`repro.core.trace.PathRecorder` must agree
    with it move for move."""

    def __init__(self, start_vertices) -> None:
        self.starts = np.asarray(start_vertices, dtype=np.int64).copy()
        self.move_walkers: list[np.ndarray] = []
        self.move_vertices: list[np.ndarray] = []

    def on_moves(self, walker_ids, vertices) -> None:
        if len(walker_ids):
            self.move_walkers.append(np.asarray(walker_ids, dtype=np.int64).copy())
            self.move_vertices.append(np.asarray(vertices, dtype=np.int64).copy())

    def paths(self) -> list[list[int]]:
        paths = [[int(start)] for start in self.starts]
        for walker_ids, vertices in zip(self.move_walkers, self.move_vertices):
            for walker_id, vertex in zip(walker_ids, vertices):
                paths[int(walker_id)].append(int(vertex))
        return paths

    @classmethod
    def attach(cls, engine) -> "ReplayPathOracle":
        """Subscribe a fresh oracle to every move the engine commits."""
        oracle = cls(engine.walkers.current)
        engine.observe(oracle)
        return oracle


def resumed_run(engine, pause, path, restore):
    """Run ``engine`` for ``pause`` supersteps, save it to ``path``,
    and finish the run ``restore(path)`` rebuilds from the file."""
    from repro.core.snapshot import save_checkpoint

    assert engine.run(max_iterations=pause).status == "paused"
    save_checkpoint(engine, path)
    return restore(path).run()


def assert_same_run(resumed, whole):
    """Same paths and the same simulated bill — every field
    ``tests.test_golden_walks.bill`` pins — as the uninterrupted run."""
    from tests.test_golden_walks import bill

    assert len(resumed.paths) == len(whole.paths)
    for a, b in zip(resumed.paths, whole.paths):
        np.testing.assert_array_equal(a, b)
    assert bill(resumed.cluster) == bill(whole.cluster)
