"""Analysis utilities over recorded walks.

Random walk engines are usually a pre-processing stage (the paper's
DeepWalk/node2vec workloads feed skip-gram training; PPR/RWR walks feed
ranking queries).  This module provides the standard post-processing
primitives over a :class:`~repro.core.engine.WalkResult`'s paths:

* visit counts and empirical transition counts (sanity-checking a walk
  against its intended law, estimating stationary distributions);
* skip-gram (center, context) pair extraction with a sliding window —
  the input format of word2vec-style trainers; and
* a plain-text corpus format (one walk per line) for interoperability
  with external embedding tools.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.trace import write_walks
from repro.errors import ReproError

__all__ = [
    "visit_counts",
    "source_visit_distribution",
    "transition_counts",
    "empirical_transition_matrix",
    "skipgram_pairs",
    "save_corpus",
    "load_corpus",
    "stationary_distribution",
    "estimate_clustering_coefficient",
]

Paths = Sequence[np.ndarray] | Sequence[Sequence[int]]


def visit_counts(paths: Paths, num_vertices: int) -> np.ndarray:
    """How often each vertex appears across all walks (starts included)."""
    if not len(paths):
        return np.zeros(num_vertices, dtype=np.int64)
    tokens = np.concatenate([np.asarray(path, dtype=np.int64) for path in paths])
    return np.bincount(tokens, minlength=num_vertices)


def source_visit_distribution(
    paths: Paths, source: int, num_vertices: int
) -> np.ndarray:
    """Normalised visit counts over the walks that start at ``source``
    (all-zero if there are none) — the Monte-Carlo estimator behind
    PPR and RWR relevance scores."""
    scores = visit_counts(
        [path for path in paths if path[0] == source], num_vertices
    ).astype(np.float64)
    total = scores.sum()
    if total > 0:
        scores /= total
    return scores


def transition_counts(paths: Paths, num_vertices: int) -> np.ndarray:
    """Dense (num_vertices x num_vertices) matrix of observed moves.

    Intended for small graphs (tests, diagnostics); the matrix is
    O(|V|^2) memory.
    """
    counts = np.zeros((num_vertices, num_vertices), dtype=np.int64)
    for path in paths:
        array = np.asarray(path, dtype=np.int64)
        if array.size < 2:
            continue
        np.add.at(counts, (array[:-1], array[1:]), 1)
    return counts


def empirical_transition_matrix(paths: Paths, num_vertices: int) -> np.ndarray:
    """Row-normalised :func:`transition_counts` (rows with no
    observations stay all-zero)."""
    counts = transition_counts(paths, num_vertices).astype(np.float64)
    row_sums = counts.sum(axis=1, keepdims=True)
    np.divide(counts, row_sums, out=counts, where=row_sums > 0)
    return counts


def skipgram_pairs(
    paths: Paths, window: int
) -> Iterable[tuple[int, int]]:
    """Yield (center, context) vertex pairs within a sliding window.

    This is word2vec's pair extraction applied to walks-as-sentences,
    the exact consumption pattern of DeepWalk and node2vec.
    """
    if window < 1:
        raise ReproError("window must be at least 1")
    for path in paths:
        sentence = np.asarray(path, dtype=np.int64)
        length = sentence.size
        for center_pos in range(length):
            low = max(0, center_pos - window)
            high = min(length, center_pos + window + 1)
            for context_pos in range(low, high):
                if context_pos != center_pos:
                    yield int(sentence[center_pos]), int(sentence[context_pos])


def stationary_distribution(
    graph, tolerance: float = 1e-10, max_iterations: int = 10_000
) -> np.ndarray:
    """Exact stationary distribution of the weighted simple walk.

    Power iteration on the row-stochastic transition matrix (dense —
    intended for analysis/test graphs).  For connected undirected
    graphs this is the classic degree/weight-proportional distribution,
    which long uniform walks' visit frequencies converge to — the
    oracle behind the convergence tests.
    """
    size = graph.num_vertices
    transition = np.zeros((size, size), dtype=np.float64)
    for vertex in range(size):
        start, end = graph.edge_range(vertex)
        if start == end:
            transition[vertex, vertex] = 1.0  # absorbing dead end
            continue
        weights = graph.edge_weights(vertex)
        total = weights.sum()
        np.add.at(
            transition[vertex], graph.targets[start:end], weights / total
        )
    state = np.full(size, 1.0 / size)
    for _ in range(max_iterations):
        next_state = state @ transition
        if np.abs(next_state - state).max() < tolerance:
            return next_state
        state = next_state
    return state


def estimate_clustering_coefficient(
    graph, num_samples: int, seed: int = 0
) -> float:
    """Monte-Carlo global clustering coefficient via 2-step walks.

    The classic walk-based estimator: sample a wedge (x <- center -> y
    with x != y) at a vertex chosen proportionally to the number of
    wedges it hosts, and test whether the closing edge x-y exists.  The
    closure rate estimates the global clustering coefficient (triangle
    density over wedge density) — one of the measurement applications
    random walk engines serve.
    """
    from repro.errors import ReproError as _ReproError

    degrees = graph.out_degrees().astype(np.float64)
    wedges = degrees * (degrees - 1)
    total = wedges.sum()
    if total <= 0:
        raise _ReproError("graph has no wedges (all degrees < 2)")
    rng = np.random.default_rng(seed)
    centers = rng.choice(
        graph.num_vertices, size=num_samples, p=wedges / total
    )
    closed = 0
    for center in centers:
        neighbours = graph.neighbors(int(center))
        first, second = rng.choice(neighbours.size, size=2, replace=False)
        if graph.has_edge(int(neighbours[first]), int(neighbours[second])):
            closed += 1
    return closed / num_samples


def save_corpus(paths: Paths, path: str | os.PathLike) -> None:
    """Write one whitespace-separated walk per line."""
    with open(path, "w", encoding="ascii") as handle:
        write_walks(handle, paths)


def load_corpus(path: str | os.PathLike) -> list[np.ndarray]:
    """Load a corpus written by :func:`save_corpus`."""
    walks: list[np.ndarray] = []
    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                walks.append(np.asarray([int(f) for f in fields], dtype=np.int64))
            except ValueError as exc:
                raise ReproError(
                    f"{path}:{line_number}: malformed corpus line"
                ) from exc
    return walks
