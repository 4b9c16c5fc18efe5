"""Heterogeneous-graph utilities for Meta-path walks.

Meta-path algorithms (paper section 2.2) constrain each walk step to an
edge *type* prescribed by a cyclic scheme.  The evaluation (section 7.1)
uses graphs with 5 edge types and 10 cyclic schemes of length 5, with
types assigned at random; :func:`assign_random_edge_types` reproduces
that setup on any graph.

:func:`bibliographic_graph` builds a small author/paper network with
semantically meaningful types (the paper's motivating example for
meta-paths: "isAuthor -> citedBy -> authoredBy^-1"), used by the
meta-path example application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import _per_edge, _with_column, from_arrays
from repro.graph.csr import CSRGraph

__all__ = [
    "assign_random_edge_types",
    "bibliographic_graph",
    "BibliographicSchema",
]


def assign_random_edge_types(graph: CSRGraph, num_types: int, seed: int) -> CSRGraph:
    """Return a copy of ``graph`` with uniform-random edge types.

    For undirected graphs both stored directions of a logical edge get
    the same type, keyed on the canonical (min, max) orientation — a
    typed undirected edge is one relation, not two.
    """
    if num_types <= 0:
        raise GraphError("num_types must be positive")
    rng = np.random.default_rng(seed)
    edge_types = _per_edge(
        graph,
        lambda count: rng.integers(0, num_types, size=count, dtype=np.int32),
    )
    return _with_column(graph, edge_types=edge_types)


@dataclass(frozen=True)
class BibliographicSchema:
    """Type labels used by :func:`bibliographic_graph`."""

    VERTEX_AUTHOR: int = 0
    VERTEX_PAPER: int = 1
    EDGE_WRITES: int = 0  # author -> paper
    EDGE_WRITTEN_BY: int = 1  # paper -> author
    EDGE_CITES: int = 2  # paper -> paper
    EDGE_CITED_BY: int = 3  # paper -> paper (reverse)


def bibliographic_graph(
    num_authors: int,
    num_papers: int,
    papers_per_author: int,
    citations_per_paper: int,
    seed: int,
) -> CSRGraph:
    """Author/paper heterogeneous graph for meta-path examples.

    Vertices ``0 .. num_authors-1`` are authors, the rest papers.
    Authors write random papers (typed ``WRITES``, reverse
    ``WRITTEN_BY``); papers cite random earlier papers (``CITES``,
    reverse ``CITED_BY``).  The resulting graph supports meta-path
    schemes such as ``WRITES -> CITES -> WRITTEN_BY`` that trace
    citation chains between authors.
    """
    if num_authors < 1 or num_papers < 2:
        raise GraphError("need at least one author and two papers")
    rng = np.random.default_rng(seed)
    schema = BibliographicSchema()
    paper_base = num_authors

    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    types: list[np.ndarray] = []

    authors = np.repeat(
        np.arange(num_authors, dtype=np.int64), papers_per_author
    )
    written = paper_base + rng.integers(
        0, num_papers, size=authors.size, dtype=np.int64
    )
    sources.extend([authors, written])
    targets.extend([written, authors])
    types.append(np.full(authors.size, schema.EDGE_WRITES, dtype=np.int32))
    types.append(np.full(authors.size, schema.EDGE_WRITTEN_BY, dtype=np.int32))

    citing_local = np.repeat(
        np.arange(1, num_papers, dtype=np.int64), citations_per_paper
    )
    cited_local = (
        rng.random(citing_local.size) * citing_local
    ).astype(np.int64)  # cite a strictly earlier paper
    citing = paper_base + citing_local
    cited = paper_base + cited_local
    sources.extend([citing, cited])
    targets.extend([cited, citing])
    types.append(np.full(citing.size, schema.EDGE_CITES, dtype=np.int32))
    types.append(np.full(citing.size, schema.EDGE_CITED_BY, dtype=np.int32))

    vertex_types = np.concatenate(
        [
            np.full(num_authors, schema.VERTEX_AUTHOR, dtype=np.int32),
            np.full(num_papers, schema.VERTEX_PAPER, dtype=np.int32),
        ]
    )
    graph = from_arrays(
        num_authors + num_papers,
        np.concatenate(sources),
        np.concatenate(targets),
        edge_types=np.concatenate(types),
    )
    return _with_column(graph, vertex_types=vertex_types)
