"""Incremental sampler maintenance for dynamic graphs.

When an epoch commit touches a handful of vertices, rebuilding every
per-vertex sampling structure from scratch wastes O(|E|) work (and for
alias tables, an O(|E|) Python-level Vose pass — by far the most
expensive part of engine init).  This module rebuilds only the touched
vertices' slices and *byte-copies* everything else from the previous
epoch's tables, with the layout shift (CSR offsets move when degrees
change) applied to flat indices.

The contract is exact equality, not approximation: the incremental
result must be bit-identical to a from-scratch
:class:`~repro.sampling.alias.VertexAliasTables` /
:class:`~repro.sampling.its.VertexITSTables` build over the new graph.
That holds because both constructions are per-vertex decomposable —
Vose's algorithm only reads one vertex's slice, and the ITS CDF is a
strictly per-slice prefix sum (see
:func:`~repro.sampling.its.segmented_cumsum`) — so copying an untouched
slice *is* rebuilding it.

Because "must be equal" is an invariant worth defending at runtime, the
module also provides the self-verification half: re-derive sampled
vertices' slices from scratch and compare exactly.  The dynamic-graph
subsystem runs these checks per epoch (sampled or exhaustive), counts
mismatches in :class:`MaintenanceStats`, and falls back to a full
rebuild when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.obs.counted import Counted, counter
from repro.sampling.alias import VertexAliasTables, build_alias_arrays
from repro.sampling.its import VertexITSTables

__all__ = [
    "MaintenanceStats",
    "default_static_weights",
    "incremental_alias_tables",
    "incremental_its_tables",
    "slice_gather_map",
    "verify_alias_tables",
    "verify_its_tables",
]


@dataclass
class MaintenanceStats(Counted, prefix="walk_sampler"):
    """Counters of the incremental-maintenance machinery.

    Attributes
    ----------
    epochs_maintained:
        epochs whose tables were produced incrementally.
    vertices_rebuilt / vertices_copied:
        per-vertex work split: slices re-derived from scratch vs slices
        copied from the previous epoch's tables.
    full_rebuilds:
        table builds that ran from scratch (first build, a stale cache,
        or a verification fallback).
    verify_checks / verify_mismatches:
        self-verification probes executed and the ones that failed.
    verify_fallbacks:
        incremental builds discarded for a full rebuild because a probe
        failed — the graceful-degradation path.
    """

    epochs_maintained: int = counter("epochs whose tables were produced incrementally")
    vertices_rebuilt: int = counter("vertex slices re-derived from scratch")
    vertices_copied: int = counter("vertex slices copied from the previous epoch")
    full_rebuilds: int = counter("sampler table builds that ran from scratch")
    verify_checks: int = counter("self-verification probes executed")
    verify_mismatches: int = counter("self-verification probes that failed")
    verify_fallbacks: int = counter("incremental builds discarded for a full rebuild")

    def copy(self) -> "MaintenanceStats":
        return replace(self)

    def summary(self) -> str:
        return (
            f"maintenance: {self.epochs_maintained} incremental epochs, "
            f"{self.vertices_rebuilt} vertices rebuilt, "
            f"{self.vertices_copied} copied, "
            f"{self.full_rebuilds} full rebuilds, "
            f"{self.verify_checks} verify checks "
            f"({self.verify_mismatches} mismatches, "
            f"{self.verify_fallbacks} fallbacks)"
        )


def default_static_weights(graph: CSRGraph) -> np.ndarray:
    """The default static component Ps: edge weights, or all-ones.

    Matches what the samplers use when ``edge_static_comp`` returns
    ``None`` — the only case the incremental path maintains (a program
    with a custom static component gets a fresh build instead).
    """
    if graph.weights is not None:
        return graph.weights
    return np.ones(graph.num_edges, dtype=np.float64)


def slice_gather_map(
    old_offsets: np.ndarray,
    new_offsets: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (src, dst) index arrays copying ``vertices``' edge slices.

    ``vertices`` must have identical degree under both layouts (they
    are the *untouched* vertices of an epoch); raises
    :class:`SamplingError` otherwise, because a silent mis-copy would
    corrupt every downstream sample.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    old_starts = old_offsets[vertices]
    new_starts = new_offsets[vertices]
    degrees = old_offsets[vertices + 1] - old_starts
    if not np.array_equal(degrees, new_offsets[vertices + 1] - new_starts):
        raise SamplingError(
            "slice_gather_map over vertices whose degree changed"
        )
    total = int(degrees.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    slice_bases = np.zeros(vertices.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=slice_bases[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(slice_bases, degrees)
    src = np.repeat(old_starts, degrees) + within
    dst = np.repeat(new_starts, degrees) + within
    return src, dst


def _untouched(num_vertices: int, touched: np.ndarray) -> np.ndarray:
    mask = np.ones(num_vertices, dtype=bool)
    mask[touched] = False
    return np.nonzero(mask)[0]


def incremental_alias_tables(
    prev: VertexAliasTables,
    graph: CSRGraph,
    static_weights: np.ndarray,
    touched: np.ndarray,
) -> VertexAliasTables:
    """Alias tables for ``graph``, reusing ``prev`` outside ``touched``.

    Touched vertices re-run Vose exactly as the from-scratch
    constructor does; untouched vertices' ``prob`` slices are copied
    and their flat ``alias`` indices shifted by the offset delta.
    """
    touched = np.asarray(touched, dtype=np.int64)
    old_graph = prev.graph
    prob = np.empty(graph.num_edges, dtype=np.float64)
    alias = np.empty(graph.num_edges, dtype=np.int64)
    totals = np.zeros(graph.num_vertices, dtype=np.float64)

    untouched = _untouched(graph.num_vertices, touched)
    src, dst = slice_gather_map(old_graph.offsets, graph.offsets, untouched)
    prob[dst] = prev._prob[src]
    shift = graph.offsets[untouched] - old_graph.offsets[untouched]
    degrees = np.diff(graph.offsets)
    alias[dst] = prev._alias[src] + np.repeat(shift, degrees[untouched])
    totals[untouched] = prev._totals[untouched]

    for vertex in touched:
        start, end = graph.edge_range(int(vertex))
        if start == end:
            continue
        slice_weights = static_weights[start:end]
        total = slice_weights.sum()
        totals[vertex] = total
        if total <= 0:
            prob[start:end] = 0.0
            alias[start:end] = start
            continue
        vose_prob, vose_alias = build_alias_arrays(slice_weights)
        prob[start:end] = vose_prob
        alias[start:end] = vose_alias + start
    return VertexAliasTables._from_state(
        graph, static_weights, prob, alias, totals
    )


def incremental_its_tables(
    prev: VertexITSTables,
    graph: CSRGraph,
    static_weights: np.ndarray,
    touched: np.ndarray,
) -> VertexITSTables:
    """ITS tables for ``graph``, reusing ``prev`` outside ``touched``.

    Per-vertex CDF slices are copied for untouched vertices (exact,
    because the CDF is strictly per-slice) and re-accumulated for
    touched ones; the global-coordinate arrays are re-derived by the
    shared install path, identical to a from-scratch build.
    """
    touched = np.asarray(touched, dtype=np.int64)
    old_graph = prev.graph
    cdf = np.empty(graph.num_edges, dtype=np.float64)
    totals = np.zeros(graph.num_vertices, dtype=np.float64)

    untouched = _untouched(graph.num_vertices, touched)
    src, dst = slice_gather_map(old_graph.offsets, graph.offsets, untouched)
    cdf[dst] = prev._cdf[src]
    totals[untouched] = prev._totals[untouched]

    for vertex in touched:
        start, end = graph.edge_range(int(vertex))
        if start == end:
            continue
        cdf[start:end] = np.cumsum(static_weights[start:end])
        totals[vertex] = cdf[end - 1]
    return VertexITSTables._from_state(graph, static_weights, cdf, totals)


def verify_alias_tables(
    tables: VertexAliasTables, vertices: np.ndarray
) -> list[int]:
    """Vertices whose alias slices differ from a from-scratch rebuild.

    Exact comparison, no tolerance: the incremental contract is bit
    identity, and any drift — however small — would desynchronise
    replays across processes.
    """
    graph = tables.graph
    static = tables.static_weights
    bad: list[int] = []
    for vertex in np.asarray(vertices, dtype=np.int64):
        vertex = int(vertex)
        start, end = graph.edge_range(vertex)
        if start == end:
            if tables._totals[vertex] != 0.0:
                bad.append(vertex)
            continue
        slice_weights = static[start:end]
        total = slice_weights.sum()
        if total <= 0:
            expected_prob = np.zeros(end - start)
            expected_alias = np.full(end - start, start, dtype=np.int64)
        else:
            expected_prob, local_alias = build_alias_arrays(slice_weights)
            expected_alias = local_alias + start
        if (
            tables._totals[vertex] != total
            or not np.array_equal(tables._prob[start:end], expected_prob)
            or not np.array_equal(tables._alias[start:end], expected_alias)
        ):
            bad.append(vertex)
    return bad


def verify_its_tables(
    tables: VertexITSTables, vertices: np.ndarray
) -> list[int]:
    """Vertices whose CDF slices differ from a from-scratch rebuild."""
    graph = tables.graph
    static = tables.static_weights
    bad: list[int] = []
    for vertex in np.asarray(vertices, dtype=np.int64):
        vertex = int(vertex)
        start, end = graph.edge_range(vertex)
        if start == end:
            if tables._totals[vertex] != 0.0:
                bad.append(vertex)
            continue
        expected = np.cumsum(static[start:end])
        if tables._totals[vertex] != (expected[-1] if end > start else 0.0):
            bad.append(vertex)
            continue
        if not np.array_equal(tables._cdf[start:end], expected):
            bad.append(vertex)
    return bad
