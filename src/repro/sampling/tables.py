"""What per-vertex sampler tables share, and how they follow a graph.

The paper's pre-processing (section 3) is per vertex: a vertex's alias
or ITS slice is a pure function of that vertex's slice of the static
component Ps, and it is stored *position-independent* — alias indices
count from the slice's own start, a CDF carries no cross-slice sum.  So
one builder per sampler kind (``build_alias_segments``,
``segmented_cumsum``), taking the segments to build, is the whole
derivation, and everything else is that builder plus a copy:

* a from-scratch table builds every segment;
* :meth:`VertexTables.updated` — the next epoch of a dynamic graph —
  copies the untouched stretches verbatim to where the new CSR layout
  puts them (:func:`copy_untouched_runs`, which the CSR arrays of the
  epoch go through as well) and builds the touched slices.  Copying an
  untouched slice *is* rebuilding it, with no fix-up, so the result is
  bit-identical to a from-scratch build over the new graph;
* :meth:`VertexTables.mismatches` builds the probed slices again and
  compares exactly — the runtime defence of that identity, which
  :class:`~repro.graph.dynamic.DynamicGraph` counts in
  :class:`MaintenanceStats` and answers with a full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.obs.counted import Counted, counter

__all__ = [
    "MaintenanceStats",
    "VertexTables",
    "compact_slices",
    "copy_untouched_runs",
    "slice_indices",
    "static_component",
    "unit_weights",
]


@dataclass
class MaintenanceStats(Counted, prefix="walk_sampler"):
    """Counters of the incremental-maintenance machinery: per-vertex
    work split into slices rebuilt and slices copied, from-scratch
    builds (the first one, a stale cache, or a verification fallback)
    and self-verification probes.  A failed probe discards the
    incremental build for a full rebuild — graceful degradation."""

    epochs_maintained: int = counter("epochs whose tables were produced incrementally")
    vertices_rebuilt: int = counter("vertex slices re-derived from scratch")
    vertices_copied: int = counter("vertex slices copied from the previous epoch")
    full_rebuilds: int = counter("sampler table builds that ran from scratch")
    verify_checks: int = counter("self-verification probes executed")
    verify_mismatches: int = counter("self-verification probes that failed")
    verify_fallbacks: int = counter("incremental builds discarded for a full rebuild")

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


def unit_weights(size: int) -> np.ndarray:
    """``size`` ones as one read-only zero-stride view: the Ps of an
    unweighted walk, which owns no |E| buffer."""
    return np.broadcast_to(np.float64(1.0), (size,))


def static_component(
    graph: CSRGraph,
    static_weights: np.ndarray | None = None,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """The validated per-edge static component Ps.

    ``None`` is the ``edgeStaticComp`` default of the paper's API: the
    graph's weights, or :func:`unit_weights` when unweighted (valid by
    construction, so returned unchecked).  A non-finite entry
    is refused here, by edge index: no later comparison orders a NaN,
    so the builders would leave its slice unwritten.  ``segments``
    names the only vertices whose slices still need the check (the
    rest were checked when the tables being updated were built).
    """
    if static_weights is None and graph.weights is None:
        return unit_weights(graph.num_edges)
    if static_weights is None:
        static_weights = graph.weights
    static = np.asarray(static_weights, dtype=np.float64)
    if static.size != graph.num_edges:
        raise SamplingError("static weights must align with graph edges")
    at = None if segments is None else slice_indices(graph.offsets, segments)
    checked = static if at is None else static[at]
    finite = np.isfinite(checked)
    if not finite.all():
        edge = int(np.argmin(finite))
        edge = edge if at is None else int(at[edge])
        raise SamplingError(
            f"static weight of edge {edge} is not finite ({static[edge]})"
        )
    if checked.size and checked.min() < 0:
        raise SamplingError("static weights must be non-negative")
    return static


def slice_indices(offsets: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Flat indices of ``vertices``' edge slices, slice after slice."""
    starts = offsets[vertices]
    degrees = offsets[vertices + 1] - starts
    shift = starts - (np.cumsum(degrees) - degrees)
    return np.arange(degrees.sum(), dtype=np.int64) + np.repeat(shift, degrees)


def copy_untouched_runs(
    old_offsets: np.ndarray,
    new_offsets: np.ndarray,
    touched: np.ndarray,
    arrays: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Copy every vertex's edge slice outside ``touched`` from the old
    layout to the new one, for each ``(old, new)`` pair of flat arrays.

    The vertices between two neighbours of ``touched`` (ascending, no
    repeats) lie back to back in both layouts, so an array moves in at
    most ``touched.size + 1`` block copies: the cost follows the touched
    set, not |E|.  A stretch that changed length is refused — a silent
    mis-copy would corrupt every downstream sample.
    """
    first = np.concatenate(([0], touched + 1))
    last = np.concatenate((touched, [old_offsets.size - 1]))
    old_starts, new_starts = old_offsets[first], new_offsets[first]
    lengths = old_offsets[last] - old_starts
    if not np.array_equal(lengths, new_offsets[last] - new_starts):
        raise SamplingError("copy_untouched_runs over vertices whose degree changed")
    runs = np.stack((old_starts, new_starts, lengths), axis=1)[lengths > 0].tolist()
    for old, new in arrays:
        for source, target, length in runs:
            new[target : target + length] = old[source : source + length]


def compact_slices(
    values: np.ndarray, offsets: np.ndarray, segments: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, offsets)`` of ``segments``' slices laid end to end —
    what a segment builder runs over; everything when ``None``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if segments is None:
        return values, offsets
    segments = np.asarray(segments, dtype=np.int64)
    packed = np.zeros(segments.size + 1, dtype=np.int64)
    np.cumsum(offsets[segments + 1] - offsets[segments], out=packed[1:])
    return values[slice_indices(offsets, segments)], packed


class VertexTables:
    """Per-vertex sampler tables over a graph's static component.

    A subclass declares ``_PER_EDGE`` — the names of its flat arrays
    aligned with the CSR edge arrays, whose slice at a vertex depends
    on that vertex's Ps slice alone — and ``_build(values, offsets,
    segments=None)``, its segment builder, a static method returning
    ``(totals, *those arrays)`` of the segments laid end to end.

    Parameters
    ----------
    graph:
        the graph whose static component to pre-process.
    static_weights:
        optional flat array of per-edge static components Ps; see
        :func:`static_component` for the default.
    """

    _PER_EDGE: tuple[str, ...]
    _build: Callable[..., tuple[np.ndarray, ...]]

    def __init__(
        self, graph: CSRGraph, static_weights: np.ndarray | None = None
    ) -> None:
        self._graph = graph
        self._static = static_component(graph, static_weights)
        totals, *arrays = self._build(self._static, graph.offsets)
        self._install(totals, arrays)

    def _install(self, totals: np.ndarray, arrays: list[np.ndarray]) -> None:
        self._totals = totals
        for name, array in zip(self._PER_EDGE, arrays):
            setattr(self, name, array)

    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @property
    def static_weights(self) -> np.ndarray:
        """The Ps array the tables were built over."""
        return self._static

    @property
    def totals(self) -> np.ndarray:
        """Per-vertex total static mass (|V|-length array)."""
        return self._totals

    def total_static(self, vertex: int) -> float:
        """Sum of Ps over ``vertex``'s out-edges."""
        return float(self._totals[vertex])

    def updated(
        self,
        graph: CSRGraph,
        static_weights: np.ndarray | None,
        touched: np.ndarray,
    ) -> "VertexTables":
        """Tables for ``graph``, reusing these outside ``touched``.

        ``graph`` differs from this one's only at the ``touched``
        vertices' slices.  Bit-identical to ``type(self)(graph,
        static_weights)``.
        """
        touched = np.unique(np.asarray(touched, dtype=np.int64))
        new = type(self).__new__(type(self))
        new._graph = graph
        new._static = static_component(graph, static_weights, touched)
        rebuilt_at = slice_indices(graph.offsets, touched)
        rebuilt_totals, *rebuilt = self._build(new._static, graph.offsets, touched)
        totals = self._totals.copy()
        totals[touched] = rebuilt_totals
        arrays = [np.empty(graph.num_edges, dtype=fresh.dtype) for fresh in rebuilt]
        for array, fresh in zip(arrays, rebuilt):
            array[rebuilt_at] = fresh
        kept = [getattr(self, name) for name in self._PER_EDGE]
        copy_untouched_runs(
            self._graph.offsets, graph.offsets, touched, list(zip(kept, arrays))
        )
        new._install(totals, arrays)
        return new

    def mismatches(self, vertices: np.ndarray) -> list[int]:
        """Those of ``vertices`` whose slices differ from a rebuild.

        Exact comparison, no tolerance: the maintenance contract is bit
        identity, and any drift — however small — would desynchronise
        replays across processes.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        offsets = self._graph.offsets
        totals, *expected = self._build(self._static, offsets, vertices)
        differs = self._totals[vertices] != totals
        at = slice_indices(offsets, vertices)
        owner = np.repeat(
            np.arange(vertices.size), offsets[vertices + 1] - offsets[vertices]
        )
        for name, fresh in zip(self._PER_EDGE, expected):
            differs[owner[getattr(self, name)[at] != fresh]] = True
        return vertices[differs].tolist()
