"""What per-vertex alias tables share, and how they follow a graph.

The paper's pre-processing (section 3) is per vertex: a vertex's alias
slice is a pure function of that vertex's slice of the static
component Ps, and it is stored *position-independent* — alias indices
count from the slice's own start.  So one segment builder
(``build_alias_segments``), taking the segments to build, is the whole
derivation, and everything else is that builder plus a copy:

* a from-scratch table builds every segment;
* :meth:`~repro.sampling.alias.VertexAliasTables.updated` — the next
  epoch of a dynamic graph — copies the untouched stretches verbatim to
  where the new CSR layout puts them (:func:`copy_untouched_runs`, which
  the CSR arrays of the epoch go through as well) and builds the touched
  slices.  Copying an untouched slice *is* rebuilding it, with no
  fix-up, so the result is bit-identical to a from-scratch build over
  the new graph;
* :meth:`~repro.sampling.alias.VertexAliasTables.mismatches` builds the
  probed slices again and compares exactly — the runtime defence of
  that identity, which :class:`~repro.graph.dynamic.DynamicGraph`
  counts in :class:`MaintenanceStats` and answers with a full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.obs.counted import Counted, counter

__all__ = [
    "MaintenanceStats",
    "compact_slices",
    "copy_untouched_runs",
    "is_unit_weights",
    "segment_sums",
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


_ONE = np.ones(1)
_ONE.setflags(write=False)


def unit_weights(size: int) -> np.ndarray:
    """``size`` ones as one read-only zero-stride view: the Ps of an
    unweighted walk, which owns no |E| buffer (and a static program's
    envelope).  The C-level constructor: ``np.broadcast_to`` costs
    ~5 µs of Python checks per call."""
    return np.ndarray((size,), np.float64, _ONE, 0, (0,))


def is_unit_weights(array) -> bool:
    """Whether ``array`` is a :func:`unit_weights` view (every view of
    the one read-only ``1.0`` is all ones), in O(1)."""
    return isinstance(array, np.ndarray) and array.base is _ONE


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


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[offsets[i]:offsets[i+1]].sum()`` of every segment, bit
    for bit, without a Python call per segment.

    numpy sums each row of a ``(k, d)`` array as it sums one slice of
    ``d`` (pairwise), so segments are summed a degree at a time, each
    degree's rows gathered into one array; ``np.add.reduceat`` sums
    in order and differs in the last bits.  A sum that overflows is
    ``inf``, without a warning: the callers refuse it by name.
    """
    starts = offsets[:-1]
    degrees = offsets[1:] - starts
    sums = np.zeros(degrees.size, dtype=np.float64)
    order = np.argsort(degrees, kind="stable")
    ranked = degrees[order]
    firsts = np.flatnonzero(np.diff(ranked, prepend=-1)).tolist()
    with np.errstate(over="ignore"):
        for lo, hi in zip(firsts, firsts[1:] + [order.size]):
            degree, rows = int(ranked[lo]), order[lo:hi]
            if degree == 0:
                continue
            if rows.size == 1:
                start = int(starts[rows[0]])
                sums[rows] = values[start : start + degree].sum()
            else:
                gathered = values[starts[rows, None] + np.arange(degree)]
                sums[rows] = gathered.sum(axis=1)
    return sums


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
