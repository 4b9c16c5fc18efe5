"""Batch staging and epoch materialisation of ``graph/dynamic.py`` as
they stood at the commit before PR 23 (554ca43), kept verbatim as the
reference: ``tests/test_dynamic_reference.py`` requires the one-sort
staging and the run-copied CSR to equal these — adjacency arrays,
dtypes, counts, error messages — update for update.  ``_stage_one``
applies one directed operation with ``np.insert`` / ``np.delete``;
``_materialize`` rebuilds the whole CSR from base + overlay through the
|E|-long gather map of the old ``sampling/tables.py``.
Do not tidy — the point is that these are the old statements (one
gained a lint waiver: the old module was inside ``graph/``, where an
in-place write to a staged copy was allowed).

``ReferenceDynamicGraph`` is the minimum of state those methods read.
One deliberate difference, in ``commit``: the old ``_stage_one`` set
``_weighted`` / ``_typed`` while staging, so a *rejected* batch leaked
them (the bug PR 23 fixes); here staging runs on a scratch copy and the
flags are taken over only when the batch is accepted.
"""

import copy

import numpy as np

from repro.errors import GraphError, SamplingError
from repro.graph.csr import CSRGraph

INSERT, DELETE, REWEIGHT = 0, 1, 2
_KIND_NAMES = {INSERT: "insert", DELETE: "delete", REWEIGHT: "reweight"}


def _slice_indices(offsets, vertices):
    """Flat indices of ``vertices``' edge slices, slice after slice."""
    starts = offsets[vertices]
    degrees = offsets[vertices + 1] - starts
    shift = starts - (np.cumsum(degrees) - degrees)
    return np.arange(degrees.sum(), dtype=np.int64) + np.repeat(shift, degrees)


def slice_gather_map(old_offsets, new_offsets, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    if not np.array_equal(
        old_offsets[vertices + 1] - old_offsets[vertices],
        new_offsets[vertices + 1] - new_offsets[vertices],
    ):
        raise SamplingError(
            "slice_gather_map over vertices whose degree changed"
        )
    return _slice_indices(old_offsets, vertices), _slice_indices(
        new_offsets, vertices
    )


def untouched_vertices(num_vertices, touched):
    mask = np.ones(num_vertices, dtype=bool)
    mask[touched] = False
    return np.nonzero(mask)[0]


class _Adjacency:
    """Mutable copy of one vertex's edge slice (the delta buffer unit)."""

    __slots__ = ("targets", "weights", "edge_types")

    def __init__(self, targets, weights, edge_types):
        self.targets = targets
        self.weights = weights
        self.edge_types = edge_types

    def copy(self):
        return _Adjacency(
            self.targets.copy(), self.weights.copy(), self.edge_types.copy()
        )


class ReferenceDynamicGraph:
    def __init__(self, base, base_epoch=0):
        self._base = base
        self._epoch = int(base_epoch)
        self._overlay = {}
        self._weighted = base.weights is not None
        self._typed = base.edge_types is not None

    def commit(self, batch):
        scratch = copy.copy(self)
        staged, counts = scratch._stage_batch(batch)
        self._weighted, self._typed = scratch._weighted, scratch._typed
        self._overlay.update(staged)
        self._epoch += 1
        return staged, counts

    def compact(self):
        self._base = self._materialize()
        self._overlay.clear()

    # -- verbatim from here ---------------------------------------------
    def _stage_batch(self, batch):
        """Apply ``batch`` to copies of the touched adjacencies.

        Pure with respect to ``self``: nothing is installed, so any
        validation error aborts the commit with no side effects.
        """
        staged = {}
        counts = [0, 0, 0]
        mirror = self._base.is_undirected
        num_vertices = self._base.num_vertices
        for i in range(len(batch)):
            kind = int(batch.kinds[i])
            source = int(batch.sources[i])
            target = int(batch.targets[i])
            weight = float(batch.weights[i])
            edge_type = int(batch.edge_types[i])
            for vertex in (source, target):
                if not 0 <= vertex < num_vertices:
                    raise GraphError(
                        f"update endpoint {vertex} out of range "
                        f"[0, {num_vertices})"
                    )
            if kind != DELETE and (weight < 0 or not np.isfinite(weight)):
                raise GraphError(
                    f"update weight must be finite and non-negative, "
                    f"got {weight!r}"
                )
            self._stage_one(staged, kind, source, target, weight, edge_type)
            if mirror:
                self._stage_one(staged, kind, target, source, weight, edge_type)
            counts[kind] += 1
        return staged, tuple(counts)

    def _stage_one(self, staged, kind, source, target, weight, edge_type):
        adj = staged.get(source)
        if adj is None:
            existing = self._overlay.get(source)
            adj = existing.copy() if existing is not None else self._slice(source)
            staged[source] = adj
        if kind == INSERT:
            # After any existing edges to the same target: matches the
            # stable (source, target) lexsort of GraphBuilder, where
            # newly added parallel edges follow previously added ones.
            position = int(np.searchsorted(adj.targets, target, side="right"))
            adj.targets = np.insert(adj.targets, position, target)
            adj.weights = np.insert(adj.weights, position, weight)
            adj.edge_types = np.insert(adj.edge_types, position, edge_type)
            if weight != 1.0:
                self._weighted = True
            if edge_type != 0:
                self._typed = True
            return
        position = int(np.searchsorted(adj.targets, target, side="left"))
        if position >= adj.targets.size or adj.targets[position] != target:
            verb = _KIND_NAMES[kind]
            raise GraphError(
                f"{verb} of missing edge {source}->{target} "
                f"(epoch {self._epoch})"
            )
        if kind == DELETE:
            adj.targets = np.delete(adj.targets, position)
            adj.weights = np.delete(adj.weights, position)
            adj.edge_types = np.delete(adj.edge_types, position)
        else:  # REWEIGHT
            adj.weights[position] = weight  # lint: disable=RK105 -- the frozen statement, on a private copy of the slice
            self._weighted = True

    def _slice(self, vertex):
        start, end = self._base.edge_range(vertex)
        targets = self._base.targets[start:end].copy()
        weights = (
            self._base.weights[start:end].copy()
            if self._base.weights is not None
            else np.ones(end - start, dtype=np.float64)
        )
        edge_types = (
            self._base.edge_types[start:end].copy()
            if self._base.edge_types is not None
            else np.zeros(end - start, dtype=np.int32)
        )
        return _Adjacency(targets, weights, edge_types)

    def _materialize(self):
        base = self._base
        if not self._overlay:
            return base
        degrees = np.diff(base.offsets).copy()
        for vertex, adj in self._overlay.items():
            degrees[vertex] = adj.targets.size
        offsets = np.zeros(base.num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        num_edges = int(offsets[-1])

        targets = np.empty(num_edges, dtype=np.int64)
        weights = np.empty(num_edges, dtype=np.float64) if self._weighted else None
        edge_types = np.empty(num_edges, dtype=np.int32) if self._typed else None

        overlay_vertices = np.asarray(sorted(self._overlay), dtype=np.int64)
        untouched = untouched_vertices(base.num_vertices, overlay_vertices)
        src, dst = slice_gather_map(base.offsets, offsets, untouched)
        targets[dst] = base.targets[src]
        if weights is not None:
            weights[dst] = (
                base.weights[src] if base.weights is not None else 1.0
            )
        if edge_types is not None:
            edge_types[dst] = (
                base.edge_types[src] if base.edge_types is not None else 0
            )
        for vertex in overlay_vertices:
            adj = self._overlay[int(vertex)]
            start = offsets[vertex]
            end = start + adj.targets.size
            targets[start:end] = adj.targets
            if weights is not None:
                weights[start:end] = adj.weights
            if edge_types is not None:
                edge_types[start:end] = adj.edge_types
        return CSRGraph(
            offsets=offsets,
            targets=targets,
            weights=weights,
            edge_types=edge_types,
            vertex_types=base.vertex_types,
            undirected=base.is_undirected,
        )
