"""A graph plus what is pre-processed once per graph.

KnightKing builds the static component's alias / ITS tables (paper
section 3) and the per-vertex envelope Q(v) and pre-acceptance bound
L(v) (section 4) once, then moves only cheap walker state through them
(section 5.1).  :class:`PreparedGraph` is that first half; an engine is
a ``PreparedGraph`` plus run state.  An epoch of a
:class:`~repro.graph.dynamic.DynamicGraph` is one (``EpochSnapshot``
subclasses it and has its owner maintain tables and bounds
incrementally); a bare ``CSRGraph`` is wrapped fresh by whoever walks
it, so nothing outlives the walk.  Does not import
:mod:`repro.graph.dynamic`: a plain static walk never loads that store.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables

__all__ = ["PreparedGraph", "build_tables", "full_bounds", "prepare"]

_TABLE_KINDS = {"alias": VertexAliasTables, "its": VertexITSTables}


def build_tables(graph: CSRGraph, kind: str, static: np.ndarray | None = None):
    """Sampler tables of ``kind`` over ``static`` (default: the edge
    weights, or ones), from scratch."""
    try:
        return _TABLE_KINDS[kind](graph, static)
    except KeyError:
        raise GraphError(f"unknown sampler-table kind {kind!r}") from None


def full_bounds(
    graph: CSRGraph, program, use_lower_bound: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Q(v) and L(v) of ``program`` over every vertex, from scratch; a
    zero lower bound (pre-acceptance off) is always sound."""
    upper = np.asarray(program.upper_bound_array(graph), dtype=np.float64)
    if use_lower_bound:
        lower = np.asarray(program.lower_bound_array(graph), dtype=np.float64)
    else:
        lower = np.zeros(graph.num_vertices, dtype=np.float64)
    return upper, lower


class PreparedGraph:
    """One immutable graph, prepared for walking.  ``epoch`` and
    ``maintenance`` are ``None`` unless it is a dynamic graph's epoch."""

    epoch: int | None = None
    maintenance = None

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self._tables: dict[str, object] = {}

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def tables(self, kind: str, static: np.ndarray | None = None):
        """Sampler tables (``"alias"`` or ``"its"``) over ``static``.
        The default (``None``: edge weights, or ones) is built on first
        use and kept; a program's own Ps array is built per call."""
        if static is not None:
            return build_tables(self.graph, kind, static)
        if kind not in self._tables:
            self._tables[kind] = self._default_tables(kind)
        return self._tables[kind]

    def bounds_for(
        self, program, use_lower_bound: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(upper, lower)`` = Q(v), L(v) of ``program``."""
        upper, lower = self._bounds(program, use_lower_bound)
        if np.any(lower > upper):
            raise ProgramError("lower bound exceeds upper bound somewhere")
        if np.any(upper <= 0):
            raise ProgramError("upper bounds must be positive")
        return upper, lower

    @staticmethod
    def has_dead_ends(tables) -> bool:
        """Whether any vertex is without static mass — if none is, Pe
        never has to look for dead ends."""
        return bool((tables.totals <= 0.0).any())

    # What an incrementally maintained epoch overrides.
    def _default_tables(self, kind: str):
        return build_tables(self.graph, kind)

    def _bounds(self, program, use_lower_bound: bool):
        return full_bounds(self.graph, program, use_lower_bound)


def prepare(graph) -> PreparedGraph:
    """``graph`` as a :class:`PreparedGraph`: itself if it is one, a
    fresh wrapper around a ``CSRGraph``, the current epoch of a
    ``DynamicGraph`` — the pin: later commits never reach the result."""
    if isinstance(graph, PreparedGraph):
        return graph
    if isinstance(graph, CSRGraph):
        return PreparedGraph(graph)
    return graph.snapshot()
