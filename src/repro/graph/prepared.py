"""A graph plus what is pre-processed once per graph.

KnightKing builds the static component's alias tables (paper section
3) once, then moves only cheap walker state through them (section
5.1).  :class:`PreparedGraph` is that first half; an engine is a
``PreparedGraph`` plus run state.  An epoch of a
:class:`~repro.graph.dynamic.DynamicGraph` is one (``EpochSnapshot``
subclasses it and has its owner maintain the tables incrementally); a
bare ``CSRGraph`` is wrapped fresh by whoever walks it, so nothing
outlives the walk.  A program's envelope Q(v) and pre-acceptance bound
L(v) (section 4) are derived per engine, on every prepared graph
alike.  Does not import :mod:`repro.graph.dynamic`: a plain static
walk never loads that store.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, ProgramError
from repro.graph.csr import CSRGraph
from repro.sampling.alias import VertexAliasTables
from repro.sampling.tables import is_unit_weights

__all__ = ["PreparedGraph", "prepare"]


class PreparedGraph:
    """One immutable graph, prepared for walking.  ``epoch`` and
    ``maintenance`` are ``None`` unless it is a dynamic graph's epoch."""

    epoch: int | None = None
    maintenance = None

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self._tables: VertexAliasTables | None = None

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def tables(
        self, kind: str, static: np.ndarray | None = None
    ) -> VertexAliasTables:
        """The alias tables (``kind`` ``"alias"``, the one kind) over
        ``static``.  The default Ps (:meth:`is_default`) is built on
        first use and kept; a program's own Ps array is built per
        call."""
        if kind != "alias":
            raise GraphError(f"unknown sampler-table kind {kind!r}")
        if not self.is_default(static):
            return VertexAliasTables(self.graph, static)
        return self.default_tables()

    def is_default(self, static: np.ndarray | None) -> bool:
        """Whether ``static`` is the default Ps, whose tables are kept:
        ``None`` (edge weights, or ones when unweighted), or
        :func:`~repro.sampling.tables.unit_weights` on an unweighted
        graph — the same table under another name."""
        graph = self.graph
        return static is None or (
            graph.weights is None
            and is_unit_weights(static)
            and static.size == graph.num_edges
        )

    def default_tables(self, build=None) -> VertexAliasTables:
        """The tables over the default Ps, kept once made.  When none
        are kept yet, ``build(graph)`` makes them if given — a sharded
        walk splits the build across its workers — and an epoch of a
        live ``DynamicGraph`` gets them from its owner either way."""
        if self._tables is None:
            self._tables = self._default_tables(build)
        return self._tables

    def bounds_for(
        self, program, use_lower_bound: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(upper, lower)`` = Q(v), L(v) of ``program`` over
        every vertex, from scratch; a zero lower bound (pre-acceptance
        off) is always sound.  One array for both when they agree at
        every vertex, which marks the envelope flat for the trial
        kernel (``gather_stage``)."""
        graph = self.graph
        upper = np.asarray(program.upper_bound_array(graph), dtype=np.float64)
        if use_lower_bound:
            lower = np.asarray(program.lower_bound_array(graph), dtype=np.float64)
        else:
            lower = np.zeros(graph.num_vertices, dtype=np.float64)
        finite = np.isfinite(upper) & np.isfinite(lower)
        if not finite.all():
            vertex = int(np.argmin(finite))
            raise ProgramError(
                f"bounds at vertex {vertex} are not finite (upper "
                f"{upper[vertex]!r}, lower {lower[vertex]!r})"
            )
        if np.count_nonzero(lower > upper):
            raise ProgramError("lower bound exceeds upper bound somewhere")
        if np.count_nonzero(upper <= 0):
            raise ProgramError("upper bounds must be positive")
        if not np.count_nonzero(lower < upper):
            return upper, upper
        return upper, lower

    # What an incrementally maintained epoch overrides.
    def _default_tables(self, build=None) -> VertexAliasTables:
        return (VertexAliasTables if build is None else build)(self.graph)


def prepare(graph) -> PreparedGraph:
    """``graph`` as a :class:`PreparedGraph`: itself if it is one, a
    fresh wrapper around a ``CSRGraph``, the current epoch of a
    ``DynamicGraph`` — the pin: later commits never reach the result."""
    if isinstance(graph, PreparedGraph):
        return graph
    if isinstance(graph, CSRGraph):
        return PreparedGraph(graph)
    return graph.snapshot()
