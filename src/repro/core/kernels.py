"""Vectorised rejection-sampling kernels.

The scalar :class:`~repro.sampling.rejection.RejectionSampler` defines
the semantics; these kernels execute the identical math over whole
batches of walkers with a handful of numpy operations per trial round.
Both the single-process :class:`~repro.core.engine.WalkEngine` and the
per-node compute of the cluster simulator call into them.

A *trial round* processes one rejection-sampling trial for each walker
in the batch:

1. choose a region per walker — the main dartboard or one folded
   outlier appendix — proportionally to area;
2. main region: draw a candidate edge from the static tables, throw
   the ``y`` dart, pre-accept at or below the lower bound, otherwise
   evaluate Pd for the candidate only;
3. appendix region: evaluate Pd for the declared outlier edge and
   accept with (true chopped area) / (estimated appendix area).

Walkers whose trial is rejected simply appear in the next round's
batch.  The trials of a walker that has not moved are i.i.d., so K
speculative trials of one walker are K lanes of the same round: a
*widened* round runs the kernel over :meth:`GatherContext.repeat` and
:func:`first_accepts` keeps each walker's first accept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.program import WalkerProgram
from repro.core.walker import WalkerSet
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables
from repro.sampling.rejection import SamplingCounters

__all__ = [
    "TrialOutcome",
    "GatherContext",
    "FullScanSpans",
    "KernelScratch",
    "ZERO_MASS_GUARD_TRIALS",
    "adaptive_trial_count",
    "batch_trial_round",
    "first_accepts",
    "full_scan_distribution",
    "full_scan_mass",
    "full_scan_spans",
    "gather_stage",
]

StaticTables = VertexAliasTables | VertexITSTables

# After this many consecutive rejections a walker's vertex is fully
# scanned once to distinguish "unlucky" from "zero eligible mass".
# (Defined here so the kernels and the engines share one constant
# without import cycles.)
ZERO_MASS_GUARD_TRIALS = 64

# Fused-trial clamp: at least 2 trials per fused round (1 would be the
# plain round with extra bookkeeping), at most 16 (beyond the
# ~95th percentile of geometric waiting times worth speculating on).
TRIAL_FUSION_MIN = 2
TRIAL_FUSION_MAX = 16

# Fraction of walkers a fused round should resolve in expectation; the
# adaptive trial count is the geometric-distribution quantile at this
# level, so low acceptance rates speculate more trials per round and
# high acceptance rates stay near the clamp floor.
TRIAL_FUSION_RESOLVE_TARGET = 0.8


class KernelScratch:
    """Grow-only buffer pool reused across trial rounds.

    The engines call the kernels hundreds of times per walk with
    near-identical batch shapes; recycling the dart buffer avoids
    re-allocating up to a few MB per round.  Buffers are keyed
    by name and grown geometrically, so a pool stabilises after the
    first few rounds.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable array view of the requested shape (uninitialised)."""
        dtype = np.dtype(dtype)
        size = 1
        for extent in shape:  # math-only: np.prod costs an array per call
            size *= int(extent)
        key = (name, dtype.str)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 16), dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size].reshape(shape)

    def random(
        self, rng: np.random.Generator, name: str, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Uniform [0, 1) draws written into a pooled buffer."""
        out = self.get(name, shape, np.float64)
        rng.random(out=out)
        return out


def adaptive_trial_count(
    counters: SamplingCounters,
    k_min: int = TRIAL_FUSION_MIN,
    k_max: int = TRIAL_FUSION_MAX,
    resolve_target: float = TRIAL_FUSION_RESOLVE_TARGET,
) -> int:
    """Trials per fused round, from the running acceptance rate.

    Picks the smallest K such that a walker accepting each trial with
    the observed probability ``r`` resolves within K trials with
    probability ``resolve_target`` — i.e. the geometric quantile
    ``ceil(log(1 - target) / log(1 - r))`` — clamped to
    ``[k_min, k_max]``.  Before any trials have been observed the clamp
    floor is used (speculating is pointless without evidence of
    rejections).
    """
    rate = counters.acceptance_rate()
    if rate is None:
        return k_min
    if rate >= 1.0:
        return k_min
    if rate <= 0.0:
        return k_max
    k = int(np.ceil(np.log(1.0 - resolve_target) / np.log(1.0 - rate)))
    return max(k_min, min(k_max, k))


@dataclass
class GatherContext:
    """Product of the Gather stage: per-lane state fetched once.

    The engine computes these arrays once per superstep (per surviving
    walker) and threads them through every trial round, instead of
    re-gathering vertex state from the graph-wide arrays inside each
    kernel call — a rejected walker has not moved.

    All arrays align lane-for-lane with ``walker_ids``.  Slicing with
    :meth:`take` keeps the alignment for shrinking pending sets.
    """

    walker_ids: np.ndarray
    vertices: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    totals: np.ndarray  # per *vertex*: the static tables' masses
    _main_area: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.walker_ids.size

    @property
    def main_area(self) -> np.ndarray:
        """Main dartboard area per lane — only outlier appendices are
        weighed against it, so it is computed when first asked for."""
        if self._main_area is None:
            self._main_area = self.totals[self.vertices] * self.upper
        return self._main_area

    def take(self, lanes: np.ndarray) -> "GatherContext":
        """The sub-context of the given lane positions (or mask)."""
        return GatherContext(
            walker_ids=self.walker_ids[lanes],
            vertices=self.vertices[lanes],
            upper=self.upper[lanes],
            lower=self.lower[lanes],
            totals=self.totals,
            _main_area=None if self._main_area is None else self._main_area[lanes],
        )

    def repeat(self, k: int) -> "GatherContext":
        """The widened context: every lane ``k`` times in a row — ``k``
        speculative trials of a walker are ``k`` lanes of one round
        (lane ``i * k + c`` is walker ``i``'s trial ``c``)."""
        if k < 1:
            raise ValueError("a round needs at least one trial per walker")
        return GatherContext(
            walker_ids=np.repeat(self.walker_ids, k),
            vertices=np.repeat(self.vertices, k),
            upper=np.repeat(self.upper, k),
            lower=np.repeat(self.lower, k),
            totals=self.totals,
            _main_area=(
                None if self._main_area is None else np.repeat(self._main_area, k)
            ),
        )


def gather_stage(
    tables: StaticTables,
    walkers: WalkerSet,
    walker_ids: np.ndarray,
    upper_bounds: np.ndarray,
    lower_bounds: np.ndarray,
) -> GatherContext:
    """Fetch per-lane vertex state (the Gather stage) in one pass.

    ``upper_bounds``/``lower_bounds`` are the per-vertex envelope
    arrays (length |V|).
    """
    vertices = walkers.current[walker_ids]
    return GatherContext(
        walker_ids=walker_ids,
        vertices=vertices,
        upper=upper_bounds[vertices],
        lower=lower_bounds[vertices],
        totals=tables.totals,
    )


@dataclass
class TrialOutcome:
    """Result of one batch trial round.

    ``accepted`` and ``edges`` align with the context's ``walker_ids``:
    where ``accepted[i]`` is True, ``edges[i]`` holds the flat index of
    the sampled edge; elsewhere ``edges[i]`` is -1.  ``pd_lanes`` lists
    the lane positions whose trial evaluated Pd — main-region misses of
    the pre-acceptance floor, ascending, then appendix darts, ascending
    (``appendix_lanes``) — and the cluster engine charges one evaluation
    to each such lane's node.  Every other lane pre-accepted.
    ``accepted`` is a fresh array the caller may keep or mutate.
    """

    accepted: np.ndarray
    edges: np.ndarray
    pd_lanes: np.ndarray
    appendix_lanes: np.ndarray


_NO_LANES = np.zeros(0, dtype=np.int64)


def outlier_appendices(
    graph,
    program: WalkerProgram,
    walkers: WalkerSet,
    ctx: GatherContext,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Outlier edges, their static masses and appendix areas per lane
    (all ``None`` when the program declares no outliers)."""
    declared = program.batch_outliers(graph, walkers, ctx.walker_ids)
    if declared is None:
        return None, None, None
    outlier_edges, outlier_bounds, outlier_widths, outlier_masses = declared
    appendix_area = np.where(
        outlier_edges >= 0,
        outlier_widths * np.maximum(outlier_bounds - ctx.upper, 0.0),
        0.0,
    )
    return outlier_edges, outlier_masses, appendix_area


def batch_trial_round(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    ctx: GatherContext,
    rng: np.random.Generator,
    counters: SamplingCounters | None,
    scratch: KernelScratch,
    validate_bounds: bool = False,
    main_dynamic_comp=None,
) -> TrialOutcome:
    """One rejection-sampling trial for every lane of ``ctx``.

    ``ctx`` is the Gather stage's per-lane state (the engine computes it
    once per superstep); every walker in it must reside at a vertex
    with positive static mass — the engine filters dead ends
    beforehand.  ``scratch`` recycles the dart buffer across rounds.
    ``counters`` is charged one trial per lane; a widened round passes
    ``None`` and lets :func:`first_accepts` charge the trials each
    walker consumed.

    ``validate_bounds`` enables the debug check that every evaluated Pd
    respects the declared envelope (values above it are legal only on
    declared outlier edges).  A violated envelope silently skews the
    sampled law, so the check turns that bug into a loud
    :class:`~repro.errors.ProgramError` — at the cost of one comparison
    per evaluation, hence opt-in.

    ``main_dynamic_comp(walker_ids, candidate_edges)`` evaluates Pd for
    main-region lanes past pre-acceptance (default: the program's
    ``batch_dynamic_comp``).  The distributed engine's query exchange
    goes here; appendix darts never need one — the outlier edge is
    stored with the walker's current vertex.
    """
    walker_ids = ctx.walker_ids
    vertices, upper, lower = ctx.vertices, ctx.upper, ctx.lower
    count = walker_ids.size
    outlier_edges, outlier_masses, appendix_area = outlier_appendices(
        graph, program, walkers, ctx
    )

    def main_trials(lanes):
        """Main-region trials at lane positions ``lanes`` (``None``:
        every lane, indexed by nothing); returns the accept mask and
        edges aligned with them, and the positions that evaluated Pd."""
        if lanes is None:
            at, high, low = vertices, upper, lower
        else:
            at, high, low = vertices[lanes], upper[lanes], lower[lanes]
        candidates = tables.sample_batch(at, rng)
        darts = scratch.random(rng, "trial_darts", (at.size,))
        darts *= high
        ok = darts <= low
        need = np.flatnonzero(~ok)
        # Nobody pre-accepted (a zero lower bound: every meta-path
        # round): Pd on the arrays as they are, no gather through need.
        everyone = need.size == at.size
        pd_at = need if lanes is None else (lanes if everyone else lanes[need])
        if need.size:
            whole = everyone and lanes is None
            ids = walker_ids if whole else walker_ids[pd_at]
            chosen = candidates if everyone else candidates[need]
            if main_dynamic_comp is None:
                dynamic = program.batch_dynamic_comp(graph, walkers, ids, chosen)
            else:
                dynamic = main_dynamic_comp(ids, chosen)
            if validate_bounds:
                _validate_envelope(
                    graph,
                    dynamic,
                    upper[pd_at],
                    chosen,
                    outlier_edges[pd_at] if outlier_edges is not None else None,
                )
            if everyone:
                np.less_equal(darts, dynamic, out=ok)
            else:
                ok[need] = darts[need] <= dynamic
        return ok, np.where(ok, candidates, -1), pd_at

    if appendix_area is None:
        accepted, edges, pd_lanes = main_trials(None)
        appendix_lanes = _NO_LANES
    else:
        # Draw sizes below depend on the region split, so this branch
        # keeps lane lists and scatters back.
        region = rng.random(count) * (ctx.main_area + appendix_area)
        in_main = region < ctx.main_area
        main_lanes = np.flatnonzero(in_main)
        appendix_lanes = np.flatnonzero(~in_main)
        accepted = np.zeros(count, dtype=bool)
        edges = np.full(count, -1, dtype=np.int64)
        if appendix_lanes.size:
            # Appendix darts: Pd of the declared outlier edge, accepted
            # with (true chopped area) / (estimated appendix area).
            at = appendix_lanes
            outliers = outlier_edges[at]
            dynamic = program.batch_dynamic_comp(
                graph, walkers, walker_ids[at], outliers
            )
            chopped = outlier_masses[at] * np.maximum(dynamic - upper[at], 0.0)
            passed = rng.random(at.size) * appendix_area[at] < chopped
            accepted[at[passed]] = True
            edges[at[passed]] = outliers[passed]
        pd_lanes = appendix_lanes
        if main_lanes.size:
            accepted[main_lanes], edges[main_lanes], pd_main = main_trials(
                main_lanes
            )
            pd_lanes = np.concatenate([pd_main, appendix_lanes])

    outcome = TrialOutcome(accepted, edges, pd_lanes, appendix_lanes)
    if counters is not None:
        _charge(counters, outcome)
    return outcome


def first_accepts(
    outcome: TrialOutcome, k: int, counters: SamplingCounters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a round over ``ctx.repeat(k)`` to each walker's first
    accept: per walker ``accepted``, ``edges`` (-1 when all ``k`` trials
    rejected), ``trials_used`` — the first accepting trial's index plus
    one, or ``k`` — and the Pd evaluations among those trials.

    Trials past the first accept are *speculative*: their darts were
    drawn and their Pd may have been evaluated, but they reach neither
    the outcome nor ``counters``, so the sampled law and the counted
    work match a sequential execution trial for trial.  The per-walker
    breakdown lets the cluster engine bill nodes and rejection streaks
    advance by trials consumed.
    """
    first = outcome.accepted.reshape(-1, k).argmax(axis=1)
    # Flat position of the first accepting cell — of trial 0, itself a
    # rejection with edge -1, where none accepted.
    first_cell = first + np.arange(0, outcome.accepted.size, k)
    accepted = outcome.accepted[first_cell]
    trials_used = np.where(accepted, first + 1, k)
    pd_used = _charge(counters, outcome, k, accepted, trials_used)
    return accepted, outcome.edges[first_cell], trials_used, pd_used


def _charge(
    counters: SamplingCounters,
    outcome: TrialOutcome,
    k: int = 1,
    accepted: np.ndarray | None = None,
    trials_used: np.ndarray | None = None,
) -> np.ndarray | None:
    """Charge one round's *consumed* trials to ``counters`` — the one
    place the five fields move.

    A plain round consumed every lane, so the counts are array sizes.
    A widened round (``k`` lanes per walker) consumed lane ``i * k + c``
    iff ``c < trials_used[i]``; its Pd evaluations per walker are
    returned.  Either way a consumed trial that did not evaluate Pd
    pre-accepted — and, accepting, was its walker's last.
    """
    if trials_used is None:
        accepted, pd_used = outcome.accepted, None
        trials = outcome.accepted.size
        pd_evaluations = outcome.pd_lanes.size
        appendix_trials = outcome.appendix_lanes.size
    else:
        if outcome.pd_lanes.size == outcome.accepted.size:
            pd_used = trials_used
        else:
            evaluated = np.zeros(outcome.accepted.size, dtype=bool)
            evaluated[outcome.pd_lanes] = True
            evaluated = evaluated.reshape(-1, k)
            evaluated &= np.arange(k) < trials_used[:, None]
            pd_used = evaluated.sum(axis=1)
        walker, trial = np.divmod(outcome.appendix_lanes, k)
        appendix_trials = int(np.count_nonzero(trial < trials_used[walker]))
        trials = int(trials_used.sum())
        pd_evaluations = int(pd_used.sum())
    counters.trials += trials
    counters.pd_evaluations += pd_evaluations
    counters.pre_accepts += trials - pd_evaluations
    counters.appendix_trials += appendix_trials
    counters.accepts += int(np.count_nonzero(accepted))
    return pd_used


def _validate_envelope(
    graph,
    dynamic: np.ndarray,
    upper: np.ndarray,
    candidate_edges: np.ndarray,
    declared_outliers: np.ndarray | None,
) -> None:
    """Raise if any evaluated Pd exceeds its envelope illegitimately.

    Exemption is by *target vertex* of the declared outlier, so all
    parallel copies of a folded edge (which share its Pd) are covered.
    """
    from repro.errors import ProgramError

    over = dynamic > upper * (1.0 + 1e-12)
    if declared_outliers is not None:
        has_outlier = declared_outliers >= 0
        same_target = np.zeros(candidate_edges.size, dtype=bool)
        same_target[has_outlier] = (
            graph.targets[candidate_edges[has_outlier]]
            == graph.targets[declared_outliers[has_outlier]]
        )
        over &= ~same_target
    if over.any():
        lane = int(np.flatnonzero(over)[0])
        raise ProgramError(
            f"edgeDynamicComp returned {dynamic[lane]} above the declared "
            f"envelope {upper[lane]} for a non-outlier edge "
            f"{int(candidate_edges[lane])}; the sampled law would be wrong"
        )


@dataclass
class FullScanSpans:
    """Per-edge masses of several walkers' full vertex scans.

    Everything a caller needs to resolve each walker exactly:
    ``running`` is the cumulative ``Ps * Pd`` mass over the
    concatenated spans, ``boundaries[i]:boundaries[i+1]`` delimits
    walker ``i``'s slice of ``flat_edges``, ``totals[i]`` is its
    eligible mass (``<= 0`` means no eligible out-edge — terminate),
    and ``evaluations[i]`` counts the Pd evaluations spent on it (the
    distributed engine charges them to the walker's node).

    The engines' zero-mass guard resolves walkers in bulk through this
    vectorised span assembly (one ``batch_dynamic_comp`` over the
    concatenated spans, one global-CDF ``searchsorted`` for the
    draws).
    """

    flat_edges: np.ndarray
    boundaries: np.ndarray
    running: np.ndarray
    totals: np.ndarray
    evaluations: np.ndarray

    def sample(
        self, lanes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact draws for the given (positive-mass) lanes; returns
        flat edge indices.  One ``rng.random`` call of ``lanes.size``."""
        seg_start = self.boundaries[:-1][lanes]
        base = np.where(seg_start > 0, self.running[seg_start - 1], 0.0)
        draws = base + rng.random(lanes.size) * self.totals[lanes]
        positions = np.searchsorted(self.running, draws, side="right")
        positions = np.clip(
            positions, seg_start, self.boundaries[1:][lanes] - 1
        )
        return self.flat_edges[positions]


def full_scan_spans(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    walker_ids: np.ndarray,
) -> FullScanSpans:
    """Vectorised ``Ps * Pd`` over every walker's whole edge slice.

    Every walker must sit at a vertex with at least one out-edge (the
    engines filter dead ends through Pe first).  Consumes no
    randomness — sampling is the caller's move stage.
    """
    vertices = walkers.current[walker_ids].astype(np.int64)
    starts = graph.offsets[vertices].astype(np.int64)
    counts = graph.offsets[vertices + 1].astype(np.int64) - starts
    boundaries = np.zeros(walker_ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    flat_edges = np.repeat(starts - boundaries[:-1], counts) + np.arange(
        boundaries[-1]
    )
    owner = np.repeat(np.arange(walker_ids.size), counts)

    static = tables.static_weights[flat_edges]
    mass = np.zeros(flat_edges.size, dtype=np.float64)
    positive = np.flatnonzero(static > 0.0)
    evaluations = np.zeros(walker_ids.size, dtype=np.int64)
    if positive.size:
        dynamic = program.batch_dynamic_comp(
            graph, walkers, walker_ids[owner[positive]], flat_edges[positive]
        )
        mass[positive] = static[positive] * dynamic
        evaluations = np.bincount(owner[positive], minlength=walker_ids.size)

    running = np.cumsum(mass)
    totals = np.add.reduceat(mass, boundaries[:-1])
    return FullScanSpans(
        flat_edges=flat_edges,
        boundaries=boundaries,
        running=running,
        totals=totals,
        evaluations=evaluations,
    )


def full_scan_distribution(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    walker_id: int,
) -> tuple[np.ndarray, int]:
    """Per-edge unnormalised mass ``Ps * Pd`` at one walker's vertex,
    plus the number of Pd evaluations spent computing it.

    Used by the engines' zero-mass guard: when a walker's trials keep
    failing (possible under Meta-path when no out-edge has the required
    type), a single full scan decides between "no eligible out-edges —
    terminate" (paper section 2.2's no-positive-probability rule) and
    "eligible mass exists", in which case the engine samples exactly
    from the scanned distribution, bounding the worst case without
    changing the sampled law.
    """
    view = walkers.view(walker_id)
    vertex = view.current
    start, end = graph.edge_range(vertex)
    static = tables.static_weights
    mass = np.zeros(end - start, dtype=np.float64)
    evaluations = 0
    for offset, edge_index in enumerate(range(start, end)):
        if static[edge_index] <= 0.0:
            continue
        query = program.state_query(graph, view, edge_index)
        result = (
            program.answer_state_query(graph, query) if query is not None else None
        )
        dynamic = program.edge_dynamic_comp(graph, view, edge_index, result)
        evaluations += 1
        mass[offset] = static[edge_index] * dynamic
    return mass, evaluations


def full_scan_mass(
    graph,
    tables: StaticTables,
    program: WalkerProgram,
    walkers: WalkerSet,
    walker_id: int,
) -> tuple[float, int]:
    """Total unnormalised transition mass at one walker's vertex."""
    mass, evaluations = full_scan_distribution(
        graph, tables, program, walkers, walker_id
    )
    return float(mass.sum()), evaluations
