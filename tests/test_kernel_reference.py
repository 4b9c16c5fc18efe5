"""The rewritten single-trial kernel against the frozen one.

PR 20 replaced the lane-list bookkeeping of ``batch_trial_round`` and
the ``undecided`` list of ``Node2Vec.batch_dynamic_comp`` with masks.
``tests/reference_kernels.py`` keeps the old statements; here Hypothesis
draws small graphs, programs and lane mixes and requires both sides to
return the same arrays (``pd_lanes`` in the same *order* — the cluster
engine bills by it), charge the same counters, hand the same lanes to
``main_dynamic_comp`` and leave the RNG in the same state.

DeepWalk's and node2vec's envelopes are one constant per graph, which
let a wrong gather of ``upper`` survive PR 20's mutation check;
``TargetTilt`` below has Q(v) and L(v) that differ vertex to vertex,
with and without a folded outlier and with L(v) = 0.  A real stream
lands a dart exactly *on* a floor or a Pd with probability ~2**-53, so
``<`` for ``<=`` survived too; ``QuarterSteps`` rounds every uniform
down to a quarter, and ``TargetTilt``'s bounds and Pd are halves.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DeepWalk, Node2Vec
from repro.core.kernels import KernelScratch, batch_trial_round, gather_stage
from repro.core.program import WalkerProgram
from repro.core.walker import NO_VERTEX, WalkerSet
from repro.graph.builder import from_arrays
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables
from repro.sampling.rejection import SamplingCounters
from tests.reference_kernels import ReferenceNode2Vec, reference_batch_trial_round

PQ = (0.25, 1.0, 2.0)


@st.composite
def graphs(draw):
    """2-8 vertices, every one with an out-edge (a ring), plus random
    extra edges: parallel copies, self-loops, and vertex 0 — which
    first-step lanes now ask about — adjacent to some targets only."""
    count = draw(st.integers(2, 8))
    vertex = st.integers(0, count - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=24))
    sources = list(range(count)) + [s for s, _ in extra]
    targets = [(v + 1) % count for v in range(count)] + [t for _, t in extra]
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.floats(0.5, 4.0, allow_nan=False),
                min_size=len(sources),
                max_size=len(sources),
            )
        )
    return from_arrays(
        count, np.asarray(sources), np.asarray(targets), weights=weights
    )


@st.composite
def lanes(draw, graph):
    """Walkers with mixed histories — first step, or any previous
    vertex (so return, adjacent and distant candidates all occur) —
    and none, one or all of them, unordered, as the lane list."""
    count = draw(st.sampled_from([1, 2, 7, 40]))
    vertex = st.integers(0, graph.num_vertices - 1)
    current = draw(st.lists(vertex, min_size=count, max_size=count))
    previous = draw(
        st.lists(st.one_of(st.just(NO_VERTEX), vertex), min_size=count, max_size=count)
    )
    walkers = WalkerSet(np.asarray(current, dtype=np.int64))
    walkers.previous[:] = previous
    walkers.steps[:] = walkers.previous != NO_VERTEX
    walker_ids = np.asarray(draw(st.permutations(range(count))), dtype=np.int64)
    return walkers, walker_ids[: draw(st.sampled_from([0, 1, count]))]


@st.composite
def node2vecs(draw):
    """(rewritten, frozen) node2vec pairs of one parametrisation."""
    options = dict(
        p=draw(st.sampled_from(PQ)),
        q=draw(st.sampled_from(PQ)),
        biased=draw(st.booleans()),
        fold_outlier=draw(st.booleans()),
    )
    return Node2Vec(**options), ReferenceNode2Vec(**options)


class TargetTilt(WalkerProgram):
    """First-order, test-local: Pd(e) = 0.5, 1, 1.5 or 2 by ``target(e)
    % 4``, so the exact envelope (largest Pd among a vertex's out-edges)
    and floor (smallest; 0 with ``floor=False``) vary by vertex.  With
    ``fold`` the first edge attaining the largest Pd at a vertex, and
    its parallel copies, are the declared outlier — with a bound half
    a unit loose, so the appendix coin is a real coin — and the envelope
    is the largest Pd among the rest (the top one where nothing is
    left)."""

    name = "target-tilt"
    dynamic = True
    supports_batch = True

    def __init__(self, floor: bool, fold: bool) -> None:
        self.floor, self.fold = floor, fold

    def _pd(self, graph, edges):
        return 0.5 + 0.5 * (graph.targets[edges] % 4)

    def edge_dynamic_comp(self, graph, walker, edge_index, query_result=None):
        return float(self._pd(graph, edge_index))

    def batch_dynamic_comp(self, graph, walkers, walker_ids, candidate_edges):
        return self._pd(graph, candidate_edges)

    def _outliers(self, graph):
        """Per vertex: outlier edge, its Pd, the static mass of all its
        copies, and the largest Pd among the other edges."""
        pd = self._pd(graph, np.arange(graph.num_edges))
        starts = graph.offsets[:-1]
        source = np.repeat(np.arange(graph.num_vertices), np.diff(graph.offsets))
        top = np.maximum.reduceat(pd, starts)
        at_top = np.flatnonzero(pd == top[source])
        edge = at_top[np.unique(source[at_top], return_index=True)[1]]
        copies = graph.targets == graph.targets[edge][source]
        static = np.ones(graph.num_edges) if graph.weights is None else graph.weights
        mass = np.add.reduceat(np.where(copies, static, 0.0), starts)
        rest = np.maximum.reduceat(np.where(copies, -np.inf, pd), starts)
        return edge, top, mass, np.where(np.isfinite(rest), rest, top)

    def upper_bound_array(self, graph):
        return self._outliers(graph)[3 if self.fold else 1]

    def lower_bound_array(self, graph):
        if not self.floor:
            return np.zeros(graph.num_vertices)
        every = self._pd(graph, np.arange(graph.num_edges))
        return np.minimum.reduceat(every, graph.offsets[:-1])

    def batch_outliers(self, graph, walkers, walker_ids):
        if not self.fold:
            return None
        edge, top, mass, _ = self._outliers(graph)
        at = walkers.current[walker_ids]
        return edge[at], top[at] + 0.5, mass[at], mass[at]


@st.composite
def tilts(draw):
    program = TargetTilt(floor=draw(st.booleans()), fold=draw(st.booleans()))
    return program, program


programs = st.one_of(st.just((DeepWalk(), DeepWalk())), node2vecs(), tilts())


class QuarterSteps:
    """A ``Generator`` stand-in whose uniforms are 0, 1/4, 1/2 or 3/4."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator

    def random(self, size=None, out=None):
        draws = self._rng.random(size, out=out)
        np.floor(draws * 4.0, out=draws)
        draws /= 4.0
        return draws


class Side:
    """One kernel with its own RNG, counters, scratch and Pd log."""

    def __init__(
        self, kernel, graph, tables, program, walkers, seed, exchange, coarse=False
    ):
        self.kernel = kernel
        self.args = (graph, tables, program, walkers)
        self.rng = np.random.default_rng(seed)
        if coarse:
            self.rng = QuarterSteps(self.rng)
        self.counters = SamplingCounters()
        self.scratch = KernelScratch()
        self.asked: list = []
        self.exchange = self._main_dynamic_comp if exchange else None

    def _main_dynamic_comp(self, walker_ids, edges):
        graph, _, program, walkers = self.args
        self.asked.append((walker_ids.tolist(), edges.tolist()))
        return program.batch_dynamic_comp(graph, walkers, walker_ids, edges)

    def round(self, ctx, validate_bounds):
        return self.kernel(
            *self.args,
            ctx,
            self.rng,
            self.counters,
            self.scratch,
            validate_bounds=validate_bounds,
            main_dynamic_comp=self.exchange,
        )


def assert_same_outcome(new, old, new_side, old_side):
    for name in ("accepted", "edges", "pd_lanes"):
        ours, theirs = getattr(new, name), getattr(old, name)
        assert ours.dtype == theirs.dtype, name
        np.testing.assert_array_equal(ours, theirs, err_msg=name)
    assert (new.edges == -1).tolist() == (~new.accepted).tolist()
    assert dataclasses.asdict(new_side.counters) == dataclasses.asdict(
        old_side.counters
    )
    assert new_side.asked == old_side.asked
    assert new_side.rng.bit_generator.state == old_side.rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    sampler=st.sampled_from([VertexAliasTables, VertexITSTables]),
    use_lower_bound=st.booleans(),
    validate_bounds=st.booleans(),
    exchange=st.booleans(),
    coarse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rewritten_kernel_equals_frozen_kernel(
    data, sampler, use_lower_bound, validate_bounds, exchange, coarse, seed
):
    graph = data.draw(graphs())
    program, frozen_program = data.draw(programs)
    walkers, walker_ids = data.draw(lanes(graph))
    tables = sampler(graph, program.edge_static_comp(graph))
    if program.dynamic:
        upper = program.upper_bound_array(graph)
        lower = program.lower_bound_array(graph) if use_lower_bound else upper * 0.0
    else:
        upper = lower = np.ones(graph.num_vertices)

    new_side = Side(
        batch_trial_round, graph, tables, program, walkers, seed, exchange, coarse
    )
    old_side = Side(
        reference_batch_trial_round,
        graph,
        tables,
        frozen_program,
        walkers,
        seed,
        exchange,
        coarse,
    )
    # Two rounds: the second on the rejected lanes, as step pacing
    # retries them, through ``take`` and a warmed scratch pool.
    ctx = gather_stage(tables, walkers, walker_ids, upper, lower)
    for _ in range(2):
        new = new_side.round(ctx, validate_bounds)
        old = old_side.round(ctx, validate_bounds)
        assert_same_outcome(new, old, new_side, old_side)
        ctx = ctx.take(~new.accepted)


def test_each_lane_is_validated_against_its_own_envelope():
    """The draw above meets this layout — a folded program, validation
    on, an appendix lane ahead of a main-region lane whose vertex has
    the larger envelope — about once in 3 000 examples; here it is
    fixed.  Vertex 0: Pd 2.0 (folded) over an envelope of 0.5, so most
    of its lanes land in the appendix; vertex 1: Pd 1.5 (folded) over
    1.0.  Gathering the envelope (or the declared outlier) through the
    wrong lane list holds a vertex-1 candidate to 0.5 and raises."""
    graph = from_arrays(
        6, np.array([0, 0, 1, 1, 2, 3, 4, 5]), np.array([3, 4, 2, 5, 0, 0, 0, 0])
    )
    program = TargetTilt(floor=False, fold=True)
    walkers = WalkerSet(np.tile(np.array([0, 1], dtype=np.int64), 20))
    tables = VertexAliasTables(graph)
    upper = program.upper_bound_array(graph)
    assert upper[:2].tolist() == [0.5, 1.0]
    ctx = gather_stage(tables, walkers, np.arange(40), upper, upper * 0.0)
    for seed in range(10):
        # Odd seeds in quarter steps: a vertex-0 appendix coin of 3/4
        # lands exactly on chopped / area = 1.5 / 2.0.
        sides = [
            Side(kernel, graph, tables, program, walkers, seed, True, seed % 2)
            for kernel in (batch_trial_round, reference_batch_trial_round)
        ]
        new, old = (side.round(ctx, validate_bounds=True) for side in sides)
        assert 0 < new.appendix_lanes.size < new.pd_lanes.size
        assert_same_outcome(new, old, *sides)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_node2vec_batch_pd_equals_frozen(data):
    """Any (walker, edge) pairing — appendix darts and the zero-mass
    guard's full scans evaluate edges the alias draw did not pick."""
    graph = data.draw(graphs())
    program, frozen_program = data.draw(node2vecs())
    walkers, walker_ids = data.draw(lanes(graph))
    edges = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, graph.num_edges - 1),
                min_size=walker_ids.size,
                max_size=walker_ids.size,
            )
        ),
        dtype=np.int64,
    )
    ours = program.batch_dynamic_comp(graph, walkers, walker_ids, edges)
    theirs = frozen_program.batch_dynamic_comp(graph, walkers, walker_ids, edges)
    assert ours.dtype == theirs.dtype
    np.testing.assert_array_equal(ours, theirs)
