"""Unit tests for the node2vec walk program."""

import numpy as np
import pytest

from repro.algorithms import Node2Vec
from repro.cluster import DistributedWalkEngine
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.core.program import StateQuery
from repro.core.walker import NO_VERTEX, WalkerSet
from repro.errors import ProgramError
from repro.graph.builder import assign_random_weights, from_edges
from repro.graph.generators import uniform_degree_graph

from tests.helpers import diamond_graph


def walkers_at(current, previous=None, count=1):
    walkers = WalkerSet(np.full(count, current, dtype=np.int64))
    if previous is not None:
        # Simulate one past move without touching step semantics used
        # by Pd (node2vec only reads prev).
        walkers.previous[:] = previous
        walkers.steps[:] = 1
    return walkers


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ProgramError):
            Node2Vec(p=0.0)
        with pytest.raises(ProgramError):
            Node2Vec(q=-1.0)

    @pytest.mark.parametrize(
        "p, q, match",
        [
            (float("nan"), 0.5, "must be positive"),
            (2.0, float("nan"), "must be positive"),
            (1e-320, 1.0, "1/p and 1/q must be finite"),
            (1.0, 1e-320, "1/p and 1/q must be finite"),
        ],
    )
    def test_parameters_whose_pd_is_not_finite_are_refused(self, p, q, match):
        """NaN passed ``p <= 0``: ``p=nan`` walked a flat envelope (no Pd
        evaluated at all) and ``p=1e-320`` an infinite one."""
        with pytest.raises(ProgramError, match=match):
            Node2Vec(p=p, q=q)

    def test_an_infinite_p_never_returns(self):
        program = Node2Vec(p=float("inf"), q=2.0)
        assert program.return_pd == 0.0 and program.floor == 0.0
        assert program.envelope == 1.0

    def test_envelope_with_and_without_folding(self):
        folded = Node2Vec(p=0.25, q=1.0)  # 1/p = 4 dominates
        assert folded.folding
        assert folded.envelope == 1.0
        naive = Node2Vec(p=0.25, q=1.0, fold_outlier=False)
        assert not naive.folding
        assert naive.envelope == 4.0

    def test_folding_auto_disabled_when_useless(self):
        program = Node2Vec(p=2.0, q=0.5)  # 1/q = 2 dominates, 1/p = 0.5
        assert not program.folding
        assert program.envelope == 2.0

    def test_floor(self):
        assert Node2Vec(p=2.0, q=0.5).floor == 0.5
        assert Node2Vec(p=0.5, q=2.0).floor == 0.5
        assert Node2Vec(p=1.0, q=1.0).floor == 1.0


class TestDynamicComponent:
    def test_three_cases(self):
        graph = diamond_graph()
        program = Node2Vec(p=4.0, q=0.25, biased=False)
        walkers = walkers_at(current=1, previous=0)
        view = walkers.view(0)
        # Return edge 1 -> 0: d_tx = 0.
        assert program.edge_dynamic_comp(
            graph, view, graph.edge_index(1, 0)
        ) == pytest.approx(0.25)
        # 1 -> 2 with 2 adjacent to 0: d_tx = 1.
        assert program.edge_dynamic_comp(
            graph, view, graph.edge_index(1, 2)
        ) == pytest.approx(1.0)
        # 1 -> 3 with 3 not adjacent to 0: d_tx = 2.
        assert program.edge_dynamic_comp(
            graph, view, graph.edge_index(1, 3)
        ) == pytest.approx(4.0)

    def test_first_step_uniform(self):
        graph = diamond_graph()
        program = Node2Vec(p=4.0, q=0.25, biased=False)
        view = walkers_at(current=1).view(0)
        for edge in range(*graph.edge_range(1)):
            assert program.edge_dynamic_comp(graph, view, edge) == 1.0

    def test_query_result_short_circuits_adjacency(self):
        graph = diamond_graph()
        program = Node2Vec(p=1.0, q=4.0, biased=False)
        view = walkers_at(current=1, previous=0).view(0)
        edge = graph.edge_index(1, 3)
        assert program.edge_dynamic_comp(graph, view, edge, True) == 1.0
        assert program.edge_dynamic_comp(
            graph, view, edge, False
        ) == pytest.approx(0.25)

    def test_batch_matches_scalar(self):
        graph = diamond_graph()
        program = Node2Vec(p=0.5, q=2.0, biased=False)
        walkers = walkers_at(current=1, previous=0, count=3)
        start, end = graph.edge_range(1)
        edges = np.arange(start, end)
        batch = program.batch_dynamic_comp(
            graph, walkers, np.arange(3), edges
        )
        scalar = [
            program.edge_dynamic_comp(graph, walkers.view(i), int(e))
            for i, e in enumerate(edges)
        ]
        np.testing.assert_allclose(batch, scalar)

    def test_batch_first_step(self):
        graph = diamond_graph()
        program = Node2Vec(p=0.5, q=2.0, biased=False)
        walkers = walkers_at(current=0, count=2)
        values = program.batch_dynamic_comp(
            graph, walkers, np.arange(2), np.array([0, 1])
        )
        np.testing.assert_array_equal(values, [1.0, 1.0])


class TestStateQueries:
    def test_query_posted_for_non_return_candidates(self):
        graph = diamond_graph()
        program = Node2Vec(p=1.0, q=2.0)
        view = walkers_at(current=1, previous=0).view(0)
        query = program.state_query(graph, view, graph.edge_index(1, 3))
        assert query == StateQuery(target_vertex=0, payload=3)

    def test_no_query_for_return_edge_or_first_step(self):
        graph = diamond_graph()
        program = Node2Vec()
        view = walkers_at(current=1, previous=0).view(0)
        assert program.state_query(graph, view, graph.edge_index(1, 0)) is None
        fresh = walkers_at(current=1).view(0)
        assert program.state_query(graph, fresh, 0) is None

    def test_batch_state_queries(self):
        graph = diamond_graph()
        program = Node2Vec()
        walkers = walkers_at(current=1, previous=0, count=2)
        edges = np.array([graph.edge_index(1, 0), graph.edge_index(1, 3)])
        targets, payloads = program.batch_state_queries(
            graph, walkers, np.arange(2), edges
        )
        assert targets.tolist() == [-1, 0]
        assert payloads[1] == 3

    def test_batch_dynamic_with_answers(self):
        graph = diamond_graph()
        program = Node2Vec(p=0.5, q=4.0, biased=False)
        walkers = walkers_at(current=1, previous=0, count=3)
        edges = np.array(
            [
                graph.edge_index(1, 0),  # return
                graph.edge_index(1, 2),  # neighbour (answer True)
                graph.edge_index(1, 3),  # non-neighbour (answer False)
            ]
        )
        answers = np.array([0.0, 1.0, 0.0])
        answered = np.array([False, True, True])
        values = program.batch_dynamic_with_answers(
            graph, walkers, np.arange(3), edges, answers, answered
        )
        np.testing.assert_allclose(values, [2.0, 1.0, 0.25])


class TestOutliers:
    def test_scalar_spec_points_at_return_edge(self):
        graph = diamond_graph()
        program = Node2Vec(p=0.25, q=1.0, biased=False)
        view = walkers_at(current=1, previous=0).view(0)
        (spec,) = program.outlier_specs(graph, view)
        assert graph.targets[spec.edge] == 0
        assert spec.pd_bound == pytest.approx(4.0)
        assert spec.static_mass == pytest.approx(1.0)

    def test_no_spec_without_previous(self):
        graph = diamond_graph()
        program = Node2Vec(p=0.25, q=1.0)
        assert program.outlier_specs(graph, walkers_at(0).view(0)) == ()

    def test_no_spec_without_return_edge(self):
        # Directed: 0 -> 1 -> 2 with no way back.
        graph = from_edges(3, [(0, 1), (1, 2)])
        program = Node2Vec(p=0.25, q=1.0)
        view = walkers_at(current=1, previous=0).view(0)
        assert program.outlier_specs(graph, view) == ()

    def test_parallel_return_edges_mass_summed(self):
        graph = from_edges(3, [(1, 0), (1, 0), (1, 2)])
        program = Node2Vec(p=0.25, q=1.0, biased=False)
        view = walkers_at(current=1, previous=0).view(0)
        (spec,) = program.outlier_specs(graph, view)
        assert spec.static_mass == pytest.approx(2.0)

    def test_batch_outliers(self):
        graph = diamond_graph(weights=True)
        program = Node2Vec(p=0.25, q=1.0, biased=True)
        walkers = WalkerSet(np.array([1, 1, 2]))
        walkers.previous[:] = [0, NO_VERTEX, 3]
        edges, bounds, widths, masses = program.batch_outliers(
            graph, walkers, np.arange(3)
        )
        assert edges[1] == -1  # no previous vertex
        assert graph.targets[edges[0]] == 0
        assert graph.targets[edges[2]] == 3
        assert masses[0] == pytest.approx(
            graph.weights[graph.edge_index(1, 0)]
        )
        assert np.all(bounds == 4.0)

    def test_batch_outliers_none_when_not_folding(self):
        graph = diamond_graph()
        program = Node2Vec(p=2.0, q=0.5)
        walkers = walkers_at(current=1, previous=0)
        assert program.batch_outliers(graph, walkers, np.array([0])) is None


class TestStaticComponent:
    def test_biased_uses_weights(self):
        graph = diamond_graph(weights=True)
        assert Node2Vec(biased=True).edge_static_comp(graph) is None

    def test_unbiased_forces_ones(self):
        graph = diamond_graph(weights=True)
        static = Node2Vec(biased=False).edge_static_comp(graph)
        np.testing.assert_array_equal(static, np.ones(graph.num_edges))


class TestFlatEnvelope:
    """With p = q = 1 every Pd is 1 and Q(v) = L(v) = 1: the envelope
    is flat, and the trial kernel pre-accepts every dart without
    evaluating Pd.  Turning the lower bound off makes every lane
    evaluate Pd instead; the walk must not notice."""

    @pytest.mark.parametrize("nodes", [0, 4])
    def test_flat_branch_walks_the_paths_of_evaluating_every_pd(self, nodes):
        graph = assign_random_weights(
            uniform_degree_graph(200, 6, seed=5, undirected=True), seed=6
        )
        config = WalkConfig(num_walkers=150, max_steps=15, seed=11, record_paths=True)

        def run(use_lower_bound):
            if nodes:
                engine = DistributedWalkEngine(
                    graph, Node2Vec(p=1.0, q=1.0), config,
                    num_nodes=nodes, use_lower_bound=use_lower_bound,
                )
            else:
                engine = WalkEngine(
                    graph, Node2Vec(p=1.0, q=1.0), config,
                    use_lower_bound=use_lower_bound,
                )
            return engine, engine.run()

        flat_engine, flat = run(True)
        full_engine, full = run(False)
        assert flat_engine.lower is flat_engine.upper  # the branch is taken
        assert full_engine.lower is not full_engine.upper
        assert [p.tolist() for p in flat.paths] == [p.tolist() for p in full.paths]
        assert flat.stats.iterations == full.stats.iterations
        flat_counts, full_counts = flat.stats.counters, full.stats.counters
        assert flat_counts.pd_evaluations == 0
        assert flat_counts.pre_accepts == flat_counts.trials
        assert full_counts.pd_evaluations == full_counts.trials > 0
        assert full_counts.pre_accepts == 0
        for field in ("trials", "accepts", "appendix_trials"):
            assert getattr(flat_counts, field) == getattr(full_counts, field)
