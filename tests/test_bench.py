"""Smoke tests for the benchmark harness at tiny scales.

Each experiment runner must produce a well-formed ResultTable with the
paper-shaped qualitative outcome; the full-scale runs live under
``benchmarks/``.
"""

import pytest

from repro.bench import (
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    memory,
    table1,
    table5,
    tables34,
)
from repro.bench.reporting import ResultTable
from repro.bench.workloads import (
    extrapolate_walkers,
    paper_algorithms,
    paper_config,
    prepare_graph,
)


class TestWorkloads:
    def test_paper_algorithms_roster(self):
        specs = paper_algorithms()
        assert [s.name for s in specs] == [
            "DeepWalk",
            "PPR",
            "Meta-path",
            "node2vec",
        ]
        ppr = specs[1]
        assert ppr.termination_probability == pytest.approx(1 / 80)
        assert ppr.max_steps is None

    def test_paper_config_walker_counts(self):
        spec = paper_algorithms()[0]
        graph = prepare_graph("livejournal", spec, scale=0.1, weighted=False)
        assert paper_config(spec, graph).num_walkers == graph.num_vertices
        assert (
            paper_config(spec, graph, walker_fraction=0.5).num_walkers
            == graph.num_vertices // 2
        )

    def test_prepare_graph_types_for_metapath(self):
        spec = paper_algorithms()[2]
        graph = prepare_graph("twitter", spec, scale=0.1, weighted=False)
        assert graph.is_heterogeneous

    def test_extrapolation(self):
        assert extrapolate_walkers(2.0, 0.1) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            extrapolate_walkers(1.0, 0.0)

    def test_extrapolation_is_linear_in_walkers(self):
        """The paper validates R^2 >= 0.9998 for time-vs-walkers; here
        we check the work counters scale linearly."""
        from repro.baselines import FullScanWalkEngine
        from repro.core.config import WalkConfig
        from repro.algorithms import Node2Vec
        from repro.graph.datasets import load_dataset

        graph = load_dataset("friendster", scale=0.1)
        evals = []
        for walkers in (100, 200, 400):
            config = WalkConfig(num_walkers=walkers, max_steps=10, seed=0)
            result = FullScanWalkEngine(
                graph, Node2Vec(p=2, q=0.5, biased=False), config
            ).run()
            evals.append(result.stats.counters.pd_evaluations)
        assert evals[1] == pytest.approx(2 * evals[0], rel=0.15)
        assert evals[2] == pytest.approx(4 * evals[0], rel=0.15)


class TestTable1:
    def test_shape(self):
        table = table1.run(scale=0.2, walk_length=10, full_scan_fraction=0.05)
        assert isinstance(table, ResultTable)
        assert len(table.rows) == 2
        full = [float(v) for v in table.column("full-scan edges/step")]
        kk = [float(v) for v in table.column("KnightKing edges/step")]
        # Full-scan costs orders of magnitude more than KnightKing.
        assert min(full) > 10 * max(kk)
        assert max(kk) < 2.0


@pytest.fixture(scope="module")
def tables34_run():
    """``tables34.run(weighted=..., scale=0.12)``, run once per
    ``weighted`` for the whole module."""
    tables = {}

    def run(weighted):
        if weighted not in tables:
            tables[weighted] = tables34.run(weighted=weighted, scale=0.12)
        return tables[weighted]

    return run


class TestTables34:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_speedups_positive(self, tables34_run, weighted):
        table = tables34_run(weighted)
        assert len(table.rows) == 16
        speedups = [
            float(value.rstrip("*")) for value in table.column("speedup")
        ]
        assert all(s > 1.0 for s in speedups)

    def test_dynamic_beats_static_gap(self, tables34_run):
        table = tables34_run(False)
        by_algo = {}
        for row in table.rows:
            by_algo.setdefault(row[0], []).append(float(row[4].rstrip("*")))
        assert max(by_algo["node2vec"]) > max(by_algo["DeepWalk"])


class TestTable5:
    def test_5a_lower_bound_reduces_evals(self):
        table = table5.run_5a(scale=0.2, walk_length=10, walker_fraction=0.3)
        evals = [float(v) for v in table.column("edges/step")]
        # Rows alternate naive / lower-bound per setting.
        for naive, lower in zip(evals[::2], evals[1::2]):
            assert lower <= naive
        # p=q=1 with lower bound: exactly zero evaluations.
        assert evals[5] == 0.0

    def test_5b_combined_best(self):
        table = table5.run_5b(scale=0.2, walk_length=10, walker_fraction=0.3)
        evals = {row[0]: float(row[2]) for row in table.rows}
        assert evals["L+O"] < evals["naive"]
        assert evals["O"] < evals["naive"]
        assert evals["L"] < evals["naive"]


class TestFigures:
    def test_fig5_tail_longer_than_bfs(self):
        bfs_sizes, walk_active = fig5.tail_series(scale=0.15, seed=0)
        assert len(walk_active) > 5 * len(bfs_sizes)
        table = fig5.run(scale=0.15)
        assert "BFS active" in table.columns

    def test_fig6a_linear_vs_flat(self):
        table = fig6.run_6a(
            degrees=(8, 32), num_vertices=2000, walk_length=8, num_walkers=150
        )
        full = [float(v) for v in table.column("full-scan edges/step")]
        kk = [float(v) for v in table.column("KnightKing edges/step")]
        assert full[1] > 3 * full[0]  # grows with degree
        assert abs(kk[1] - kk[0]) < 0.3  # roughly constant

    def test_fig6b_skew_sensitivity(self):
        table = fig6.run_6b(
            max_degrees=(20, 320),
            num_vertices=3000,
            walk_length=8,
            num_walkers=150,
        )
        full = [float(v) for v in table.column("full-scan edges/step")]
        means = [float(v) for v in table.column("mean degree")]
        # Full-scan cost grows faster than the mean degree.
        assert full[1] / full[0] > 1.5 * (means[1] / means[0])

    def test_fig6c_hotspots(self):
        table = fig6.run_6c(
            hotspot_counts=(0, 4),
            num_vertices=3000,
            base_degree=10,
            walk_length=8,
            num_walkers=150,
        )
        full = [float(v) for v in table.column("full-scan edges/step")]
        kk = [float(v) for v in table.column("KnightKing edges/step")]
        assert full[1] > 3 * full[0]
        assert abs(kk[1] - kk[0]) < 0.3

    def test_fig7_scaling(self):
        knightking, gemini = fig7.scaling_series(
            node_counts=(1, 4), scale=0.1, walk_length=10, gemini_fraction=0.2
        )
        assert knightking[1] < knightking[0]
        assert gemini[1] < gemini[0]
        assert gemini[0] > knightking[0]

    def test_fig8_mixed_grows(self):
        rows = fig8.decoupling_series(
            max_weights=(2.0, 16.0),
            distribution="power-law",
            scale=0.15,
            walk_length=8,
            walker_fraction=0.3,
        )
        assert rows[1][3] > rows[0][3]  # mixed trials grow
        assert rows[1][4] < 1.5 * rows[0][4]  # decoupled roughly flat

    def test_fig8_bad_distribution(self):
        with pytest.raises(ValueError):
            fig8.decoupling_series(distribution="gaussian", scale=0.15)

    def test_fig9_light_mode_helps_ppr(self):
        baseline, light = fig9.straggler_pair(
            "livejournal", "ppr", scale=0.15
        )
        assert light < baseline

    def test_fig9_bad_algorithm(self):
        with pytest.raises(ValueError):
            fig9.straggler_pair("livejournal", "bfs", scale=0.15)

    def test_memory_table(self):
        table = memory.run()
        assert len(table.rows) == 2
        assert "TB" in table.rows[0][1]

    def test_navigation_rates_smoke(self):
        from repro.bench import navrate

        rates = navrate.navigation_rates(
            scale=0.15, walk_length=8, walker_fraction=0.05
        )
        assert set(rates) == {
            "BFS",
            "full-scan node2vec",
            "KnightKing node2vec",
        }
        assert all(rate > 0 for rate in rates.values())
        assert rates["KnightKing node2vec"] > rates["full-scan node2vec"]
