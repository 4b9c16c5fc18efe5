"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.analysis import load_corpus
from repro.cli import build_parser, main
from repro.graph.generators import uniform_degree_graph
from repro.graph.io import save_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_walk_defaults(self):
        args = build_parser().parse_args(
            ["walk", "--dataset", "livejournal"]
        )
        assert args.algorithm == "deepwalk"
        assert args.length == 80
        assert args.nodes == 0

    def test_graph_source_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["info", "--dataset", "twitter", "--edge-list", "x.txt"]
            )


class TestInfo:
    def test_dataset_info(self, capsys):
        code = main(["info", "--dataset", "livejournal", "--scale", "0.1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "degree mean" in output
        assert "p99" in output

    def test_edge_list_info(self, capsys, tmp_path):
        graph = uniform_degree_graph(30, 3, seed=0)
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(["info", "--edge-list", str(path)]) == 0
        assert "|V|=30" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "--edge-list", "/nonexistent/file"]) == 1
        assert "error" in capsys.readouterr().err


class TestWalk:
    def test_local_walk(self, capsys):
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                "uniform",
                "--walkers",
                "50",
                "--length",
                "5",
            ]
        )
        assert code == 0
        assert "steps=250" in capsys.readouterr().out

    def test_distributed_walk(self, capsys):
        code = main(
            [
                "walk",
                "--dataset",
                "twitter",
                "--scale",
                "0.1",
                "--algorithm",
                "node2vec",
                "--walkers",
                "40",
                "--length",
                "5",
                "--nodes",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "supersteps" in output
        assert "messages" in output

    def test_crash_outside_the_cluster_is_an_error(self, capsys):
        """Node 9 of 4 is an error naming the crash, not a silent no-op."""
        code = main(
            [
                "walk", "--dataset", "livejournal", "--scale", "0.02",
                "--nodes", "4", "--crash", "2:9:dead",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "crash node 9 (superstep 2) outside cluster of 4 nodes" in err

    @pytest.mark.parametrize("algorithm", ["ppr", "metapath", "rwr", "deepwalk"])
    def test_all_algorithms_run(self, capsys, algorithm):
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                algorithm,
                "--walkers",
                "30",
                "--length",
                "5",
            ]
        )
        assert code == 0

    def test_corpus_output(self, capsys, tmp_path):
        corpus_path = tmp_path / "walks.txt"
        code = main(
            [
                "walk",
                "--dataset",
                "livejournal",
                "--scale",
                "0.1",
                "--algorithm",
                "deepwalk",
                "--walkers",
                "20",
                "--length",
                "6",
                "--output",
                str(corpus_path),
            ]
        )
        assert code == 0
        walks = load_corpus(corpus_path)
        assert len(walks) == 20
        assert all(len(walk) == 7 for walk in walks)


class TestSanitize:
    @pytest.mark.parametrize("algorithm", ["ppr", "deepwalk"])
    def test_sanitize_checks_the_walk_that_walk_runs(
        self, capsys, monkeypatch, algorithm
    ):
        """``sanitize`` built PPR as a fixed 20-step walk that never drew
        a termination coin, while ``walk`` stops it with 1/80 per step."""
        import repro.cli as cli

        configs = {}

        class Recorded(cli.WalkEngine):
            def __init__(self, graph, program, config, **kwargs):
                configs.setdefault(command, []).append(config)
                super().__init__(graph, program, config, **kwargs)

        monkeypatch.setattr(cli, "WalkEngine", Recorded)
        args = ["--dataset", "livejournal", "--scale", "0.02", "--algorithm",
                algorithm, "--walkers", "20", "--length", "20", "--seed", "3"]
        for command in ("walk", "sanitize"):
            assert main([command, *args]) == 0
        walked, sanitized = configs["walk"], configs["sanitize"]
        assert len(walked) == 1 and len(sanitized) == 2
        assert sanitized == [walked[0]] * 2
        if algorithm == "ppr":
            assert walked[0].max_steps is None
            assert walked[0].termination_probability == 1.0 / 80.0
        assert "deterministic" in capsys.readouterr().out


class TestHostileEdgeList:
    """Each of these escaped as a bare exception (or, for nan, loaded
    and skewed every alias table over that vertex); `repro walk` now
    reports one `error: file:line: ...` line and a non-zero exit."""

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"# vertices abc\n0 1\n", 1),  # was ValueError
            (b"0 1\n1 \xe9\n", 2),  # was UnicodeDecodeError
            (b"99999999999999999999 1\n", 1),  # was OverflowError
            (b"0 1 1.0\n1 0 nan\n", 2),  # was accepted
            (b"0 1\n1 0 2.5\n", 2),  # ragged: was weight 1.0 filled in
        ],
    )
    def test_one_line_error_no_traceback(self, content, line, capsys, tmp_path):
        path = tmp_path / "hostile.txt"
        path.write_bytes(content)
        code = main(
            ["walk", "--edge-list", str(path), "--walkers", "5", "--length", "3"]
        )
        captured = capsys.readouterr()
        assert code != 0
        (message,) = captured.err.splitlines()
        assert message.startswith(f"error: {path}:{line}:")

    def test_negative_seed_one_line_error(self, capsys):
        code = main(
            ["walk", "--dataset", "livejournal", "--scale", "0.05",
             "--walkers", "5", "--length", "3", "--seed", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            "error: seed must be non-negative"
        ]


class TestBench:
    def test_memory_experiment(self, capsys):
        assert main(["bench", "memory"]) == 0
        output = capsys.readouterr().out
        assert "970 TB" in output or "TB" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "table99"])
