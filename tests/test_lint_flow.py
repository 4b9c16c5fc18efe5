"""Tests for :mod:`repro.lint.flow` — the whole-program analysis layer.

The flow fixture *packages* under ``tests/lint_fixtures/flow_*/`` are
linted end-to-end through :meth:`Linter.lint_paths` (syntactic rules +
flow rules + suppressions), with inline ``# expect:`` markers asserted
as set equality — every unmarked line doubles as a negative test.
Each package holds its rule's flows across statements, helpers and
modules; the single-file ``simtime_*`` and ``process_*`` fixtures hold
RK210's and RK310's zero-hop cases: one rule per invariant, whatever
the distance between source and sink.
"""

import argparse
import io
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import Linter, render_rule_catalog_markdown
from repro.lint.cli import add_lint_arguments, run_lint
from repro.lint.flow import (
    FLOW_RULES,
    CallResolver,
    ProjectIndex,
    build_call_graph,
    run_flow_rules,
)
from repro.lint.flow.ir import collect_aliases, module_name_for

TESTS_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = TESTS_DIR / "lint_fixtures"
FLOW_FIXTURE_DIRS = sorted(
    d for d in FIXTURE_DIR.glob("flow_rk*") if d.is_dir()
)
FLOW_RULE_IDS = {spec.rule_id for spec in FLOW_RULES}

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+?)\s*$")


def _expected_in(directory: Path) -> set[tuple[str, int, str]]:
    expected = set()
    for path in sorted(directory.rglob("*.py")):
        rel = path.relative_to(FIXTURE_DIR).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT.search(line)
            if match:
                for rule_id in match.group(1).split(","):
                    rule_id = rule_id.strip()
                    if rule_id:
                        expected.add((rel, lineno, rule_id))
    return expected


def _lint_dir(directory: Path) -> set[tuple[str, int, str]]:
    linter = Linter(root=str(FIXTURE_DIR))
    report = linter.lint_paths([str(directory)])
    actual = set()
    for f in report.findings:
        rel = Path(f.path).resolve().relative_to(FIXTURE_DIR).as_posix()
        actual.add((rel, f.line, f.rule_id))
    return actual


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


def _build_index(directory: Path) -> ProjectIndex:
    files = []
    for path in sorted(directory.rglob("*.py")):
        rel = path.relative_to(FIXTURE_DIR).as_posix()
        files.append((str(path), rel, path.read_text(), None))
    return ProjectIndex.build(files)


class TestFlowFixtures:
    @pytest.mark.parametrize(
        "fixture_dir", FLOW_FIXTURE_DIRS, ids=lambda p: p.name
    )
    def test_fixture_findings_match_expectations(self, fixture_dir):
        assert _lint_dir(fixture_dir) == _expected_in(fixture_dir)

    def test_every_flow_rule_has_positive_and_negative_coverage(self):
        covered = set()
        for directory in FLOW_FIXTURE_DIRS:
            covered |= {rule for _, _, rule in _expected_in(directory)}
        assert FLOW_RULE_IDS <= covered


class TestProjectIndex:
    def test_module_name_for_walks_init_chain(self):
        tree = {"pkg/__init__.py", "pkg/sub/__init__.py"}
        exists = lambda p: p.replace("\\", "/") in tree  # noqa: E731
        assert module_name_for("pkg/sub/mod.py", exists) == ("pkg.sub.mod", False)
        assert module_name_for("pkg/sub/__init__.py", exists) == ("pkg.sub", True)
        assert module_name_for("scripts/tool.py", exists) == ("tool", False)

    def test_relative_import_aliases(self):
        import ast

        tree = ast.parse("from .network import Network\nfrom . import wire\n")
        aliases = collect_aliases(tree, "repro.cluster.engine", False)
        assert aliases["Network"] == "repro.cluster.network.Network"
        assert aliases["wire"] == "repro.cluster.wire"

    def test_import_as_aliases(self):
        import ast

        tree = ast.parse(
            "import numpy as np\nfrom flow_project import util as helpers\n"
        )
        aliases = collect_aliases(tree, "mod", False)
        assert aliases["np"] == "numpy"
        assert aliases["helpers"] == "flow_project.util"

    def test_resolve_through_reexport_chain(self):
        index = _build_index(FIXTURE_DIR / "flow_project")
        # flow_project.Engine re-exports flow_project.core.Engine.
        assert index.resolve("flow_project.Engine") == (
            "class",
            ("flow_project.core", "Engine"),
        )
        # The `import util as helpers_mod` alias inside core.py.
        assert index.resolve("flow_project.util.shared_constant") == (
            "func",
            "flow_project.util:shared_constant",
        )

    def test_method_resolution_through_hierarchy(self):
        index = _build_index(FIXTURE_DIR / "flow_project")
        engine = ("flow_project.core", "Engine")
        # Overridden method resolves to the subclass...
        assert index.find_method(engine, "helper") == (
            "flow_project.core:Engine.helper"
        )
        # ...inherited method to the base.
        assert index.find_method(engine, "run") == (
            "flow_project.core:Base.run"
        )


class TestCallGraph:
    def test_edges(self):
        index = _build_index(FIXTURE_DIR / "flow_project")
        edges = build_call_graph(index)
        # Typed-local method call, resolved through the alias chain
        # flow_project.Engine -> core.Engine, then the MRO to Base.run.
        assert "flow_project.core:Base.run" in edges[
            "flow_project.util:build_and_run"
        ]
        # self.method() through the hierarchy.
        assert "flow_project.core:Base.helper" in edges[
            "flow_project.core:Base.run"
        ]
        # Dotted module alias call.
        assert "flow_project.util:shared_constant" in edges[
            "flow_project.core:Base.helper"
        ]

    def test_each_call_site_resolved_once_per_lint_run(self, monkeypatch):
        resolved = Counter()
        resolve_call = CallResolver.resolve_call

        def counting(self, fn, func, types):
            resolved[id(fn)] += 1
            return resolve_call(self, fn, func, types)

        monkeypatch.setattr(CallResolver, "resolve_call", counting)
        report = Linter(root=str(FIXTURE_DIR)).lint_paths(
            [str(FIXTURE_DIR / "flow_project")]
        )
        assert report.files_checked == 3
        assert resolved and max(resolved.values()) == 1


class TestNoRoundCaps:
    """A fixed point is reached however many frames a flow crosses."""

    @pytest.mark.parametrize("depth", [3, 45])
    def test_deep_helper_chain_reports(self, tmp_path, depth):
        pkg = tmp_path / "chain"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        hops = ["import pickle", "", "import numpy as np", ""]
        for i in range(depth - 1):
            hops += ["", f"def h{i:03d}(seed):", f"    return h{i + 1:03d}(seed)"]
        hops += [
            "", f"def h{depth - 1:03d}(seed):",
            "    return np.random.default_rng(seed)",
            "", "def leak(seed):", "    return pickle.dumps(h000(seed))",
        ]
        (pkg / "hops.py").write_text("\n".join(hops) + "\n")
        report = Linter(root=str(tmp_path)).lint_paths([str(pkg)])
        assert [(f.rule_id, f.line) for f in report.findings] == [
            ("RK110", len(hops))
        ]


class TestOutputFormats:
    BAD = (
        "import numpy as np\n"
        "import pickle\n"
        "\n"
        "\n"
        "def leak(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return pickle.dumps(rng)\n"
    )

    def _write_bad(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        return bad

    def test_flow_layer_always_runs(self, tmp_path, monkeypatch):
        # No flag turns the flow layer off: RK110 reports and the
        # flow pass is timed on every run.
        monkeypatch.chdir(tmp_path)
        bad = self._write_bad(tmp_path)
        out = io.StringIO()
        code = run_lint(
            _parse_args([str(bad)]), stdout=out
        )
        assert code == 1
        assert "RK110" in out.getvalue()
        assert "flow pass" in out.getvalue()


class TestDocsSync:
    def test_readme_rule_catalog_matches_live_catalog(self):
        readme = (TESTS_DIR.parent / "README.md").read_text()
        begin = "<!-- rule-catalog:begin -->\n"
        end = "<!-- rule-catalog:end -->"
        assert begin in readme and end in readme
        table = readme.split(begin, 1)[1].split(end, 1)[0]
        assert table == render_rule_catalog_markdown(), (
            "README rule-catalog table is stale; regenerate it with "
            "repro.lint.render_rule_catalog_markdown()"
        )


class TestSuppressionAnchoring:
    def test_flow_finding_suppressed_at_sink_statement(self, tmp_path):
        pkg = tmp_path / "p"
        pkg.mkdir()
        (pkg / "mod.py").write_text(textwrap.dedent("""\
            import numpy as np
            import pickle


            def leak(seed):
                rng = np.random.default_rng(seed)
                return pickle.dumps(
                    rng,
                )  # lint: disable=RK110 -- fixture: checkpoint format v0
        """))
        report = Linter(root=str(tmp_path)).lint_paths([str(pkg)])
        assert report.findings == []

    def test_multiline_statement_anchor_via_source(self):
        source = textwrap.dedent("""\
            import random


            def pick(items):
                chosen = random.sample(
                    items,
                    2,
                )  # lint: disable=RK101 -- fixture: anchored
                return chosen
        """)
        assert Linter().lint_source(source, "mod.py") == []

    def test_decorator_anchor_via_source(self):
        source = textwrap.dedent("""\
            import random


            def deco(fn):
                return fn


            # lint: disable=RK101 -- fixture: anchored above decorator
            @deco
            def f(coin=random.random()):
                return coin
        """)
        assert Linter().lint_source(source, "mod.py") == []


class TestTaintEngineUnits:
    def _index_from(self, tmp_path, files):
        entries = []
        for rel, src in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(src)
            entries.append((str(path), rel, src, None))
        return ProjectIndex.build(entries)

    def test_kwarg_flow_reaches_sink(self, tmp_path):
        index = self._index_from(tmp_path, {
            "m.py": textwrap.dedent("""\
                import numpy as np
                import pickle


                def save(payload=None):
                    return pickle.dumps(payload)


                def leak(seed):
                    rng = np.random.default_rng(seed)
                    return save(payload=rng)
                """),
        })
        findings = run_flow_rules(index, FLOW_RULES)
        assert [(f.rule_id, f.line) for f in findings] == [("RK110", 6)]

    def test_sanitizer_clears_taint(self, tmp_path):
        index = self._index_from(tmp_path, {
            "m.py": textwrap.dedent("""\
                import numpy as np
                import pickle


                def leak(seed):
                    rng = np.random.default_rng(seed)
                    return pickle.dumps(rng.bit_generator.state)
                """),
        })
        assert run_flow_rules(index, FLOW_RULES) == []

    def test_container_append_taints_payload(self, tmp_path):
        index = self._index_from(tmp_path, {
            "m.py": textwrap.dedent("""\
                import numpy as np
                import pickle


                def leak(seed):
                    batch = []
                    batch.append(np.random.default_rng(seed))
                    return pickle.dumps(batch)
                """),
        })
        assert [(f.rule_id, f.line) for f in
                run_flow_rules(index, FLOW_RULES)] == [("RK110", 8)]
