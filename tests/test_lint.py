"""Tests for the :mod:`repro.lint` static analyzer.

Fixture files under ``tests/lint_fixtures/`` carry their expectations
inline: a trailing ``# expect: RKxxx`` comment on a line declares
exactly the findings that must fire there, and the parametrized test
asserts *set equality* — so every unmarked line in a fixture is a
negative test at the same time.
"""

import argparse
import io
import re
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import (
    DEFAULT_RULES,
    FLOW_RULES,
    Linter,
    LintReport,
    Severity,
    rule_catalog,
)
from repro.lint.cli import add_lint_arguments, run_lint

TESTS_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = TESTS_DIR / "lint_fixtures"
REPO_ROOT = TESTS_DIR.parent
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))

_PATH_HEADER = re.compile(r"#\s*lint-fixture-path:\s*(\S+)")
_EXPECT = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+?)\s*$")

# Deliberately bad sources used by the unit tests below (kept as
# strings so the linter never sees them as real code).
BAD_RNG = (
    "import random\n"
    "\n"
    "\n"
    "def draw(items):\n"
    "    first = random.choice(items)\n"
    "    second = random.random()\n"
    "    return first, second\n"
)
WARN_ONLY = (
    "def spread(a, b):\n"
    "    return [x for x in {a, b}]\n"
)


def _load_fixture(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    rel_path = f"tests/lint_fixtures/{path.name}"
    if lines:
        header = _PATH_HEADER.search(lines[0])
        if header:
            rel_path = header.group(1)
    expected = set()
    for lineno, line in enumerate(lines, start=1):
        match = _EXPECT.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                rule_id = rule_id.strip()
                if rule_id:
                    expected.add((lineno, rule_id))
    return source, rel_path, expected


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


class TestFixtures:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_findings_match_expectations(self, fixture):
        source, rel_path, expected = _load_fixture(fixture)
        findings = Linter().lint_source(source, str(fixture), rel_path=rel_path)
        actual = {(f.line, f.rule_id) for f in findings}
        assert actual == expected

    def test_every_rule_has_a_positive_fixture(self):
        covered = set()
        for fixture in FIXTURES:
            _, _, expected = _load_fixture(fixture)
            covered |= {rule_id for _, rule_id in expected}
        # RK210 and RK310 absorbed the old syntactic clock and pickling
        # rules; their zero-hop cases stay in single-file fixtures.
        all_ids = {rule.rule_id for rule in DEFAULT_RULES} | {
            "RK001",
            "RK210",
            "RK310",
        }
        assert covered == all_ids

    def test_clean_fixtures_exist_per_rule_group(self):
        # Fixtures with an empty expectation set assert zero findings
        # over code that exercises the rule's subject matter — the
        # negative half of the contract.  The flow rules' negatives
        # live beside their positives in the flow_* packages.
        clean = [p.stem for p in FIXTURES if not _load_fixture(p)[2]]
        assert {
            "rng_clean",
            "obs_clock_clean",
            "obs_clock_clean_outside",
            "retry_clean",
            "generic_clean",
        } <= set(clean)


class TestSuppressions:
    def test_inline_disable_absorbs_finding(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f(xs):\n"
            "    return random.choice(xs)"
            "  # lint: disable=RK101 -- sanctioned test hook\n"
        )
        assert Linter().lint_source(source, "mod.py") == []

    def test_stale_disable_reports_rk001(self):
        source = "def f():\n    return 1  # lint: disable=RK101 -- stale\n"
        findings = Linter().lint_source(source, "mod.py")
        assert [(f.rule_id, f.line, f.severity) for f in findings] == [
            ("RK001", 2, Severity.INFO)
        ]

    def test_unknown_rule_in_disable_raises(self):
        source = "x = 1  # lint: disable=RK999 -- no such rule\n"
        with pytest.raises(LintError, match="unknown rule"):
            Linter().lint_source(source, "mod.py")

    def test_malformed_disable_raises(self):
        source = "x = 1  # lint: disable=\n"
        with pytest.raises(LintError, match="malformed suppression"):
            Linter().lint_source(source, "mod.py")

    @pytest.mark.parametrize("comment", [
        "# lint: disable=RK101",
        "# lint: disable=RK101 --",
        "# lint: disable=RK101 --   ",
    ])
    def test_disable_without_reason_raises(self, comment):
        # The inline comment is the only exemption, so it must say why.
        source = f"import random\nX = random.random()  {comment}\n"
        with pytest.raises(LintError, match="malformed suppression"):
            Linter().lint_source(source, "mod.py")

    def test_disable_inside_string_is_inert(self):
        # Only real COMMENT tokens register; docs quoting the syntax
        # must neither suppress nor crash on unknown ids.
        source = 'DOC = "# lint: disable=RK999"\n'
        assert Linter().lint_source(source, "mod.py") == []

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            Linter().lint_source("def f(:\n", "mod.py")


class TestReportPolicy:
    def test_errors_block_without_strict(self):
        findings = Linter().lint_source(BAD_RNG, "mod.py")
        report = LintReport(findings=findings, files_checked=1)
        assert report.exit_code() == 1

    def test_warnings_block_only_in_strict(self):
        findings = Linter().lint_source(WARN_ONLY, "mod.py")
        assert {f.severity for f in findings} == {Severity.WARNING}
        report = LintReport(findings=findings, files_checked=1)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_rule_catalog_lists_every_rule(self):
        ids = {row[0] for row in rule_catalog()}
        expected = (
            {rule.rule_id for rule in DEFAULT_RULES}
            | {spec.rule_id for spec in FLOW_RULES}
            | {"RK001"}
        )
        assert ids == expected


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("def f(x):\n    return x\n")
        assert run_lint(_parse_args([str(good)]), stdout=io.StringIO()) == 0

    def test_findings_exit_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_RNG)
        out = io.StringIO()
        code = run_lint(_parse_args([str(bad)]), stdout=out)
        assert code == 1
        assert "RK101" in out.getvalue()
        assert "FAILED" in out.getvalue()

    def test_infrastructure_errors_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        code = run_lint(_parse_args([str(tmp_path / "nope.txt")]), stdout=out)
        assert code == 2
        assert "lint error" in out.getvalue()

        broken = tmp_path / "broken.py"
        broken.write_text("x = 1  # lint: disable=RK999 -- nope\n")
        assert run_lint(_parse_args([str(broken)]), stdout=io.StringIO()) == 2

        reasonless = tmp_path / "reasonless.py"
        reasonless.write_text(
            "import random\nX = random.random()  # lint: disable=RK101\n"
        )
        out = io.StringIO()
        assert run_lint(_parse_args([str(reasonless)]), stdout=out) == 2
        assert "malformed suppression" in out.getvalue()

    def test_rules_listing(self):
        out = io.StringIO()
        assert run_lint(_parse_args(["--rules"]), stdout=out) == 0
        listing = out.getvalue()
        for rule in DEFAULT_RULES:
            assert rule.rule_id in listing


class TestSelfCheck:
    """The analyzer must hold its own codebase to its own standard."""

    def test_src_repro_is_clean(self):
        linter = Linter(root=str(REPO_ROOT))
        report = linter.lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert report.files_checked > 50
        assert report.blocking(strict=True) == []

    def test_tests_and_examples_are_clean(self):
        linter = Linter(root=str(REPO_ROOT), exclude=(str(FIXTURE_DIR),))
        paths = [str(TESTS_DIR)]
        for extra in ("examples", "benchmarks"):
            if (REPO_ROOT / extra).is_dir():
                paths.append(str(REPO_ROOT / extra))
        report = linter.lint_paths(paths)
        assert report.blocking(strict=True) == []
