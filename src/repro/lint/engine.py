"""The lint driver: file discovery, suppressions, baseline, reporting.

:class:`Linter` runs two analysis layers and post-processes their raw
findings through shared filters:

1. the **syntactic rules** — every registered :class:`Rule` visits
   every file independently (RK101…RK403);
2. the **flow rules** — :mod:`repro.lint.flow` builds a
   :class:`~repro.lint.flow.index.ProjectIndex` over *all* scanned
   files and runs the interprocedural taint engine (RK106/RK110/
   RK210/RK310), so indirection through helper calls, class
   hierarchies, and other modules cannot hide a violation.  Extracted
   module summaries are cached on content hashes
   (:class:`~repro.lint.flow.cache.FlowCache`), keeping warm runs fast.

Post-processing applies, in order: inline suppressions
(``# lint: disable=RK101,RK201 -- reason`` — anchored to the whole
*logical* statement, so a trailing comment on a continuation line or a
comment above a decorated function attaches correctly; an unused
suppression is itself reported as ``RK001``); the checked-in
:class:`~repro.lint.baseline.Baseline`, which marks grandfathered
findings non-fatal without hiding them and reports entries that no
longer match anything as ``RK002`` (baseline drift).

The result is a :class:`LintReport` whose :meth:`LintReport.exit_code`
encodes the CI contract: non-zero iff a non-baselined finding blocks at
the requested strictness.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import LintError
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding, Severity
from repro.lint.flow.cache import FlowCache, content_hash
from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.ir import extract_module, module_name_for
from repro.lint.flow.specs import FLOW_RULES, FlowSpec
from repro.lint.flow.taint import run_flow_rules
from repro.lint.rules import FileContext, Rule
from repro.lint.rules_generic import (
    BareExceptRule,
    MutableDefaultRule,
    SetIterationRule,
)
from repro.lint.rules_csr import CsrMutationRule
from repro.lint.rules_obs import SimClockTracerRule
from repro.lint.rules_process import NonModuleCallableRule, UnpicklablePayloadRule
from repro.lint.rules_retry import FixedRetryBackoffRule
from repro.lint.rules_rng import (
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    UnseededGeneratorRule,
)
from repro.lint.rules_time import WallClockRule

__all__ = ["Linter", "LintReport", "DEFAULT_RULES", "rule_catalog"]

DEFAULT_RULES: tuple[type[Rule], ...] = (
    StdlibRandomRule,
    UnseededGeneratorRule,
    LegacyNumpyRandomRule,
    WallClockRule,
    SimClockTracerRule,
    CsrMutationRule,
    FixedRetryBackoffRule,
    NonModuleCallableRule,
    UnpicklablePayloadRule,
    MutableDefaultRule,
    BareExceptRule,
    SetIterationRule,
)

# RK001/RK002 are meta-findings that fall out of suppression and
# baseline bookkeeping rather than an analysis pass.
_UNUSED_SUPPRESSION_ID = "RK001"
_STALE_BASELINE_ID = "RK002"

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*--\s*(.*))?\s*$"
)

# Statements whose multi-line span forms one suppression anchor group:
# a disable comment on any physical line of the statement attaches to
# findings anywhere in the statement.  Compound statements (def/for/
# if/...) are excluded — their span covers a whole body, which would
# over-suppress.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue,
)


def rule_catalog(
    rules: tuple[type[Rule], ...] = DEFAULT_RULES,
    flow_rules: tuple[FlowSpec, ...] = FLOW_RULES,
) -> list[tuple[str, str, str]]:
    """(id, severity, description) rows, for ``repro lint --rules``."""
    rows = [(r.rule_id, r.severity.label, r.description) for r in rules]
    rows.extend(
        (spec.rule_id, spec.severity.label, spec.description)
        for spec in flow_rules
    )
    rows.append(
        (
            _UNUSED_SUPPRESSION_ID,
            Severity.INFO.label,
            "suppression comment that suppresses nothing (stale disable)",
        )
    )
    rows.append(
        (
            _STALE_BASELINE_ID,
            Severity.INFO.label,
            "baseline entry that no longer matches any finding (drift); "
            "run --update-baseline",
        )
    )
    return sorted(rows)


def render_rule_catalog_markdown(
    rules: tuple[type[Rule], ...] = DEFAULT_RULES,
    flow_rules: tuple[FlowSpec, ...] = FLOW_RULES,
) -> str:
    """The rule catalog as a GitHub-flavoured markdown table.

    The README embeds this output between ``rule-catalog`` markers and
    a test asserts the two stay in sync, so the published table can
    never drift from the live catalog.
    """
    lines = ["| ID | Severity | Contract |", "|----|----------|----------|"]
    for rule_id, severity, description in rule_catalog(rules, flow_rules):
        lines.append(f"| {rule_id} | {severity} | {description} |")
    return "\n".join(lines) + "\n"


@dataclass
class LintReport:
    """Findings of one lint run plus the exit-code policy."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    flow_seconds: float | None = None
    flow_cache_hits: int = 0
    flow_cache_misses: int = 0

    def blocking(self, strict: bool = False) -> list[Finding]:
        """Findings that should fail the run.

        Non-baselined ``ERROR`` findings always block; ``--strict``
        additionally blocks warnings and infos (CI mode: nothing new
        gets in at any severity).
        """
        floor = Severity.INFO if strict else Severity.ERROR
        return [
            f
            for f in self.findings
            if not f.baselined and f.severity >= floor
        ]

    def exit_code(self, strict: bool = False) -> int:
        return 1 if self.blocking(strict) else 0

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        baselined = sum(1 for f in self.findings if f.baselined)
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s), {baselined} baselined"
        )
        if self.flow_seconds is not None:
            summary += (
                f"; flow pass {self.flow_seconds:.2f}s "
                f"({self.flow_cache_hits} cached / "
                f"{self.flow_cache_misses} extracted)"
            )
        lines.append(summary)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "flow_seconds": self.flow_seconds,
            "flow_cache": {
                "hits": self.flow_cache_hits,
                "misses": self.flow_cache_misses,
            },
            "findings": [
                {
                    "rule_id": f.rule_id,
                    "path": f.path,
                    "line": f.line,
                    "column": f.column + 1,
                    "severity": f.severity.label,
                    "message": f.message,
                    "baselined": f.baselined,
                }
                for f in self.findings
            ],
        }

    def to_sarif_obj(self) -> dict:
        """Minimal SARIF 2.1.0 document (CI artifact / code-scanning)."""
        levels = {
            Severity.ERROR: "error",
            Severity.WARNING: "warning",
            Severity.INFO: "note",
        }
        rules = [
            {
                "id": rule_id,
                "shortDescription": {"text": description},
                "defaultConfiguration": {
                    "level": {"error": "error", "warning": "warning",
                              "info": "note"}[severity],
                },
            }
            for rule_id, severity, description in rule_catalog()
        ]
        results = [
            {
                "ruleId": f.rule_id,
                "level": levels[f.severity],
                "message": {"text": f.message},
                "suppressions": (
                    [{"kind": "external", "justification": "lint baseline"}]
                    if f.baselined
                    else []
                ),
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.column + 1,
                            },
                        }
                    }
                ],
            }
            for f in self.findings
        ]
        return {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": (
                                "https://example.invalid/repro-lint"
                            ),
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }


class Linter:
    """Run both rule layers over files, apply suppressions and baseline."""

    def __init__(
        self,
        rules: tuple[type[Rule], ...] = DEFAULT_RULES,
        baseline: Baseline | None = None,
        root: str | None = None,
        exclude: tuple[str, ...] = (),
        flow: bool = True,
        flow_rules: tuple[FlowSpec, ...] = FLOW_RULES,
        cache_path: str | None = None,
        changed_only: bool = False,
    ) -> None:
        self.rules = rules
        self.baseline = baseline
        self.root = Path(root) if root is not None else None
        self.exclude = tuple(Path(e).resolve() for e in exclude)
        self.flow = flow
        self.flow_rules = flow_rules
        self.cache_path = cache_path
        self.changed_only = changed_only
        known = {rule.rule_id for rule in rules}
        known.update(spec.rule_id for spec in flow_rules)
        known.add(_UNUSED_SUPPRESSION_ID)
        known.add(_STALE_BASELINE_ID)
        self._known_ids = known

    # ------------------------------------------------------------------
    def lint_paths(self, paths: list[str]) -> LintReport:
        report = LintReport()
        files = self._discover(paths)
        contexts: list[FileContext] = []
        raw: dict[str, list[Finding]] = {}
        for path in files:
            context = self._parse_file(str(path))
            contexts.append(context)
            raw[context.path] = self._run_syntactic(context)
            report.files_checked += 1

        changed_paths: set[str] | None = None
        if self.flow and self.flow_rules:
            flow_findings, changed_paths = self._run_flow(contexts, report)
            for finding in flow_findings:
                raw.setdefault(finding.path, []).append(finding)

        findings: list[Finding] = []
        for context in contexts:
            findings.extend(
                self._apply_suppressions(
                    context.source, context.path, raw.get(context.path, []),
                    tree=context.tree,
                )
            )

        if self.baseline is not None:
            findings = self.baseline.apply(findings)
            findings.extend(self._baseline_drift(findings, files))
        if self.changed_only and changed_paths is not None:
            findings = [
                f
                for f in findings
                if f.path in changed_paths or f.rule_id == _STALE_BASELINE_ID
            ]
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule_id))
        report.findings = findings
        return report

    def _discover(self, paths: list[str]) -> list[Path]:
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(
                    p for p in sorted(path.rglob("*.py"))
                    if not self._excluded(p)
                )
            elif path.suffix == ".py":
                if not self._excluded(path):
                    files.append(path)
            else:
                raise LintError(f"not a Python file or directory: {raw!r}")
        return files

    def _excluded(self, path: Path) -> bool:
        resolved = path.resolve()
        return any(
            resolved == ex or ex in resolved.parents for ex in self.exclude
        )

    def _rel_path(self, path: str) -> str:
        candidate = Path(path)
        if self.root is not None:
            try:
                candidate = candidate.resolve().relative_to(self.root.resolve())
            except ValueError:
                pass
        return candidate.as_posix()

    # ------------------------------------------------------------------
    def _parse_file(self, path: str) -> FileContext:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"unreadable source file {path!r}: {exc}") from exc
        return self._parse_source(source, path, rel_path=self._rel_path(path))

    def _parse_source(
        self, source: str, path: str, rel_path: str | None = None
    ) -> FileContext:
        try:
            return FileContext.parse(
                path, rel_path if rel_path is not None else path, source
            )
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path!r}: {exc}") from exc

    def _run_syntactic(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for rule_class in self.rules:
            findings.extend(rule_class(context).run())
        return findings

    # ------------------------------------------------------------------
    def _run_flow(
        self, contexts: list[FileContext], report: LintReport
    ) -> tuple[list[Finding], set[str]]:
        """Whole-program pass; returns (findings, changed file paths)."""
        start = time.perf_counter()
        cache = (
            FlowCache.load(self.cache_path)
            if self.cache_path is not None
            else FlowCache()
        )
        cached_summaries: dict[str, dict] = {}
        changed: set[str] = set()
        for context in contexts:
            digest = content_hash(context.source)
            if cache.previous_hash(context.path) != digest:
                changed.add(context.path)
            summary = cache.get_summary(context.path, digest)
            if summary is not None and summary.get("rel_path") == context.rel_path:
                cached_summaries[context.path] = summary
            else:
                module, is_package = module_name_for(context.path)
                summary = extract_module(
                    context.tree, module, context.rel_path, context.path,
                    is_package,
                )
                cache.put_summary(context.path, digest, summary)
        index = ProjectIndex.build(
            [
                (ctx.path, ctx.rel_path, ctx.source, ctx.tree)
                for ctx in contexts
            ],
            cached={
                path: cache.entries[path]["summary"]
                for path in cache.entries
                if path in {ctx.path for ctx in contexts}
            },
        )
        findings = run_flow_rules(index, self.flow_rules)
        cache.prune({ctx.path for ctx in contexts})
        cache.save()
        report.flow_seconds = time.perf_counter() - start
        report.flow_cache_hits = cache.hits
        report.flow_cache_misses = cache.misses
        return findings, changed

    # ------------------------------------------------------------------
    def _baseline_drift(
        self, findings: list[Finding], files: list[Path]
    ) -> list[Finding]:
        """RK002 meta-findings for baseline entries that absorb nothing."""
        assert self.baseline is not None
        scanned = {Baseline._normalise(str(p)) for p in files}
        drift: list[Finding] = []
        for path, rule_id, leftover in self.baseline.stale_entries(
            findings, scanned
        ):
            drift.append(
                Finding(
                    rule_id=_STALE_BASELINE_ID,
                    path=path,
                    line=1,
                    column=0,
                    message=(
                        f"baseline allows {leftover} more {rule_id} "
                        "finding(s) here than the code still produces; "
                        "run `repro lint --update-baseline` so fixed "
                        "debt cannot silently return"
                    ),
                    severity=Severity.INFO,
                )
            )
        return drift

    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: str, rel_path: str | None = None
    ) -> list[Finding]:
        """Lint one source string with the syntactic layer only.

        Tests use this with virtual paths; the flow layer needs real
        project context and runs from :meth:`lint_paths`.
        """
        context = self._parse_source(source, path, rel_path=rel_path)
        return self._apply_suppressions(
            source, path, self._run_syntactic(context), tree=context.tree
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _line_groups(tree: ast.AST) -> dict[int, set[int]]:
        """Physical line → other lines of the same suppression anchor.

        Two cases widen a suppression's reach beyond its own line:
        every line of a multi-line *simple* statement anchors the whole
        statement (a trailing disable on the closing-paren line catches
        a finding reported at the statement head, and vice versa), and
        the decorator block of a decorated ``def``/``class`` — plus the
        line directly above it — anchors the definition line.
        """
        groups: dict[int, set[int]] = {}
        for node in ast.walk(tree):
            if isinstance(node, _SIMPLE_STMTS):
                end = getattr(node, "end_lineno", None) or node.lineno
                if end > node.lineno:
                    span = set(range(node.lineno, end + 1))
                    for line in span:
                        groups.setdefault(line, set()).update(span)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if node.decorator_list:
                    first = min(d.lineno for d in node.decorator_list)
                    for line in range(first - 1, node.lineno):
                        groups.setdefault(line, set()).add(node.lineno)
        return groups

    def _apply_suppressions(
        self,
        source: str,
        path: str,
        findings: list[Finding],
        tree: ast.AST | None = None,
    ) -> list[Finding]:
        suppressions = self._parse_suppressions(source, path)
        if not suppressions:
            return findings
        groups = (
            self._line_groups(tree)
            if tree is not None
            else {}
        )
        # line covered -> [(anchor line, ids)] for every suppression
        cover: dict[int, list[tuple[int, tuple[str, ...]]]] = {}
        for line, ids in suppressions.items():
            covered = {line} | groups.get(line, set())
            for target in covered:
                cover.setdefault(target, []).append((line, ids))
        used: set[tuple[int, str]] = set()
        kept: list[Finding] = []
        for finding in findings:
            absorbed = False
            for anchor, ids in cover.get(finding.line, ()):
                if finding.rule_id in ids:
                    used.add((anchor, finding.rule_id))
                    absorbed = True
                    break
            if not absorbed:
                kept.append(finding)
        for line, ids in suppressions.items():
            for rule_id in ids:
                if (line, rule_id) not in used:
                    kept.append(
                        Finding(
                            rule_id=_UNUSED_SUPPRESSION_ID,
                            path=path,
                            line=line,
                            column=0,
                            message=(
                                f"suppression of {rule_id} matches no "
                                "finding on this statement; remove the "
                                "stale disable comment"
                            ),
                            severity=Severity.INFO,
                        )
                    )
        return kept

    def _parse_suppressions(
        self, source: str, path: str
    ) -> dict[int, tuple[str, ...]]:
        # Real COMMENT tokens only: a '# lint: disable' inside a string
        # (docstring examples, generated text) must not register.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except tokenize.TokenError as exc:  # pragma: no cover - parse ok'd above
            raise LintError(f"cannot tokenize {path!r}: {exc}") from exc
        suppressions: dict[int, tuple[str, ...]] = {}
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            lineno, line = token.start[0], token.string
            match = _SUPPRESS_RE.search(line)
            if match is None:
                if re.search(r"lint:\s*disable=", line):
                    raise LintError(
                        f"{path}:{lineno}: malformed suppression comment; "
                        "expected '# lint: disable=RKxxx[,RKyyy] -- reason'"
                    )
                continue
            ids = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            unknown = [i for i in ids if i not in self._known_ids]
            if unknown:
                raise LintError(
                    f"{path}:{lineno}: suppression names unknown rule(s) "
                    f"{', '.join(unknown)}"
                )
            suppressions[lineno] = ids
        return suppressions
