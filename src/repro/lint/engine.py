"""The lint driver: file discovery, both rule layers, suppressions.

:class:`Linter` runs two analysis layers over the same parsed files
and post-processes their raw findings through one filter:

1. the **syntactic rules** — every registered :class:`Rule` visits
   every file in its path scope independently (RK101…RK403);
2. the **flow rules** — :mod:`repro.lint.flow` builds a
   :class:`~repro.lint.flow.index.ProjectIndex` over *all* scanned
   files and runs the interprocedural taint engine (RK106/RK110/
   RK210/RK310), so indirection through helper calls, class
   hierarchies, and other modules cannot hide a violation.

Each invariant is one rule in one of the two layers, and both always
run.  The only exemption is an inline suppression
(``# lint: disable=RK101,RK210 -- reason``, the reason mandatory) —
anchored to the whole *logical* statement, so a trailing comment on a
continuation line or a comment above a decorated function attaches
correctly; an unused suppression is itself reported as ``RK001``.

The result is a :class:`LintReport` whose :meth:`LintReport.exit_code`
encodes the CI contract: non-zero iff a finding blocks at the
requested strictness.
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
from repro.lint.findings import Finding, Severity
from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.specs import FLOW_RULES, FlowSpec
from repro.lint.flow.taint import run_flow_rules
from repro.lint.rules import FileContext, Rule
from repro.lint.rules_csr import CsrMutationRule
from repro.lint.rules_generic import SetIterationRule
from repro.lint.rules_obs import SimClockTracerRule
from repro.lint.rules_retry import FixedRetryBackoffRule
from repro.lint.rules_rng import (
    LegacyNumpyRandomRule,
    StdlibRandomRule,
    UnseededGeneratorRule,
)

__all__ = ["Linter", "LintReport", "DEFAULT_RULES", "rule_catalog"]

DEFAULT_RULES: tuple[type[Rule], ...] = (
    StdlibRandomRule,
    UnseededGeneratorRule,
    LegacyNumpyRandomRule,
    SimClockTracerRule,
    CsrMutationRule,
    FixedRetryBackoffRule,
    SetIterationRule,
)

# RK001 is a meta-finding of suppression bookkeeping, not an analysis.
_UNUSED_SUPPRESSION_ID = "RK001"

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*--\s*(\S.*)$"
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
    flow_seconds: float = 0.0

    def blocking(self, strict: bool = False) -> list[Finding]:
        """Findings that should fail the run.

        ``ERROR`` findings always block; ``--strict`` additionally
        blocks warnings and infos (CI mode: nothing new gets in at any
        severity).
        """
        floor = Severity.INFO if strict else Severity.ERROR
        return [f for f in self.findings if f.severity >= floor]

    def exit_code(self, strict: bool = False) -> int:
        return 1 if self.blocking(strict) else 0

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s); flow pass {self.flow_seconds:.2f}s"
        )
        return "\n".join(lines)


class Linter:
    """Run both rule layers over files and apply suppressions."""

    def __init__(
        self,
        rules: tuple[type[Rule], ...] = DEFAULT_RULES,
        root: str | None = None,
        exclude: tuple[str, ...] = (),
        flow_rules: tuple[FlowSpec, ...] = FLOW_RULES,
    ) -> None:
        self.rules = rules
        self.root = Path(root) if root is not None else None
        self.exclude = tuple(Path(e).resolve() for e in exclude)
        self.flow_rules = flow_rules
        known = {rule.rule_id for rule in rules}
        known.update(spec.rule_id for spec in flow_rules)
        known.add(_UNUSED_SUPPRESSION_ID)
        self._known_ids = known

    # ------------------------------------------------------------------
    def lint_paths(self, paths: list[str]) -> LintReport:
        return self._lint(
            [self._parse_file(str(p)) for p in self._discover(paths)]
        )

    def lint_source(
        self, source: str, path: str, rel_path: str | None = None
    ) -> list[Finding]:
        """Lint one source string as a project of one file.

        Tests pass a virtual *rel_path*; the path-scoped rules of both
        layers match against it.
        """
        context = self._parse_source(
            source, path, rel_path if rel_path is not None else path
        )
        return self._lint([context]).findings

    def _lint(self, contexts: list[FileContext]) -> LintReport:
        raw: dict[str, list[Finding]] = {ctx.path: [] for ctx in contexts}
        for context in contexts:
            for rule_class in self.rules:
                raw[context.path].extend(rule_class(context).run())
        start = time.perf_counter()
        index = ProjectIndex.build(
            (ctx.path, ctx.rel_path, ctx.source, ctx.tree) for ctx in contexts
        )
        for finding in run_flow_rules(index, self.flow_rules):
            raw[finding.path].append(finding)
        report = LintReport(
            files_checked=len(contexts),
            flow_seconds=time.perf_counter() - start,
        )
        for context in contexts:
            report.findings.extend(
                self._apply_suppressions(context, raw[context.path])
            )
        report.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule_id))
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
        return self._parse_source(source, path, self._rel_path(path))

    @staticmethod
    def _parse_source(source: str, path: str, rel_path: str) -> FileContext:
        try:
            return FileContext.parse(path, rel_path, source)
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path!r}: {exc}") from exc

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
        self, context: FileContext, findings: list[Finding]
    ) -> list[Finding]:
        path = context.path
        suppressions = self._parse_suppressions(context.source, path)
        if not suppressions:
            return findings
        groups = self._line_groups(context.tree)
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
