"""Rule plumbing: the per-file analysis context and the rule base class.

Every rule is an :class:`ast.NodeVisitor` subclass with a stable id
(``RK101`` …), a severity, a one-line description and an optional path
scope.  The engine instantiates each rule once per file with a
:class:`FileContext` and collects whatever the rule reports via
:meth:`Rule.report`.

The context pre-resolves import aliases — with the flow layer's
:func:`~repro.lint.flow.ir.collect_aliases`, so both layers read one
import table — and rules match *canonical* dotted names instead of
guessing at surface syntax: ``np.random.seed``, ``numpy.random.seed``
and ``from numpy import random as r; r.seed`` all resolve to
``numpy.random.seed``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.findings import Finding, Severity, in_scope
from repro.lint.flow.ir import collect_aliases, module_name_for

__all__ = ["FileContext", "Rule", "resolve_dotted"]


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a ``Name``/``Attribute`` chain.

    Returns ``None`` for anything dynamic (subscripts, call results).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule may need to know about the file under analysis.

    ``rel_path`` uses ``/`` separators and is relative to the scan root
    (so path-scoped rules match it against package-relative components
    such as ``cluster/engine.py``).
    """

    path: str
    rel_path: str
    source: str
    tree: ast.AST
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, rel_path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        module, is_package = module_name_for(path)
        return cls(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            aliases=collect_aliases(tree, module, is_package),
        )

    def resolve(self, node: ast.AST) -> str | None:
        return resolve_dotted(node, self.aliases)

    def resolve_call(self, call: ast.Call) -> str | None:
        """Canonical dotted name of a call's target, or ``None``."""
        return self.resolve(call.func)


class Rule(ast.NodeVisitor):
    """Base class for one pluggable lint rule.

    Subclasses set the class attributes and implement ``visit_*``
    methods, calling :meth:`report` for every violation.  A fresh rule
    instance is created per file, so instance state (scope stacks etc.)
    never leaks across files.  ``packages`` / ``allow_paths`` scope the
    rule the way :class:`~repro.lint.flow.specs.FlowSpec` scopes a flow
    rule (see :func:`~repro.lint.findings.in_scope`).
    """

    rule_id: str = "RK000"
    severity: Severity = Severity.ERROR
    description: str = ""
    packages: tuple[str, ...] = ()
    allow_paths: tuple[str, ...] = ()

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        if in_scope(self.context.rel_path, self.packages, self.allow_paths):
            self.visit(self.context.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule_id=self.rule_id,
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                message=message,
                severity=self.severity,
            )
        )
