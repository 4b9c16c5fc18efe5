"""Set-iteration order rule (RK403).

Iterating a ``set``/``frozenset`` whose order feeds downstream
behaviour is nondeterministic across processes: string hashing is
salted per process (``PYTHONHASHSEED``), so set order differs
run-to-run — fatal when it decides message dispatch or serialisation
order.  Sort first.  (Mutable default arguments and bare ``except:``
are ruff's ``B006`` and ``E722``.)
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.rules import Rule

__all__ = ["SetIterationRule"]


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetIterationRule(Rule):
    """RK403: no direct iteration over a syntactic set."""

    rule_id = "RK403"
    severity = Severity.WARNING
    description = (
        "iteration order over a set is salted per process "
        "(PYTHONHASHSEED); wrap in sorted() before the order can feed "
        "dispatch or serialisation"
    )

    def _check_iterable(self, node: ast.AST) -> None:
        if _is_set_expression(node):
            self.report(
                node,
                "iterating a set directly; order differs between "
                "processes — use sorted(...) to pin it",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)
