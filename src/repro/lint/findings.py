"""Finding and severity types shared by every lint rule.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately a plain frozen dataclass — rules produce them, the engine
filters them (suppressions), and the CLI formats them — so the three
layers stay decoupled.  :func:`in_scope` is the one path-scope check
both rule layers use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """How bad a finding is.

    ``ERROR`` findings break determinism or distributed safety outright
    and always fail the lint run; ``WARNING`` findings are risky
    patterns that fail only under ``--strict``; ``INFO`` findings are
    hygiene notes (e.g. an unused suppression) reported but never
    fatal outside ``--strict``.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    rule_id:
        the ``RKxxx`` identifier of the rule that fired.
    path:
        the path of the offending file, as handed to the linter.
    line, column:
        1-based line and 0-based column of the offending node.
    message:
        human-readable description of what is wrong and how to fix it.
    severity:
        see :class:`Severity`.
    """

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.rule_id} [{self.severity.label}] {self.message}"
        )


def in_scope(
    rel_path: str, packages: tuple[str, ...], allow_paths: tuple[str, ...]
) -> bool:
    """Does a rule scoped to *packages*, minus *allow_paths*, cover a file?

    Both are runs of path components matched anywhere in the
    scan-relative path: ``"cluster"`` covers ``src/repro/cluster/x.py``,
    ``"cluster/engine.py"`` names one file and ``"graph"`` a whole
    package.  No *packages* means every file.
    """
    padded = f"/{rel_path}/"

    def matches(pattern: str) -> bool:
        return f"/{pattern}/" in padded

    if packages and not any(matches(p) for p in packages):
        return False
    return not any(matches(a) for a in allow_paths)
