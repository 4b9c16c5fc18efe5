"""Finding and severity types shared by every lint rule.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately a plain frozen dataclass — rules produce them, the engine
filters them (suppressions, baseline), and the CLI formats them — so
the three layers stay decoupled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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
    baselined:
        set by the engine when a checked-in baseline entry absorbs this
        finding; baselined findings are reported but never fatal.
    """

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity = Severity.ERROR
    baselined: bool = field(default=False, compare=False)

    def format(self) -> str:
        tag = " [baselined]" if self.baselined else ""
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.rule_id} [{self.severity.label}]{tag} {self.message}"
        )
