"""Retry-loop backoff hygiene rule (RK204).

The straggler-tolerance work replaced the cluster's fixed retransmit
interval with adaptive per-link timers (Jacobson/Karels RTO) plus
exponentially backed-off, deterministically *jittered* waits
(:meth:`repro.cluster.network.LinkTimers.backoff_wait`).  A fixed-delay
retry loop — ``while not ok: time.sleep(0.1)`` — reintroduces exactly
the failure mode that change removed: every peer retries in lockstep,
so a congested link sees synchronized retry storms, and the wait never
adapts to the link actually being slow rather than lossy.

The rule fires on ``time.sleep`` / ``asyncio.sleep`` calls that sit
inside a loop in a distributed-execution package (``cluster``/
``service`` path components) whose wait argument carries no jitter
source: a constant, a plain variable, or pure arithmetic such as
``base * 2 ** attempt`` all count as unjittered.  Any randomness in the
argument — an RNG call, or a name/call mentioning jitter or a hashed
unit — clears it, as does sleeping outside a loop (a one-shot pause is
not a retry loop).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.rules import Rule

__all__ = ["FixedRetryBackoffRule", "RETRY_SCOPED_PACKAGES"]

# Packages where retry loops talk to (simulated or real) peers and
# synchronized retries are harmful.  Matched as path components of the
# file's scan-relative path, like RK210's simulated-time region.
RETRY_SCOPED_PACKAGES = ("cluster", "service")

_SLEEP_CALLS = frozenset({"time.sleep", "asyncio.sleep"})

# Canonical dotted-name prefixes whose calls inject randomness into a
# wait expression.
_JITTER_CALL_PREFIXES = (
    "random.",
    "numpy.random.",
    "secrets.",
)

# Identifier substrings that mark a value as deliberately jittered.
_JITTER_NAME_HINTS = ("jitter", "rng", "random", "hash_unit", "backoff_wait")


class FixedRetryBackoffRule(Rule):
    """RK204: no fixed-delay or unjittered-backoff sleeps in retry loops."""

    rule_id = "RK204"
    severity = Severity.ERROR
    description = (
        "fixed-delay or unjittered-backoff sleep inside a retry loop in a "
        "distributed package; derive waits from adaptive timers with "
        "deterministic jitter (LinkTimers.backoff_wait) so peers do not "
        "retry in lockstep"
    )
    packages = RETRY_SCOPED_PACKAGES

    def __init__(self, context) -> None:
        super().__init__(context)
        self._loop_depth = 0

    # -- loop tracking -------------------------------------------------
    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop
    visit_AsyncFor = _visit_loop

    # -- the check -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = self.context.resolve_call(node)
        if name in _SLEEP_CALLS and self._loop_depth > 0:
            wait = node.args[0] if node.args else None
            if wait is None or not self._has_jitter(wait):
                kind = (
                    "constant-delay"
                    if wait is None or isinstance(wait, ast.Constant)
                    else "unjittered-backoff"
                )
                self.report(
                    node,
                    f"{name}() with a {kind} wait inside a loop retries in "
                    "lockstep with every other peer; add deterministic "
                    "jitter or use an adaptive timer "
                    "(LinkTimers.backoff_wait)",
                )
        self.generic_visit(node)

    def _has_jitter(self, expr: ast.AST) -> bool:
        """True if any subexpression injects (seeded) randomness."""
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                name = self.context.resolve(sub.func)
                if name is not None:
                    if name.startswith(_JITTER_CALL_PREFIXES):
                        return True
                    if self._hinted(name):
                        return True
                # Method calls on dynamic receivers (`rng.random()`,
                # `self._rng.uniform(...)`) resolve to None; inspect
                # the attribute chain's identifiers directly.
                if self._hinted(self._identifiers(sub.func)):
                    return True
            elif isinstance(sub, (ast.Name, ast.Attribute)):
                if self._hinted(self._identifiers(sub)):
                    return True
        return False

    @staticmethod
    def _identifiers(node: ast.AST) -> str:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))

    @staticmethod
    def _hinted(name: str) -> bool:
        lowered = name.lower()
        return any(hint in lowered for hint in _JITTER_NAME_HINTS)
