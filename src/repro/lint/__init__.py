"""``repro.lint`` — determinism & distributed-safety static analysis.

A project-specific, stdlib-only (``ast``-driven) linter enforcing the
invariants this reproduction's correctness rests on, one rule per
invariant:

* **RNG discipline** (RK101-RK103) — every random draw comes from an
  explicitly seeded ``np.random.Generator``; no stdlib ``random``, no
  unseeded ``default_rng()`` / bit generator / ``SeedSequence()``, no
  legacy numpy global state.
* **Shared-state hygiene** (RK105, RK204, RK206, RK403) — no in-place
  CSR writes outside ``graph/``, no lockstep retry sleeps, no host-clock
  tracers in simulated time, no unsorted set iteration.
* **Whole-program flow rules** (RK106/RK110/RK210/RK310) — the
  interprocedural layer in :mod:`repro.lint.flow`: RNG escape across
  message/process boundaries, wall-clock reads in simulated-time code
  (direct or through helpers), epoch-snapshot views outliving their
  epoch, and unpicklable values reaching spawn call sites.

Mutable default arguments and bare ``except:`` are ruff's (``B006``,
``E722``).  The only exemption is an inline suppression with a reason
(``# lint: disable=RK101 -- reason``).

The *runtime* counterpart — the determinism sanitizer that records a
rolling hash of every RNG draw, message delivery, and walker
transition, and localises the first divergence between two runs —
lives in :mod:`repro.lint.sanitizer`.  It is not imported here because
it needs numpy and the engines; the static analyzer deliberately
imports neither.
"""

from repro.lint.engine import (
    DEFAULT_RULES,
    Linter,
    LintReport,
    render_rule_catalog_markdown,
    rule_catalog,
)
from repro.lint.findings import Finding, Severity
from repro.lint.flow import FLOW_RULES, FlowSpec, ProjectIndex
from repro.lint.rules import FileContext, Rule

__all__ = [
    "DEFAULT_RULES",
    "FLOW_RULES",
    "FileContext",
    "Finding",
    "FlowSpec",
    "LintReport",
    "Linter",
    "ProjectIndex",
    "Rule",
    "Severity",
    "render_rule_catalog_markdown",
    "rule_catalog",
]
