"""Observability clock-injection rule (RK206).

:class:`repro.obs.Tracer` defaults its clock to ``time.perf_counter``,
which is correct for host-side engine profiling and fatally wrong
inside the cluster simulator: a span timed off the host clock makes
the exported trace differ between a run and its checkpoint replay, and
quietly reintroduces the wall-clock dependence that RK210 keeps out of
simulated-time packages.

The rule therefore requires every tracer *constructed* inside a
simulated-time package to receive an explicit injected clock, and
rejects injected clocks that resolve back to the host clock anyway
(RK210's :data:`~repro.lint.flow.specs.WALL_CLOCK_CALLS`, which
includes :func:`repro.obs.tracer.default_clock`).  Code in those
packages that merely announces engine events never reads any clock
and is untouched — the subscriber declares the spans via
``record_span(ts=..., dur=...)`` from simulated seconds (see
:mod:`repro.obs.engine_spans`).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.flow.specs import SIMULATED_TIME_PACKAGES, WALL_CLOCK_CALLS
from repro.lint.rules import Rule

__all__ = ["SimClockTracerRule"]


def _is_tracer(name: str | None) -> bool:
    return name is not None and (
        name == "Tracer" or name.endswith(".Tracer")
    )


class SimClockTracerRule(Rule):
    """RK206: tracers in simulated-time packages need an injected clock."""

    rule_id = "RK206"
    severity = Severity.ERROR
    description = (
        "span/metric timing inside a simulated-time package must use an "
        "injected simulation clock: Tracer(...) without clock=, or "
        "clock= bound to time.* / default_clock, times spans off the "
        "host clock and breaks bit-identical trace replay"
    )
    packages = SIMULATED_TIME_PACKAGES

    def visit_Call(self, node: ast.Call) -> None:
        clock_kw = next(
            (kw for kw in node.keywords if kw.arg == "clock"), None
        )
        if clock_kw is not None:
            clock_name = self.context.resolve(clock_kw.value)
            if clock_name in WALL_CLOCK_CALLS:
                self.report(
                    clock_kw.value,
                    f"clock={clock_name} injects the host clock into a "
                    "simulated-time package; inject a clock derived from "
                    "the cost model's simulated seconds instead",
                )
        elif _is_tracer(self.context.resolve_call(node)):
            self.report(
                node,
                "Tracer() constructed inside a simulated-time package "
                "without an explicit clock= falls back to "
                "time.perf_counter; inject a simulated clock, or declare "
                "spans with record_span(ts=..., dur=...) and no clock "
                "at all",
            )
        self.generic_visit(node)
