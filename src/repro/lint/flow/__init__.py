"""``repro.lint.flow`` — whole-program dataflow analysis for the linter.

The syntactic rules in :mod:`repro.lint.rules_*` see one file at a
time, so a single helper-function hop of indirection defeats them:
``rng = make_rng(); pool.run(step, rng)`` is invisible to a per-call
check because the creation and the escape sit in different statements
(or different modules).  This subpackage closes that gap with a small,
stdlib-only interprocedural taint analysis:

1. :class:`~repro.lint.flow.index.ProjectIndex` lowers every module
   once, resolves import aliases project-wide (including relative
   imports and re-exports through ``__init__``), and records per-module
   symbol tables plus class hierarchies;
2. :mod:`~repro.lint.flow.callgraph` resolves every call site once —
   dotted names, ``self.method()`` through the engine/cluster class
   hierarchies, and locally-constructed instances — into graph edges;
3. :mod:`~repro.lint.flow.taint` runs a callee-first worklist over
   per-function summaries (which parameters reach which sinks, what
   the return value carries), so taint crosses any number of helper
   frames;
4. :mod:`~repro.lint.flow.specs` declares the four flow rules as
   source/sink/sanitizer data: **RK110** (RNG escape), **RK210**
   (wall-clock reads in simulated time), **RK106** (epoch-snapshot
   escape), **RK310** (spawn-payload purity).  Each is the only rule
   for its invariant: a same-statement case is a zero-hop flow.
"""

from repro.lint.flow.callgraph import CallResolver, build_call_graph
from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.specs import FLOW_RULES, FlowSpec
from repro.lint.flow.taint import TaintAnalysis, run_flow_rules

__all__ = [
    "FLOW_RULES",
    "CallResolver",
    "FlowSpec",
    "ProjectIndex",
    "TaintAnalysis",
    "build_call_graph",
    "run_flow_rules",
]
