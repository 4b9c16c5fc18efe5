"""CSR immutability rule (RK105).

The dynamic-graph subsystem's whole consistency model rests on one
invariant: a :class:`~repro.graph.csr.CSRGraph` is immutable once
built.  Epoch snapshots hand running walks direct references to the
CSR arrays (no defensive copies — that is what makes snapshots cheap),
samplers alias them as ``static_weights``, and the write-ahead log only
records *batch* mutations routed through
:class:`~repro.graph.dynamic.DynamicGraph`.  An in-place write to
``graph.offsets`` / ``graph.targets`` / ``graph.weights`` anywhere else
mutates every snapshot, table, and running walk that shares the array —
silently, after the fact, and unreplayably (the WAL never saw it).

The rule fires on subscript stores (``graph.targets[i] = v``,
``g.weights[a:b] *= 2``) and on known in-place mutator calls
(``.fill``, ``.sort``, ``.put``, ``.partition``, ``np.copyto``) whose
receiver is an attribute named ``offsets``/``targets``/``weights``,
in any file *outside* the ``graph`` package — graph construction and
compaction legitimately build these arrays in place.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.rules import Rule

__all__ = ["CsrMutationRule", "CSR_ARRAY_ATTRS"]

# The CSR arrays every snapshot/table aliases.  ``edge_types`` and
# ``vertex_types`` ride along: mutating them mid-walk skews Pd for
# heterogeneous programs just as silently.
CSR_ARRAY_ATTRS = frozenset(
    {"offsets", "targets", "weights", "edge_types", "vertex_types"}
)

# ndarray methods that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {"fill", "sort", "put", "partition", "resize", "setfield"}
)

# Module-level functions whose first argument is written in place.
_MUTATOR_FUNCTIONS = frozenset({"numpy.copyto", "numpy.put", "numpy.place"})


class CsrMutationRule(Rule):
    """RK105: no in-place writes to CSR arrays outside ``graph/``."""

    rule_id = "RK105"
    severity = Severity.ERROR
    description = (
        "in-place write to a CSR array (offsets/targets/weights/...) "
        "outside the graph package; shared epoch snapshots and sampler "
        "tables alias these arrays, so mutate through "
        "DynamicGraph.commit instead"
    )
    allow_paths = ("graph",)

    # -- subscript stores ----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target)
        self.generic_visit(node)

    def _check_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)
            return
        if not isinstance(target, ast.Subscript):
            return
        attr = self._csr_attribute(target.value)
        if attr is not None:
            self.report(
                target,
                f"in-place subscript write to .{attr}; CSR arrays are "
                "shared by snapshots and sampler tables — route the "
                "mutation through DynamicGraph.commit",
            )

    # -- mutator calls -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            attr = self._csr_attribute(func.value)
            if attr is not None:
                self.report(
                    node,
                    f".{attr}.{func.attr}() mutates a shared CSR array "
                    "in place; route the mutation through "
                    "DynamicGraph.commit",
                )
        name = self.context.resolve_call(node)
        if name in _MUTATOR_FUNCTIONS and node.args:
            attr = self._csr_attribute(node.args[0])
            if attr is not None:
                self.report(
                    node,
                    f"{name}() writes into .{attr} in place; route the "
                    "mutation through DynamicGraph.commit",
                )
        self.generic_visit(node)

    @staticmethod
    def _csr_attribute(node: ast.AST) -> str | None:
        """The CSR attribute name if ``node`` is ``<expr>.<csr array>``."""
        if isinstance(node, ast.Attribute) and node.attr in CSR_ARRAY_ATTRS:
            return node.attr
        return None
