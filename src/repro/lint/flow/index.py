"""Whole-program index: modules, symbols, aliases, class hierarchies.

:class:`ProjectIndex` owns the lowered summaries of every file in the
lint run and answers the resolution questions the call graph and taint
engine ask:

* ``resolve("repro.Walker")`` follows import aliases *across modules*
  — including re-exports through package ``__init__`` files — to the
  defining symbol ``("class", ("repro.core.walker", "Walker"))``;
* ``find_method(class_ref, "run")`` walks the class hierarchy
  (depth-first over resolved base classes, the method-resolution order
  approximation that matches how the engine/cluster classes are laid
  out) to the defining method's function id.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable

from repro.lint.flow.ir import extract_module, module_name_for

__all__ = ["ProjectIndex"]

ClassRef = tuple[str, str]  # (module, class name)


class ProjectIndex:
    """Symbol tables and summaries for every module in the project."""

    def __init__(self) -> None:
        self.modules: dict[str, dict[str, Any]] = {}
        self.functions: dict[str, dict[str, Any]] = {}
        self._by_rel_path: dict[str, str] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, files: Iterable[tuple[str, str, str, ast.AST | None]]
    ) -> "ProjectIndex":
        """Index ``(path, rel_path, source, tree)`` tuples.

        ``tree`` may be ``None``; otherwise the already-parsed AST is
        reused so no file is parsed twice in one lint run.
        """
        index = cls()
        for path, rel_path, source, tree in files:
            module, is_package = module_name_for(path)
            if tree is None:
                tree = ast.parse(source, filename=path)
            index.add_module(
                extract_module(tree, module, rel_path, path, is_package)
            )
        return index

    def add_module(self, summary: dict[str, Any]) -> None:
        self.modules[summary["module"]] = summary
        self._by_rel_path[summary["rel_path"]] = summary["module"]
        self.functions.update(summary["functions"])

    # ------------------------------------------------------------------
    def module_of(self, func_id: str) -> str:
        return func_id.split(":", 1)[0]

    def rel_path_of(self, func_id: str) -> str:
        mod = self.modules.get(self.module_of(func_id))
        return mod["rel_path"] if mod else ""

    def path_of(self, func_id: str) -> str:
        mod = self.modules.get(self.module_of(func_id))
        return mod["path"] if mod else ""

    def get_class(self, ref: ClassRef) -> dict[str, Any] | None:
        mod = self.modules.get(ref[0])
        if mod is None:
            return None
        return mod["classes"].get(ref[1])

    # ------------------------------------------------------------------
    def resolve(self, dotted: str, _seen: frozenset[str] = frozenset()):
        """Resolve a canonical dotted name to its defining symbol.

        Returns one of ``("func", func_id)``, ``("class", (module,
        name))``, ``("module", module_name)``, ``("global", (module,
        name))`` or ``None``; alias chains (imports of imports,
        ``__init__`` re-exports) are followed with a cycle guard.
        """
        if dotted in _seen:
            return None
        _seen = _seen | {dotted}
        parts = dotted.split(".")
        # Longest module prefix first, so `a.b.c` prefers module `a.b`
        # defining symbol `c` over module `a` re-exporting `b`.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", prefix)
            found = self._resolve_in_module(mod, rest, _seen)
            if found is not None:
                return found
        return None

    def _resolve_in_module(self, mod, rest: list[str], _seen):
        head, tail = rest[0], rest[1:]
        if head in mod["toplevel_funcs"] and not tail:
            return ("func", mod["toplevel_funcs"][head])
        if head in mod["classes"]:
            ref = (mod["module"], head)
            if not tail:
                return ("class", ref)
            if len(tail) == 1:
                method = self.find_method(ref, tail[0])
                if method is not None:
                    return ("func", method)
            return None
        if head in mod["aliases"]:
            target = mod["aliases"][head]
            if tail:
                target = target + "." + ".".join(tail)
            return self.resolve(target, _seen)
        if head in mod["globals"] and not tail:
            return ("global", (mod["module"], head))
        return None

    # ------------------------------------------------------------------
    def _resolve_base(self, module: str, base: str):
        """Resolve a base-class expression as written *inside* ``module``.

        Bases are stored verbatim from the ``class`` statement, so a
        bare name refers to a symbol in the defining module's scope —
        qualify it there before falling back to treating it as an
        absolute dotted path.
        """
        mod = self.modules.get(module)
        if mod is not None:
            found = self._resolve_in_module(mod, base.split("."),
                                            frozenset({base}))
            if found is not None:
                return found
        return self.resolve(base)

    def find_method(self, ref: ClassRef, name: str,
                    _seen: frozenset[ClassRef] = frozenset()) -> str | None:
        """Function id of ``name`` resolved through *ref*'s hierarchy."""
        if ref in _seen:
            return None
        _seen = _seen | {ref}
        cls = self.get_class(ref)
        if cls is None:
            return None
        if name in cls["methods"]:
            return cls["methods"][name]
        for base in cls["bases"]:
            resolved = self._resolve_base(ref[0], base)
            if resolved is not None and resolved[0] == "class":
                found = self.find_method(resolved[1], name, _seen)
                if found is not None:
                    return found
        return None

    def class_mro(self, ref: ClassRef,
                  _seen: frozenset[ClassRef] = frozenset()) -> list[ClassRef]:
        """Depth-first base-class chain (self first), cycle-guarded."""
        if ref in _seen or self.get_class(ref) is None:
            return []
        _seen = _seen | {ref}
        order = [ref]
        for base in self.get_class(ref)["bases"]:
            resolved = self._resolve_base(ref[0], base)
            if resolved is not None and resolved[0] == "class":
                order.extend(self.class_mro(resolved[1], _seen))
        return order
