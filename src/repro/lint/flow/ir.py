"""AST → flow IR extraction: one JSON-serializable summary per module.

The taint engine never touches ``ast`` nodes: each module is lowered
once into a small dict-based IR (so summaries can be cached on file
content hashes, see :mod:`repro.lint.flow.cache`).  Expressions become
tagged dicts::

    {"k": "name", "id": "rng"}
    {"k": "attr", "base": <expr>, "attr": "bit_generator"}
    {"k": "call", "fn": <expr>, "args": [...], "kws": [[name, <expr>]],
     "line": 12, "col": 4}
    {"k": "many", "items": [...]}          # containers, operators, ...
    {"k": "lambda" | "genexp", "captures": [...], "line": .., "col": ..}
    {"k": "localfunc", "name": "inner", "id": <func id>, ...}
    {"k": "none"}                          # constants and opaque nodes

and every function body becomes an ordered list of *facts*::

    {"f": "assign",      "targets": [...], "value": <expr>, ...}
    {"f": "attrstore",   "attr": .., "self": bool, "base": <expr>, ...}
    {"f": "globalstore", "name": .., "value": <expr>, ...}
    {"f": "itemstore",   "base": <expr>, "value": <expr>, ...}
    {"f": "return",      "value": <expr>, ...}
    {"f": "expr",        "value": <expr>}

Module-level code is lowered into a pseudo-function named
``<module>`` whose assignments become ``globalstore`` facts.

Control flow (loops, branches, ``try``) is flattened: the taint engine
is flow-insensitive within a function, iterating the fact list to a
local fixed point, which is the standard soundness/precision trade for
a lint-grade analysis.
"""

from __future__ import annotations

import ast
from typing import Any

__all__ = ["extract_module", "module_name_for", "collect_aliases"]

Expr = dict[str, Any]
Fact = dict[str, Any]

_NONE: Expr = {"k": "none"}


def module_name_for(path: str, exists=None) -> tuple[str, bool]:
    """Dotted module name for *path*, by walking up ``__init__.py`` dirs.

    Returns ``(module_name, is_package)``.  *exists* is an injectable
    ``path -> bool`` predicate (tests); defaults to the filesystem.
    """
    import os

    if exists is None:
        exists = os.path.exists
    path = path.replace("\\", "/")
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: list[str] = []
    is_package = stem == "__init__"
    if not is_package:
        parts.append(stem)
    while directory and exists(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        if not pkg:
            break
        parts.append(pkg)
    return ".".join(reversed(parts)) or stem, is_package


def collect_aliases(
    tree: ast.AST, module: str, is_package: bool
) -> dict[str, str]:
    """Local name → canonical dotted name, with relative imports resolved.

    Extends the per-file alias map of :mod:`repro.lint.rules` with
    package-aware relative imports: inside ``repro.cluster.engine``,
    ``from .network import Network`` maps ``Network`` to
    ``repro.cluster.network.Network``.  A package's
    ``lazy_exports(globals(), csr=("CSRGraph",))`` call is its re-export
    declaration (:mod:`repro._lazy`): each keyword group maps its names
    into that submodule, as ``from .csr import CSRGraph`` would.
    """
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts
                if node.level > 1:
                    base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                base = ".".join(base_parts)
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or ""
            if not target:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{target}.{name.name}"
        elif (
            is_package
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            for group in node.keywords:
                if group.arg and isinstance(group.value, (ast.Tuple, ast.List)):
                    for name in group.value.elts:
                        if isinstance(name, ast.Constant):
                            aliases[name.value] = f"{module}.{group.arg}.{name.value}"
    return aliases


def _free_names(node: ast.AST, bound: set[str]) -> list[str]:
    """Names loaded inside *node* that aren't locally bound (captures)."""
    seen: list[str] = []
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id not in bound
            and sub.id not in seen
        ):
            seen.append(sub.id)
    return seen


def _lambda_bound(node: ast.Lambda) -> set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _comp_bound(node: ast.AST) -> set[str]:
    bound: set[str] = set()
    for gen in getattr(node, "generators", []):
        for sub in ast.walk(gen.target):
            if isinstance(sub, ast.Name):
                bound.add(sub.id)
    return bound


class _FunctionLowerer:
    """Lowers one function body (or the module body) into facts."""

    def __init__(self, extractor: "_ModuleExtractor", func_id: str,
                 local_funcs: dict[str, str]) -> None:
        self.extractor = extractor
        self.func_id = func_id
        self.local_funcs = local_funcs  # name -> func id of nested defs
        self.global_names: set[str] = set()
        self.facts: list[Fact] = []
        self.is_module = func_id.endswith(":<module>")

    # -- expressions ---------------------------------------------------
    def expr(self, node: ast.AST | None) -> Expr:
        if node is None:
            return _NONE
        if isinstance(node, ast.Name):
            if node.id in self.local_funcs:
                return {
                    "k": "localfunc",
                    "name": node.id,
                    "id": self.local_funcs[node.id],
                    "line": node.lineno,
                    "col": node.col_offset,
                }
            return {"k": "name", "id": node.id}
        if isinstance(node, ast.Attribute):
            return {"k": "attr", "base": self.expr(node.value),
                    "attr": node.attr}
        if isinstance(node, ast.Call):
            return {
                "k": "call",
                "fn": self.expr(node.func),
                "args": [self.expr(a) for a in node.args],
                "kws": [
                    [kw.arg, self.expr(kw.value)] for kw in node.keywords
                ],
                "line": node.lineno,
                "col": node.col_offset,
            }
        if isinstance(node, ast.Lambda):
            return {
                "k": "lambda",
                "captures": _free_names(node.body, _lambda_bound(node)),
                "line": node.lineno,
                "col": node.col_offset,
            }
        if isinstance(node, ast.GeneratorExp):
            return {
                "k": "genexp",
                "captures": _free_names(node, _comp_bound(node)),
                "line": node.lineno,
                "col": node.col_offset,
            }
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            # Bind comprehension variables to their iterables (as
            # assign facts), then take only the *element* expression as
            # the comprehension's value: `[f(x) for x in xs]` carries
            # f's result labels, not xs's.  The variable bindings leak
            # into the function env — a sound over-approximation.
            for gen in node.generators:
                self._store_target(gen.target, self.expr(gen.iter),
                                   node.lineno)
                for cond in gen.ifs:
                    self.facts.append({"f": "expr", "value": self.expr(cond)})
            items = []
            for field in ("elt", "key", "value"):
                sub = getattr(node, field, None)
                if sub is not None:
                    items.append(self.expr(sub))
            return {"k": "many", "items": items}
        if isinstance(node, ast.BoolOp):
            return {"k": "many", "items": [self.expr(v) for v in node.values]}
        if isinstance(node, ast.BinOp):
            return {"k": "many",
                    "items": [self.expr(node.left), self.expr(node.right)]}
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand)
        if isinstance(node, ast.Compare):
            return {"k": "many", "items": [self.expr(node.left)]
                    + [self.expr(c) for c in node.comparators]}
        if isinstance(node, ast.IfExp):
            return {"k": "many", "items": [self.expr(node.body),
                                           self.expr(node.orelse)]}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {"k": "many", "items": [self.expr(e) for e in node.elts]}
        if isinstance(node, ast.Dict):
            return {"k": "many",
                    "items": [self.expr(v) for v in node.values]
                    + [self.expr(k) for k in node.keys if k is not None]}
        if isinstance(node, ast.Subscript):
            return {"k": "many", "items": [self.expr(node.value)]}
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.expr(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            return self.expr(node.value) if node.value else _NONE
        if isinstance(node, ast.JoinedStr):
            return _NONE  # f-string renders to text; taint does not survive
        if isinstance(node, ast.NamedExpr):
            value = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                self.facts.append(self._assign([node.target.id], value,
                                               node.lineno))
            return value
        return _NONE

    # -- statements ----------------------------------------------------
    def _assign(self, targets: list[str], value: Expr, line: int) -> Fact:
        return {"f": "assign", "targets": targets, "value": value,
                "line": line}

    def _store_target(self, target: ast.AST, value: Expr, line: int) -> None:
        if isinstance(target, ast.Name):
            if self.is_module or target.id in self.global_names:
                self.facts.append({
                    "f": "globalstore", "name": target.id, "value": value,
                    "line": target.lineno, "col": target.col_offset,
                })
            else:
                self.facts.append(self._assign([target.id], value, line))
        elif isinstance(target, ast.Attribute):
            base = self.expr(target.value)
            self.facts.append({
                "f": "attrstore",
                "attr": target.attr,
                "self": base.get("k") == "name" and base.get("id") == "self",
                "base": base,
                "value": value,
                "line": target.lineno,
                "col": target.col_offset,
            })
        elif isinstance(target, ast.Subscript):
            self.facts.append({
                "f": "itemstore",
                "base": self.expr(target.value),
                "value": value,
                "line": target.lineno,
                "col": target.col_offset,
            })
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._store_target(inner, value, line)

    def lower(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value = self.expr(node.value)
            for target in node.targets:
                self._store_target(target, value, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._store_target(node.target, self.expr(node.value),
                                   node.lineno)
        elif isinstance(node, ast.AugAssign):
            value = {"k": "many",
                     "items": [self.expr(node.target), self.expr(node.value)]}
            self._store_target(node.target, value, node.lineno)
        elif isinstance(node, ast.Return):
            self.facts.append({"f": "return", "value": self.expr(node.value),
                               "line": node.lineno, "col": node.col_offset})
        elif isinstance(node, ast.Expr):
            self.facts.append({"f": "expr", "value": self.expr(node.value)})
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = {"k": "many", "items": [self.expr(node.iter)]}
            self._store_target(node.target, iter_expr, node.lineno)
            self.lower(node.body)
            self.lower(node.orelse)
        elif isinstance(node, ast.While):
            self.facts.append({"f": "expr", "value": self.expr(node.test)})
            self.lower(node.body)
            self.lower(node.orelse)
        elif isinstance(node, ast.If):
            self.facts.append({"f": "expr", "value": self.expr(node.test)})
            self.lower(node.body)
            self.lower(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                ctx = self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self._store_target(item.optional_vars, ctx, node.lineno)
                else:
                    self.facts.append({"f": "expr", "value": ctx})
            self.lower(node.body)
        elif isinstance(node, ast.Try):
            self.lower(node.body)
            for handler in node.handlers:
                self.lower(handler.body)
            self.lower(node.orelse)
            self.lower(node.finalbody)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for sub in (getattr(node, "exc", None), getattr(node, "test", None),
                        getattr(node, "msg", None), getattr(node, "cause", None)):
                if sub is not None:
                    self.facts.append({"f": "expr", "value": self.expr(sub)})
        elif isinstance(node, ast.Global):
            self.global_names.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_id = self.extractor.extract_function(
                node, parent_qual=self.func_id.split(":", 1)[1], cls=None
            )
            self.local_funcs[node.name] = nested_id
        elif isinstance(node, ast.ClassDef):
            if self.is_module:
                self.extractor.extract_class(node)
            else:
                self.lower(node.body)
        # Import/Pass/Break/Continue/Delete/Nonlocal: no dataflow.


class _ModuleExtractor:
    def __init__(self, tree: ast.AST, module: str, rel_path: str,
                 path: str, is_package: bool) -> None:
        self.tree = tree
        self.module = module
        self.rel_path = rel_path
        self.path = path
        self.aliases = collect_aliases(tree, module, is_package)
        self.functions: dict[str, dict] = {}
        self.classes: dict[str, dict] = {}
        self.toplevel_funcs: dict[str, str] = {}
        self.globals: list[str] = []

    def _resolve_annotation(self, node: ast.AST | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.strip().split("[")[0]
        else:
            parts: list[str] = []
            cur = node
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if not isinstance(cur, ast.Name):
                return None
            parts.append(cur.id)
            name = ".".join(reversed(parts))
        root, _, rest = name.partition(".")
        root = self.aliases.get(root, root)
        return f"{root}.{rest}" if rest else root

    def extract_function(self, node, parent_qual: str | None = None,
                         cls: str | None = None) -> str:
        qual = node.name
        if cls is not None:
            qual = f"{cls}.{node.name}"
        elif parent_qual is not None and parent_qual != "<module>":
            qual = f"{parent_qual}.<locals>.{node.name}"
        func_id = f"{self.module}:{qual}"
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        annotations = {}
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            resolved = self._resolve_annotation(a.annotation)
            if resolved:
                annotations[a.arg] = resolved
        kwonly = [a.arg for a in args.kwonlyargs]
        local_funcs: dict[str, str] = {}
        lowerer = _FunctionLowerer(self, func_id, local_funcs)
        lowerer.lower(node.body)
        self.functions[func_id] = {
            "id": func_id,
            "module": self.module,
            "qualname": qual,
            "name": node.name,
            "cls": cls,
            "params": params,
            "kwonly": kwonly,
            "annotations": annotations,
            "line": node.lineno,
            "facts": lowerer.facts,
            "localfuncs": local_funcs,
        }
        return func_id

    def extract_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            resolved = self._resolve_annotation(base)
            if resolved:
                bases.append(resolved)
        methods: dict[str, str] = {}
        class_body_lowerer = _FunctionLowerer(
            self, f"{self.module}:<module>", {}
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[stmt.name] = self.extract_function(stmt, cls=node.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                # Class attributes with dataflow-relevant values are
                # rare; lower them as module-level expressions so calls
                # inside them are still sink-checked.
                value = getattr(stmt, "value", None)
                if value is not None:
                    class_body_lowerer.facts.append(
                        {"f": "expr", "value": class_body_lowerer.expr(value)}
                    )
        if class_body_lowerer.facts:
            mod_fn = self.functions.get(f"{self.module}:<module>")
            if mod_fn is not None:
                mod_fn["facts"].extend(class_body_lowerer.facts)
            else:
                self._pending_class_facts.extend(class_body_lowerer.facts)
        self.classes[node.name] = {
            "name": node.name,
            "module": self.module,
            "bases": bases,
            "methods": methods,
            "line": node.lineno,
        }

    def extract(self) -> dict:
        self._pending_class_facts: list[Fact] = []
        module_id = f"{self.module}:<module>"
        local_funcs: dict[str, str] = {}
        lowerer = _FunctionLowerer(self, module_id, local_funcs)
        body = list(getattr(self.tree, "body", []))
        # Register top-level defs/classes first so forward references
        # inside earlier statements still resolve.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel_funcs[stmt.name] = f"{self.module}:{stmt.name}"
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.extract_function(stmt, parent_qual="<module>")
            elif isinstance(stmt, ast.ClassDef):
                self.extract_class(stmt)
            else:
                lowerer.stmt(stmt)
                for fact in lowerer.facts:
                    if fact["f"] == "globalstore":
                        if fact["name"] not in self.globals:
                            self.globals.append(fact["name"])
        lowerer.facts.extend(self._pending_class_facts)
        self.functions[module_id] = {
            "id": module_id,
            "module": self.module,
            "qualname": "<module>",
            "name": "<module>",
            "cls": None,
            "params": [],
            "kwonly": [],
            "annotations": {},
            "line": 1,
            "facts": lowerer.facts,
            "localfuncs": local_funcs,
        }
        return {
            "module": self.module,
            "rel_path": self.rel_path,
            "path": self.path,
            "aliases": self.aliases,
            "functions": self.functions,
            "classes": self.classes,
            "toplevel_funcs": self.toplevel_funcs,
            "globals": self.globals,
        }


def extract_module(tree: ast.AST, module: str, rel_path: str, path: str,
                   is_package: bool) -> dict:
    """Lower one parsed module into its JSON-serializable flow summary."""
    return _ModuleExtractor(tree, module, rel_path, path, is_package).extract()
