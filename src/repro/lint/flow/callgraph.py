"""Call-site resolution and the project call graph.

:class:`CallResolver` turns a call's ``fn`` IR expression into the
callee's function id, handling the three shapes that matter in this
codebase:

* **dotted calls** — ``helpers.make_rng()`` resolved through the
  project-wide alias tables (imports of imports, ``__init__``
  re-exports);
* **method calls on ``self``/``cls``** — resolved through the class
  hierarchy (``DistributedWalkEngine._iteration`` calling a
  ``WalkEngine`` helper defined two modules away);
* **method calls on locally-constructed instances** — a light
  per-function type pass maps ``engine = WalkEngine(...)`` so
  ``engine.run()`` resolves; parameter type annotations
  (``graph: DynamicGraph``) feed the same map.

:func:`build_call_graph` applies the resolver to every fact of every
function and returns the edge set — used directly by tests and
indirectly by the taint engine (which resolves lazily with the same
logic so taint and edges can never disagree).
"""

from __future__ import annotations

from typing import Any

from repro.lint.flow.index import ClassRef, ProjectIndex

__all__ = ["CallResolver", "build_call_graph", "chain_of"]


def chain_of(expr: dict[str, Any]) -> tuple[str | None, list[str]]:
    """(root name, attribute chain) of a Name/Attribute IR expression."""
    chain: list[str] = []
    while expr.get("k") == "attr":
        chain.append(expr["attr"])
        expr = expr["base"]
    if expr.get("k") != "name":
        return None, []
    chain.reverse()
    return expr["id"], chain


class CallResolver:
    """Resolve call-site ``fn`` expressions against a project index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    # ------------------------------------------------------------------
    def local_types(self, func: dict[str, Any]) -> dict[str, ClassRef]:
        """name → class ref, from annotations and local constructor calls."""
        types: dict[str, ClassRef] = {}
        module = self.index.modules.get(func["module"], {})
        if func.get("cls") and func["params"]:
            ref = (func["module"], func["cls"])
            types[func["params"][0]] = ref
        for param, annotation in func.get("annotations", {}).items():
            resolved = self.index.resolve(annotation)
            if resolved is not None and resolved[0] == "class":
                types[param] = resolved[1]
        for fact in func["facts"]:
            if fact["f"] != "assign":
                continue
            value = fact["value"]
            if value.get("k") != "call":
                continue
            target = self._resolve_dotted_fn(value["fn"], module)
            if target is not None and target[0] == "class":
                for name in fact["targets"]:
                    types[name] = target[1]
        return types

    def _resolve_dotted_fn(self, fn: dict[str, Any], module: dict[str, Any]):
        root, chain = chain_of(fn)
        if root is None:
            return None
        aliases = module.get("aliases", {})
        toplevel = module.get("toplevel_funcs", {})
        classes = module.get("classes", {})
        if not chain:
            if root in toplevel:
                return ("func", toplevel[root])
            if root in classes:
                return ("class", (module["module"], root))
        dotted = ".".join([aliases.get(root, root)] + chain)
        if root not in aliases:
            # A bare in-module reference like `Helper.build` or a
            # fully-qualified name typed out without an import.
            local = ".".join([module.get("module", "")] + [root] + chain)
            resolved = self.index.resolve(local)
            if resolved is not None:
                return resolved
        return self.index.resolve(dotted)

    # ------------------------------------------------------------------
    def resolve_call(
        self,
        fn: dict[str, Any],
        func: dict[str, Any],
        types: dict[str, ClassRef] | None = None,
    ):
        """Resolve a call-site fn expression.

        Returns ``("func", func_id, bound)`` for a resolved callable
        (``bound`` true when the first parameter is an implicit
        ``self``), ``("class", ref)`` for a constructor call, or
        ``None``.  Local-variable shadowing is respected: a name bound
        inside the function never resolves through the import table.
        """
        if fn.get("k") == "localfunc":
            return ("func", fn["id"], False)
        module = self.index.modules.get(func["module"], {})
        types = types if types is not None else {}
        root, chain = chain_of(fn)
        if root is None:
            return None
        local_names = self._local_names(func)
        if chain and root in types:
            # Method call on a typed local (incl. `self`): resolve the
            # full attribute chain through the class hierarchy.
            if len(chain) == 1:
                method = self.index.find_method(types[root], chain[0])
                if method is not None:
                    return ("func", method, True)
            return None
        if root in local_names and root not in types:
            return None  # call through an untyped local variable
        target = self._resolve_dotted_fn(fn, module)
        if target is None:
            return None
        if target[0] == "func":
            fn_rec = self.index.functions.get(target[1])
            bound = bool(fn_rec and fn_rec.get("cls"))
            if bound and chain and not self._is_instance_chain(root, types):
                # `ClassName.method(obj, ...)`: explicit self argument.
                bound = False
            return ("func", target[1], bound)
        if target[0] == "class":
            return ("class", target[1])
        return None

    @staticmethod
    def _is_instance_chain(root: str, types: dict[str, ClassRef]) -> bool:
        return root in types

    @staticmethod
    def _local_names(func: dict[str, Any]) -> set[str]:
        names = set(func["params"]) | set(func.get("kwonly", ()))
        for fact in func["facts"]:
            if fact["f"] == "assign":
                names.update(fact["targets"])
        names.update(func.get("localfuncs", {}))
        return names


def _walk_exprs(expr: dict[str, Any]):
    yield expr
    kind = expr.get("k")
    if kind == "call":
        yield from _walk_exprs(expr["fn"])
        for arg in expr["args"]:
            yield from _walk_exprs(arg)
        for _, value in expr["kws"]:
            yield from _walk_exprs(value)
    elif kind == "attr":
        yield from _walk_exprs(expr["base"])
    elif kind == "many":
        for item in expr["items"]:
            yield from _walk_exprs(item)


def iter_fact_exprs(fact: dict[str, Any]):
    """Every IR expression reachable from one fact."""
    for key in ("value", "base"):
        sub = fact.get(key)
        if isinstance(sub, dict):
            yield from _walk_exprs(sub)


def build_call_graph(index: ProjectIndex) -> dict[str, set[str]]:
    """caller function id → set of resolved callee function ids."""
    resolver = CallResolver(index)
    edges: dict[str, set[str]] = {}
    for func_id, func in index.functions.items():
        types = resolver.local_types(func)
        out: set[str] = set()
        for fact in func["facts"]:
            for expr in iter_fact_exprs(fact):
                if expr.get("k") != "call":
                    continue
                resolved = resolver.resolve_call(expr["fn"], func, types)
                if resolved is None:
                    continue
                if resolved[0] == "func":
                    out.add(resolved[1])
                elif resolved[0] == "class":
                    init = index.find_method(resolved[1], "__init__")
                    if init is not None:
                        out.add(init)
        edges[func_id] = out
    return edges
