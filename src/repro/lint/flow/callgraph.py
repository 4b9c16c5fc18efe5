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

:func:`build_call_graph` is the one place calls are resolved: once per
call site, into a :class:`CallGraph` whose resolutions the taint engine
follows and whose edges order its worklist, so the two never disagree.
"""

from __future__ import annotations

from typing import Any

from repro.lint.flow.index import ClassRef, ProjectIndex

__all__ = ["CallGraph", "CallResolver", "build_call_graph", "chain_of"]


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
            types[func["params"][0]] = (func["module"], func["cls"])
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
        types: dict[str, ClassRef],
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
        root, chain = chain_of(fn)
        if root is None:
            return None
        if chain and root in types:
            # Method call on a typed local (incl. `self`): resolve the
            # full attribute chain through the class hierarchy.
            if len(chain) == 1:
                method = self.index.find_method(types[root], chain[0])
                if method is not None:
                    return ("func", method, True)
            return None
        if root in self._local_names(func) and root not in types:
            return None  # call through an untyped local variable
        target = self._resolve_dotted_fn(fn, module)
        if target is None:
            return None
        if target[0] == "func":
            # A chain reaching here is `ClassName.method(obj, ...)` (typed
            # receivers returned above): an explicit self argument.
            fn_rec = self.index.functions.get(target[1])
            bound = bool(fn_rec and fn_rec.get("cls")) and not chain
            return ("func", target[1], bound)
        if target[0] == "class":
            return ("class", target[1])
        return None

    @staticmethod
    def _local_names(func: dict[str, Any]) -> set[str]:
        names = set(func["params"]) | set(func.get("kwonly", ()))
        for fact in func["facts"]:
            if fact["f"] == "assign":
                names.update(fact["targets"])
        names.update(func.get("localfuncs", {}))
        return names


def iter_fact_exprs(fact: dict[str, Any]):
    """Every IR expression reachable from one fact (iteratively)."""
    stack = [fact[key] for key in ("value", "base")
             if isinstance(fact.get(key), dict)]
    while stack:
        expr = stack.pop()
        yield expr
        kind = expr.get("k")
        if kind == "call":
            stack += [expr["fn"], *expr["args"], *(v for _, v in expr["kws"])]
        elif kind == "attr":
            stack.append(expr["base"])
        elif kind == "many":
            stack += expr["items"]


class CallGraph:
    """``sites``: ``id(call["fn"])`` → that call's resolution; ``types``:
    each function's local types; ``graph[caller]``: its callee ids (a
    constructor call counts its class's ``__init__``)."""

    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}
        self.sites: dict[int, Any] = {}
        self.types: dict[str, dict[str, ClassRef]] = {}

    def __getitem__(self, func_id: str) -> set[str]:
        return self.edges[func_id]

    def callee_first(self) -> list[str]:
        """Every function in DFS post-order of the edges, roots sorted.

        Iterative (no recursion limit); a cycle is cut where the walk
        re-enters it."""
        order: list[str] = []
        seen: set[str] = set()
        stack: list = [(None, iter(sorted(self.edges)))]
        while stack:
            func_id, callees = stack[-1]
            for callee in callees:
                if callee not in seen and callee in self.edges:
                    seen.add(callee)
                    stack.append((callee, iter(sorted(self.edges[callee]))))
                    break
            else:
                stack.pop()
                if func_id is not None:
                    order.append(func_id)
        return order


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Resolve every call site of every function once."""
    resolver = CallResolver(index)
    graph = CallGraph()
    for func_id, func in index.functions.items():
        types = graph.types[func_id] = resolver.local_types(func)
        out: set[str] = set()
        for fact in func["facts"]:
            for expr in iter_fact_exprs(fact):
                if expr.get("k") != "call" or id(expr["fn"]) in graph.sites:
                    continue
                resolved = resolver.resolve_call(expr["fn"], func, types)
                graph.sites[id(expr["fn"])] = resolved
                if resolved is None:
                    continue
                if resolved[0] == "func":
                    out.add(resolved[1])
                elif resolved[0] == "class":
                    init = index.find_method(resolved[1], "__init__")
                    if init is not None:
                        out.add(init)
        graph.edges[func_id] = out
    return graph
