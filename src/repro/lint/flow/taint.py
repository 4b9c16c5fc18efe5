"""Worklist interprocedural taint engine over function summaries.

Labels are either ``"P<i>"`` (flows from the function's i-th
parameter) or ``("SRC", rel_path, line)`` (created by a rule source at
that location).  Every function gets a summary:

* ``ret`` — the labels its return value carries;
* ``param_sinks`` — ``(param index, sink site)`` pairs: a value
  flowing into that parameter reaches that sink somewhere below.

Summaries reference callee summaries, so functions are passed from a
worklist ranked callees first: a helper chain of any depth settles in
one pass per frame.  A changed summary re-queues the function's
callers; a class-attribute or global store that changes the stored
taint re-queues the functions recorded reading that key (exact: whether
a pass looks a key up depends on the names a function binds, never on
taint).  Each function keeps the hits of its last pass.

No round cap is needed.  A new summary is joined with the previous one
*before* its source labels are cut to the ``_MAX_SRC_LABELS`` smallest,
so it is the cut of the union of all its passes, and stored attribute
and global taint only grow: every stored value follows a set that only
grows within the finite set of labels, so it changes finitely often.

Within a function the analysis is flow-insensitive: its facts iterate
to a local fixed point (env and return sets only grow), which soundly
over-approximates loops and reassignment at lint-grade precision.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, build_call_graph, chain_of
from repro.lint.flow.index import ProjectIndex
from repro.lint.flow.specs import (
    CONTAINER_MUTATORS,
    CROSS_PROCESS_METHODS,
    PARENT_SIDE_KWARGS,
    FlowSpec,
)

__all__ = ["TaintAnalysis", "run_flow_rules"]

Label = Any  # "P<i>" | ("SRC", rel_path, line)
Site = tuple[str, str, int, int, str]  # path, rel_path, line, col, kind

_MAX_SRC_LABELS = 6


def _srcs(labels: set[Label]) -> frozenset[Label]:
    chosen = sorted((lb for lb in labels if isinstance(lb, tuple)),
                    key=lambda lb: (lb[1], lb[2]))
    return frozenset(chosen[:_MAX_SRC_LABELS])


def _params(labels: set[Label]) -> list[int]:
    return sorted(int(lb[1:]) for lb in labels if isinstance(lb, str))


class _Out:
    """Per-pass accumulator: concrete hits and parameter-mediated sinks."""

    __slots__ = ("hits", "psinks")

    def __init__(self) -> None:
        self.hits: dict[Site, set[Label]] = {}
        self.psinks: set[tuple[int, Site]] = set()


class TaintAnalysis:
    """Run one :class:`FlowSpec` over a :class:`ProjectIndex` and its
    :class:`CallGraph` (built once, shared by every spec)."""

    def __init__(self, index: ProjectIndex, spec: FlowSpec, graph: CallGraph) -> None:
        self.index = index
        self.spec = spec
        self.graph = graph
        empty: tuple[frozenset, frozenset] = (frozenset(), frozenset())
        self.summaries: dict[str, tuple[frozenset, frozenset]] = {
            fid: empty for fid in index.functions
        }
        self.class_attrs: dict[tuple[str, str, str], frozenset] = {}
        self.globals_taint: dict[tuple[str, str], frozenset] = {}
        self._readers: dict[tuple, set[str]] = {}
        self._scope: dict[str, bool] = {}
        self._order = self.graph.callee_first()
        self._rank = {fid: i for i, fid in enumerate(self._order)}
        self._queue = list(range(len(self._order)))  # ascending: a heap
        self._queued = set(self._order)

    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        callers: dict[str, list[str]] = {}
        for caller, callees in self.graph.edges.items():
            for callee in callees:
                callers.setdefault(callee, []).append(caller)
        hits_of: dict[str, dict[Site, set[Label]]] = {}
        while self._queue:
            fid = self._order[heapq.heappop(self._queue)]
            self._queued.discard(fid)
            out = _Out()
            ret = self._pass(self.index.functions[fid], out)
            hits_of[fid] = out.hits
            old_ret, old_psinks = self.summaries[fid]
            ret |= old_ret
            params = frozenset(lb for lb in ret if isinstance(lb, str))
            summary = (params | _srcs(ret), old_psinks | out.psinks)
            if summary != self.summaries[fid]:
                self.summaries[fid] = summary
                self._requeue(callers.get(fid, ()))
        hits: dict[Site, set[Label]] = {}
        for func_hits in hits_of.values():
            for site, labels in func_hits.items():
                hits.setdefault(site, set()).update(labels)
        return self._findings(hits)

    def _requeue(self, func_ids: Iterable[str]) -> None:
        for fid in func_ids:
            if fid not in self._queued:
                self._queued.add(fid)
                heapq.heappush(self._queue, self._rank[fid])

    def _read(self, table: dict, key: tuple, func: dict) -> frozenset:
        """``table[key]``, recording *func* as a reader of *key*."""
        self._readers.setdefault(key, set()).add(func["id"])
        return table.get(key, frozenset())

    def _write(self, table: dict, key: tuple, labels: set[Label]) -> None:
        """Join *labels* into ``table[key]``; re-queue its readers if it grew."""
        merged = table.get(key, frozenset()) | _srcs(labels)
        if merged != table.get(key, frozenset()):
            table[key] = merged
            self._requeue(self._readers.get(key, ()))

    def _findings(self, hits: dict[Site, set[Label]]) -> list[Finding]:
        findings: list[Finding] = []
        for site in sorted(hits):
            path, rel_path, line, col, _kind = site
            sources = sorted(
                (lb for lb in hits[site] if isinstance(lb, tuple)),
                key=lambda lb: (lb[1], lb[2]),
            )
            if not sources:
                continue
            origins = ", ".join(
                f"{src[1]}:{src[2]}" for src in sources[:2]
            )
            trace = f" (origin: {origins})" if origins else ""
            findings.append(
                Finding(
                    rule_id=self.spec.rule_id,
                    path=path,
                    line=line,
                    column=col,
                    message=self.spec.sink_message.format(trace=trace),
                    severity=self.spec.severity,
                )
            )
        return findings

    # ------------------------------------------------------------------
    def _pass(self, func: dict, out: _Out) -> set[Label]:
        params = list(func["params"]) + list(func.get("kwonly", ()))
        env: dict[str, set[Label]] = {
            name: {f"P{i}"} for i, name in enumerate(params)
        }
        ret: set[Label] = set()
        while True:
            # Names and labels are only ever added, so an unchanged
            # total means an unchanged env.
            before = len(env) + sum(map(len, env.values())) + len(ret)
            for fact in func["facts"]:
                self._fact(fact, func, env, ret, out)
            if len(env) + sum(map(len, env.values())) + len(ret) == before:
                return ret

    # ------------------------------------------------------------------
    def _fact(self, fact: dict, func: dict, env, ret: set[Label],
              out: _Out) -> None:
        kind = fact["f"]
        spec = self.spec
        rel_path = self.index.rel_path_of(func["id"])
        if kind == "assign":
            labels = self._expr(fact["value"], func, env, out)
            for target in fact["targets"]:
                env.setdefault(target, set()).update(labels)
        elif kind == "attrstore":
            labels = self._expr(fact["value"], func, env, out)
            self._expr(fact["base"], func, env, out)
            if fact["self"] and func.get("cls"):
                key = (func["module"], func["cls"], fact["attr"])
                self._write(self.class_attrs, key, labels)
            if labels and spec.escape_sinks and self._applies(rel_path):
                site = (func_path(self.index, func), rel_path,
                        fact["line"], fact["col"], "escape")
                self._record(labels, site, out)
        elif kind == "globalstore":
            labels = self._expr(fact["value"], func, env, out)
            key = (func["module"], fact["name"])
            self._write(self.globals_taint, key, labels)
            if labels and spec.escape_sinks and self._applies(rel_path):
                site = (func_path(self.index, func), rel_path,
                        fact["line"], fact["col"], "escape")
                self._record(labels, site, out)
        elif kind == "itemstore":
            labels = self._expr(fact["value"], func, env, out)
            base = fact["base"]
            if base.get("k") == "name":
                env.setdefault(base["id"], set()).update(labels)
            elif (
                labels
                and spec.escape_sinks
                and self._applies(rel_path)
                and base.get("k") == "attr"
                and base.get("base", {}).get("k") == "name"
                and base["base"].get("id") == "self"
            ):
                site = (func_path(self.index, func), rel_path,
                        fact["line"], fact["col"], "escape")
                self._record(labels, site, out)
        elif kind == "return":
            ret.update(self._expr(fact["value"], func, env, out))
        elif kind == "expr":
            self._expr(fact["value"], func, env, out)

    # ------------------------------------------------------------------
    def _applies(self, rel_path: str) -> bool:
        """``spec.applies``, memoized: it is asked once per call site."""
        hit = self._scope.get(rel_path)
        if hit is None:
            hit = self._scope[rel_path] = self.spec.applies(rel_path)
        return hit

    def _record(self, labels: set[Label], site: Site, out: _Out) -> None:
        src_labels = {lb for lb in labels if isinstance(lb, tuple)}
        if src_labels:
            out.hits.setdefault(site, set()).update(src_labels)
        for i in _params(labels):
            out.psinks.add((i, site))

    # ------------------------------------------------------------------
    def _expr(self, expr: dict, func: dict, env, out: _Out) -> set[Label]:
        kind = expr.get("k")
        spec = self.spec
        if kind == "name":
            return self._name_labels(expr["id"], func, env)
        if kind == "attr":
            return self._attr_labels(expr, func, env, out)
        if kind == "call":
            return self._call(expr, func, env, out)
        if kind == "many":
            labels: set[Label] = set()
            for item in expr["items"]:
                labels |= self._expr(item, func, env, out)
            return labels
        if kind in ("lambda", "genexp", "localfunc"):
            labels = set()
            for captured in expr.get("captures", ()):
                labels |= self._name_labels(captured, func, env)
            is_source = (
                (kind == "lambda" and spec.lambda_source)
                or (kind == "genexp" and spec.genexp_source)
                or (kind == "localfunc" and spec.localfunc_source)
            )
            if is_source:
                labels.add(
                    ("SRC", self.index.rel_path_of(func["id"]), expr["line"])
                )
            return labels
        return set()

    def _name_labels(self, name: str, func: dict, env) -> set[Label]:
        labels = set(env.get(name, ()))
        if name not in env:
            module = self.index.modules.get(func["module"], {})
            key = (func["module"], name)
            labels |= self._read(self.globals_taint, key, func)
            alias = module.get("aliases", {}).get(name)
            if alias is not None:
                resolved = self.index.resolve(alias)
                if resolved is not None and resolved[0] == "global":
                    labels |= self._read(self.globals_taint, resolved[1], func)
        return labels

    def _attr_labels(self, expr: dict, func: dict, env, out: _Out):
        spec = self.spec
        labels: set[Label] = set()
        base = expr["base"]
        # self.attr reads pick up class-attribute taint through the MRO.
        if (
            base.get("k") == "name"
            and base.get("id") == "self"
            and func.get("cls")
        ):
            for ref in self.index.class_mro((func["module"], func["cls"])):
                key = (ref[0], ref[1], expr["attr"])
                labels |= self._read(self.class_attrs, key, func)
        # Fully dotted chains may name a tainted module global.
        root, chain = chain_of(expr)
        if root is not None and root not in env:
            module = self.index.modules.get(func["module"], {})
            dotted = ".".join(
                [module.get("aliases", {}).get(root, root)] + chain
            )
            resolved = self.index.resolve(dotted)
            if resolved is not None and resolved[0] == "global":
                labels |= self._read(self.globals_taint, resolved[1], func)
        base_labels = self._expr(base, func, env, out)
        if (
            base_labels
            and spec.propagate_attrs
            and expr["attr"] not in spec.sanitize_attrs
        ):
            labels |= base_labels
        return labels

    # ------------------------------------------------------------------
    def _call(self, expr: dict, func: dict, env, out: _Out) -> set[Label]:
        spec = self.spec
        fn = expr["fn"]
        arg_labels = [self._expr(a, func, env, out) for a in expr["args"]]
        kw_labels = [
            (name, self._expr(value, func, env, out))
            for name, value in expr["kws"]
        ]
        path = func_path(self.index, func)
        rel_path = self.index.rel_path_of(func["id"])
        loc = (expr["line"], expr["col"])
        dotted = self._canonical_dotted(fn, func, env)
        attr_name = fn["attr"] if fn.get("k") == "attr" else None

        self._check_explicit_sinks(
            dotted, attr_name, arg_labels, kw_labels, path, rel_path, loc, out
        )
        self._check_process_boundary(
            fn, attr_name, arg_labels, kw_labels, func, path, rel_path, loc,
            out,
        )

        # -- sources and sanitizers ------------------------------------
        if dotted is not None and dotted in spec.source_calls:
            source: set[Label] = {("SRC", rel_path, expr["line"])}
            self._check_region(None, arg_labels, kw_labels, source,
                               path, rel_path, loc, out)
            return source
        if attr_name is not None and attr_name in spec.source_methods:
            self._expr(fn["base"], func, env, out)
            return {("SRC", rel_path, expr["line"])}
        if dotted is not None and dotted in spec.sanitize_calls:
            return set()

        resolved = self.graph.sites.get(id(fn))
        if resolved is not None and resolved[0] == "func":
            result = self._apply_summary(
                resolved[1], bool(resolved[2]), arg_labels, kw_labels,
                path, rel_path, loc, out,
            )
            self._check_region(resolved[1], arg_labels, kw_labels, result,
                               path, rel_path, loc, out)
            return result
        if resolved is not None and resolved[0] == "class":
            result = _union(arg_labels, kw_labels)
            init = self.index.find_method(resolved[1], "__init__")
            if init is not None:
                result |= self._apply_summary(
                    init, True, arg_labels, kw_labels,
                    path, rel_path, loc, out,
                )
            return result

        # -- unresolved call -------------------------------------------
        result = _union(arg_labels, kw_labels)
        if attr_name is not None:
            recv = self._expr(fn["base"], func, env, out)
            if attr_name in CONTAINER_MUTATORS:
                base = fn["base"]
                if base.get("k") == "name" and base["id"] in env:
                    env[base["id"]].update(_union(arg_labels, kw_labels))
            if recv and (
                attr_name in spec.tainting_methods
                or spec.receiver_default == "taint"
            ):
                result |= recv
        return result

    # ------------------------------------------------------------------
    def _apply_summary(self, callee_id: str, bound: bool, arg_labels,
                       kw_labels, path, rel_path, loc, out: _Out):
        callee = self.index.functions.get(callee_id)
        if callee is None:
            return set()
        ret, psinks = self.summaries.get(callee_id, (frozenset(), frozenset()))
        by_param = self._map_args(callee, bound, arg_labels, kw_labels)
        result: set[Label] = {lb for lb in ret if isinstance(lb, tuple)}
        for lb in ret:
            if isinstance(lb, str):
                result |= by_param.get(int(lb[1:]), set())
        # A call made from a sanctioned file is a blessed flow: the
        # allowlisted pinning point may hand its view to the samplers
        # and tables it owns (their lifetime is bounded by its own).  A
        # region's allowlist exempts only the read, never the flow.
        if self.spec.region or self._applies(rel_path):
            for index, site in psinks:
                labels = by_param.get(index, set())
                if labels:
                    self._record(labels, site, out)
        return result

    @staticmethod
    def _map_args(callee: dict, bound: bool, arg_labels, kw_labels):
        params = list(callee["params"]) + list(callee.get("kwonly", ()))
        offset = 1 if bound and params else 0
        by_param: dict[int, set[Label]] = {}
        for j, labels in enumerate(arg_labels):
            index = j + offset
            if index < len(params):
                by_param[index] = set(labels)
        for name, labels in kw_labels:
            if name in params:
                by_param.setdefault(params.index(name), set()).update(labels)
            elif name is None:
                # **kwargs splat: conservatively reach every parameter.
                for index in range(len(params)):
                    by_param.setdefault(index, set()).update(labels)
        return by_param

    # ------------------------------------------------------------------
    def _check_explicit_sinks(self, dotted, attr_name, arg_labels,
                              kw_labels, path, rel_path, loc, out: _Out):
        spec = self.spec
        if dotted is not None and dotted in spec.sink_calls:
            positions = spec.sink_calls[dotted]
        elif attr_name is not None and attr_name in spec.sink_methods:
            positions = spec.sink_methods[attr_name]
        else:
            return
        if not self._applies(rel_path):
            return
        site = (path, rel_path, loc[0], loc[1], "sink-call")
        for j, labels in enumerate(arg_labels):
            if positions is not None and j not in positions:
                continue
            if labels:
                self._record(labels, site, out)
        if positions is None:
            for _, labels in kw_labels:
                if labels:
                    self._record(labels, site, out)

    def _pool_receiver(self, fn: dict, func: dict) -> bool:
        """Does a ``recv.run/map/submit(...)`` receiver look like a pool?

        The bare method name is not enough: taint propagates into
        *every* such call, so ``engine.run(walkers)`` or
        ``tables.apply(updates)`` would otherwise count as process
        boundaries.  Gate on the receiver: its name mentions
        pool/executor, its resolved local
        type is a ``*Pool``/``*Executor`` class, or it is the
        ``multiprocessing``/``concurrent.futures`` module itself.
        """
        base = fn["base"]
        root, chain = chain_of(base)
        if root is None:
            return False
        parts = [p.lower() for p in [root, *chain] if p != "self"]
        if any("pool" in p or "executor" in p for p in parts):
            return True
        types = self.graph.types.get(func["id"], {})
        ref = types.get(root)
        if ref is not None and not chain:
            name = ref[1].lower()
            if "pool" in name or name.endswith("executor"):
                return True
        module = self.index.modules.get(func["module"], {})
        dotted = module.get("aliases", {}).get(root, root)
        return dotted.split(".")[0] in ("multiprocessing", "concurrent")

    def _check_process_boundary(self, fn, attr_name, arg_labels, kw_labels,
                                func, path, rel_path, loc, out: _Out):
        spec = self.spec
        if spec.process_boundary is None or not self._applies(rel_path):
            return
        site = (path, rel_path, loc[0], loc[1], "process-boundary")
        if (
            attr_name in CROSS_PROCESS_METHODS
            and arg_labels
            and self._pool_receiver(fn, func)
        ):
            start = 0 if spec.process_boundary == "all" else 1
            for labels in arg_labels[start:]:
                if labels:
                    self._record(labels, site, out)
            for name, labels in kw_labels:
                if name in PARENT_SIDE_KWARGS:
                    continue
                if labels:
                    self._record(labels, site, out)
            return
        name = attr_name
        if name is None and fn.get("k") == "name":
            name = fn["id"]
        if name is not None and name.endswith("Process"):
            for kw, labels in kw_labels:
                if kw in ("target", "args", "kwargs") and labels:
                    self._record(labels, site, out)

    def _check_region(self, callee_id, arg_labels, kw_labels, result,
                      path, rel_path, loc, out: _Out):
        """Region sinks; *callee_id* is None for a source call itself."""
        spec = self.spec
        if not spec.region:
            return
        caller_in = self._applies(rel_path)
        callee_in = callee_id is not None and self._applies(
            self.index.rel_path_of(callee_id)
        )
        if callee_in and not caller_in:
            # (a) tainted value handed into simulated-time code from
            # outside the region (or from an allowlisted file: the
            # allowlist exempts the *read*, never the flow).  Hops
            # within the region are not re-flagged — the entry hop
            # already was.
            site = (path, rel_path, loc[0], loc[1], "region-entry")
            for labels in arg_labels:
                if labels:
                    self._record(labels, site, out)
            for _, labels in kw_labels:
                if labels:
                    self._record(labels, site, out)
        elif caller_in and any(isinstance(lb, tuple) for lb in result):
            # (b) simulated-time code reading the clock, directly or as
            # a helper's return value.
            site = (path, rel_path, loc[0], loc[1], "region-consume")
            self._record({lb for lb in result if isinstance(lb, tuple)},
                         site, out)

    # ------------------------------------------------------------------
    def _canonical_dotted(self, fn: dict, func: dict, env) -> str | None:
        root, chain = chain_of(fn)
        if root is None:
            return None
        params = set(func["params"]) | set(func.get("kwonly", ()))
        if root in env or root in params or root in func.get("localfuncs", {}):
            return None
        module = self.index.modules.get(func["module"], {})
        resolved_root = module.get("aliases", {}).get(root, root)
        return ".".join([resolved_root] + chain)


def _union(arg_labels, kw_labels) -> set[Label]:
    """Every label passed to a call, positionally or by keyword."""
    result: set[Label] = set()
    for labels in arg_labels:
        result |= labels
    for _, labels in kw_labels:
        result |= labels
    return result


def func_path(index: ProjectIndex, func: dict) -> str:
    return index.path_of(func["id"])


def run_flow_rules(
    index: ProjectIndex, specs: tuple[FlowSpec, ...]
) -> list[Finding]:
    """Run every flow rule over one shared call graph; findings sorted."""
    graph = build_call_graph(index)
    findings: list[Finding] = []
    for spec in specs:
        findings.extend(TaintAnalysis(index, spec, graph).run())
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule_id))
    return findings
