"""The lint flow engine's global sweep as it stood before the worklist
(1d2e064), with its two round caps lifted, kept as the reference:
``tests/test_taint_reference.py`` requires the worklist's findings to
equal this sweep's on random programs.

The sweep passed every function in sorted order, and repeated the
round until no summary, class attribute or module global changed.  It
stopped after 40 such rounds and cut each function's facts at 4 local
rounds; both caps dropped findings silently, so here the rounds run to
the fixed point (the local loop in ``_pass`` already does).  The
summary is stored as the pass computed it, with no join.

Only the iteration is frozen.  The transfer functions (``_pass``,
``_fact``, ``_expr``, ``_call``, the sink checks, ``_findings``) are
the live ones on purpose, so the comparison isolates the order in
which functions are passed.  A store is detected by comparing the
class-attribute and global tables before and after a round, so nothing
here depends on the worklist's re-queueing (what the inherited
``_write`` queues is never popped).
"""

from repro.lint.flow.taint import TaintAnalysis, _Out, _srcs


class SweepTaintAnalysis(TaintAnalysis):
    def run(self):
        order = sorted(self.index.functions)
        while True:
            changed = False
            stores = (dict(self.class_attrs), dict(self.globals_taint))
            hits = {}
            for fid in order:
                func = self.index.functions[fid]
                out = _Out()
                ret = self._pass(func, out)
                summary = (
                    frozenset(lb for lb in ret if isinstance(lb, str))
                    | _srcs(ret),
                    frozenset(out.psinks),
                )
                if summary != self.summaries[fid]:
                    self.summaries[fid] = summary
                    changed = True
                for site, labels in out.hits.items():
                    hits.setdefault(site, set()).update(labels)
            if stores != (self.class_attrs, self.globals_taint):
                changed = True
            if not changed:
                return self._findings(hits)
