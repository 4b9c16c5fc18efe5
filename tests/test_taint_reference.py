"""The flow engine's worklist against the frozen global sweep.

``TaintAnalysis.run`` passes functions from a callee-first worklist and
re-queues only the callers of a changed summary and the readers of a
changed class attribute or module global.  ``tests/reference_taint.py``
keeps the old sweep (every function, sorted, until a round changes
nothing), caps lifted.  Hypothesis draws multi-module programs — call
cycles and self-recursion, ``self`` attributes written in a base class
and read in a subclass, module globals read bare and dotted, loops
whose assignments feed earlier statements, and the sources and sinks of
all four flow rules, a simulated-time module included — and requires
both to report the same ``(rule, path, line, col, message)`` findings.

At most six source sites per program: above six, the cut of each
value's source labels to the six smallest may keep different labels
depending on the order functions are visited, and both answers are
sound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.flow import FLOW_RULES, ProjectIndex, TaintAnalysis
from repro.lint.flow.callgraph import build_call_graph
from tests.reference_taint import SweepTaintAnalysis

MAX_FUNCTIONS = 12
MAX_SOURCES = 6

# (module, class) homes; m2 sits in RK210's simulated-time region.
FILES = {"m0": "pkg/m0.py", "m1": "pkg/m1.py", "m2": "cluster/m2.py"}
HOMES = (("m0", None), ("m0", "Base"), ("m1", None), ("m1", "Child"),
         ("m2", None))
CLASS_MODULE = {"Base": "m0", "Child": "m1"}
HEADER = ("import pickle", "import time", "", "import numpy as np", "",
          "import m0", "import m1", "import m2", "", "G = None")
SOURCES = (
    "np.random.default_rng({0})",  # RK110
    "time.time()",  # RK210
    "{0}.snapshot()",  # RK106
    "(lambda: {0})",  # RK310
    "open({0})",  # RK310
    "(x for x in {0})",  # RK310
)
SINKS = (
    "pickle.dumps({0})",
    "chan.send({0})",
    "pool.submit({0}, {1})",
    "self.cache[0] = {0}",
    "a.view = {0}",
    "G = {0}",
)


@st.composite
def programs(draw):
    n = draw(st.integers(2, MAX_FUNCTIONS))
    homes = [draw(st.sampled_from(HOMES)) for _ in range(n)]
    sources = [0]

    def mro(cls):
        return {"Base": {"Base"}, "Child": {"Base", "Child"}}.get(cls, set())

    def call(i, j, args):
        module, cls = homes[j]
        if cls is None:
            if module == homes[i][0] and draw(st.booleans()):
                return f"f{j}({args})"
            return f"{module}.f{j}({args})"
        if cls in mro(homes[i][1]):
            return f"self.f{j}({args})"
        return f"{CLASS_MODULE[cls]}.{cls}.f{j}(a, {args})"

    def expr(i, depth):
        method = homes[i][1] is not None
        attr = "self.x" if method else "a.x"
        leaves = ["a", "b", "v0", "v1", "G", "G", "m0.G", "m2.G", attr, attr]
        kinds = ["leaf"] * 4
        if depth < 2:
            kinds += ["call", "call", "wrap", "list"]
            if sources[0] < MAX_SOURCES:
                kinds += ["source", "source"]
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            return draw(st.sampled_from(leaves))
        inner = expr(i, depth + 1)
        if kind == "call":
            j = draw(st.integers(0, n - 1))
            return call(i, j, f"{inner}, {expr(i, depth + 1)}")
        if kind == "wrap":
            return draw(st.sampled_from((
                "int({0})", "{0}.bit_generator", "{0}.field", "{0}.spawn()",
                "{0}.run()",
            ))).format(inner)
        if kind == "list":
            return f"[{inner}, {expr(i, depth + 1)}]"
        sources[0] += 1
        return draw(st.sampled_from(SOURCES)).format(inner)

    def statement(i, indent):
        method = homes[i][1] is not None
        kind = draw(st.sampled_from(
            ["assign"] * 3 + ["return", "sink", "sink", "append", "attr",
                                "attr", "global"]
            + (["loop"] if indent == 1 else [])
        ))
        pad = "    " * indent
        if kind == "assign":
            return [f"{pad}v{draw(st.integers(0, 1))} = {expr(i, 0)}"]
        if kind == "return":
            return [f"{pad}return {expr(i, 0)}"]
        if kind == "append":
            return [f"{pad}v{draw(st.integers(0, 1))}.append({expr(i, 0)})"]
        if kind == "attr":
            target = "self" if method else "a"
            attr = draw(st.sampled_from(("x", "y")))
            return [f"{pad}{target}.{attr} = {expr(i, 0)}"]
        if kind == "global":
            return [f"{pad}G = {expr(i, 0)}"]
        if kind == "sink":
            sinks = SINKS if method else SINKS[:3] + SINKS[4:]
            sink = draw(st.sampled_from(sinks))
            return [pad + sink.format(expr(i, 0), expr(i, 0))]
        body = [f"{pad}for v{draw(st.integers(0, 1))} in {expr(i, 0)}:"]
        for _ in range(draw(st.integers(1, 4))):
            body += statement(i, indent + 1)
        return body

    functions = {home: [] for home in HOMES}
    for i, (module, cls) in enumerate(homes):
        pad = "    " if cls else ""
        params = "self, a, b" if cls else "a, b"
        lines = ["", f"{pad}def f{i}({params}):", f"{pad}    global G"]
        for _ in range(draw(st.integers(1, 6))):
            lines += [pad + line for line in statement(i, 1)]
        functions[module, cls] += lines

    files = []
    for module, rel_path in FILES.items():
        lines = list(HEADER)
        if module == "m1":
            lines += ["from m0 import Base"]
        for cls in ("Base", "Child"):
            if CLASS_MODULE[cls] != module:
                continue
            base = "(Base)" if cls == "Child" else ""
            lines += ["", "", f"class {cls}{base}:", "    attr = None"]
            lines += functions[module, cls]
        lines += functions[module, None]
        files.append((rel_path, "\n".join(lines) + "\n"))
    return files


def _key(findings):
    return [(f.rule_id, f.path, f.line, f.column, f.message)
            for f in findings]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(programs())
def test_worklist_reports_what_the_sweep_reports(files):
    index = ProjectIndex.build(
        [(f"oracle/{rel}", rel, source, None) for rel, source in files]
    )
    graph = build_call_graph(index)
    for spec in FLOW_RULES:
        worklist = TaintAnalysis(index, spec, graph).run()
        sweep = SweepTaintAnalysis(index, spec, graph).run()
        assert _key(worklist) == _key(sweep), spec.rule_id
