"""What a process imports, and what the packages still export.

Deterministic (no timing): each check runs in a fresh interpreter and
inspects ``sys.modules``.  A plain ``repro walk`` must load none of the
subsystems it does not run; every other subcommand must still find
what it needs; the package ``__init__``s state their exports once, in
``lazy_exports(...)`` groups (``repro._lazy``), and resolve each name on
first access.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.generators import uniform_degree_graph
from repro.graph.io import save_edge_list

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_PACKAGES = [
    "repro",
    "repro.graph",
    "repro.core",
    "repro.sampling",
    "repro.algorithms",
    "repro.cluster",
    "repro.obs",
    "repro.service",
]
# Nothing of these may be loaded by `import repro.cli` or a plain walk.
NOT_FOR_A_PLAIN_WALK = (
    "repro.lint",
    "repro.cluster",
    "repro.service",
    "repro.bench",
    "repro.baselines",
    "repro.obs.exporters",
    "repro.graph.wal",
    "repro.graph.dynamic",
    "repro.analysis",
)


def run_python(code: str, *argv: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def edge_list(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "graph.txt"
    save_edge_list(uniform_degree_graph(60, 4, seed=1, undirected=True), path)
    return str(path)


LOADED = """
import sys
def loaded(prefixes):
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
"""


def test_plain_walk_loads_no_other_subsystem(edge_list, tmp_path):
    code = LOADED + """
import json
import repro.cli
prefixes = sys.argv[3:]
after_import = loaded(prefixes)
code = repro.cli.main([
    "walk", "--edge-list", sys.argv[1], "--algorithm", "deepwalk",
    "--walkers", "50", "--length", "5", "--output", sys.argv[2],
])
print(json.dumps([code, after_import, loaded(prefixes)]))
"""
    corpus = tmp_path / "corpus.txt"
    done = run_python(code, edge_list, str(corpus), *NOT_FOR_A_PLAIN_WALK)
    assert done.returncode == 0, done.stderr
    code, after_import, after_walk = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert after_import == []
    assert after_walk == []
    assert len(corpus.read_text().splitlines()) == 50


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--algorithm", "node2vec", "--walkers", "30", "--length", "5",
         "--nodes", "4", "--drop", "0.05", "--emit-metrics", "m.prom",
         "--emit-trace", "t.json"],
        ["walk", "--algorithm", "metapath", "--walkers", "30", "--length", "5"],
        ["walk", "--algorithm", "ppr", "--walkers", "30", "--updates", "u.txt",
         "--wal", "log.wal"],
        ["serve", "--requests", "20", "--service-workers", "2"],
        ["sanitize", "--walkers", "20", "--length", "4"],
        ["info"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_other_subcommands_import_what_they_need(argv, edge_list, tmp_path):
    (tmp_path / "u.txt").write_text("insert 0 7 1.0\ncommit\n")
    code = "import sys, repro.cli; sys.exit(repro.cli.main(sys.argv[1:]))"
    done = run_python(
        code, argv[0], "--edge-list", edge_list, *argv[1:], cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["lint", "bench", "walk"])
def test_help_of_each_subcommand(command):
    code = "import sys, repro.cli; sys.exit(repro.cli.main(sys.argv[1:]))"
    done = run_python(code, command, "--help")
    assert done.returncode == 0, done.stderr
    assert f"repro {command}" in done.stdout
    if command == "lint":  # the analyzer's own flags, parsed by its own parser
        assert "--strict" in done.stdout and "--flow-budget" in done.stdout


def test_lint_through_the_main_cli(tmp_path):
    (tmp_path / "clean.py").write_text("VALUE = 1\n")
    code = "import sys, repro.cli; sys.exit(repro.cli.main(sys.argv[1:]))"
    done = run_python(code, "lint", "clean.py", "--no-cache", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr


def test_analyzer_runs_without_numpy():
    """lint/cli.py and the CI lint job promise it; repro/__init__ used
    to import the engines (and numpy) before the analyzer got a say."""
    code = """
import runpy, sys
sys.modules["numpy"] = None          # any `import numpy` now raises
sys.argv = ["repro.lint", "--help"]
runpy.run_module("repro.lint", run_name="__main__")
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert "--strict" in done.stdout


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_exported_name_resolves_and_is_cached(self, package):
        code = LOADED + """
import importlib
package = importlib.import_module(sys.argv[1])
before = loaded(["repro"])
for name in package.__all__:
    assert name not in vars(package) or name == "__version__", name
    value = getattr(package, name)
    assert vars(package)[name] is value, name      # cached: the hook ran once
print(len(before), len(package.__all__))
"""
        done = run_python(code, package)
        assert done.returncode == 0, done.stderr
        modules_before, exported = map(int, done.stdout.split())
        assert exported > 0
        # Importing the package loaded it, its parent and repro._lazy only.
        assert modules_before <= 3 + package.count(".")

    def test_star_import_dir_and_unknown_attribute(self, package):
        module = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        assert set(module.__all__) <= set(dir(module))
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            module.no_such_name

    def test_declared_names_resolve_where_stated(self, package):
        """The ``lazy_exports(...)`` groups are the one declaration —
        ``__all__`` is derived from them, and ``repro.lint``'s alias
        index reads them from the source: each name must be the object
        the submodule it is stated under defines."""
        from repro.lint.flow.ir import collect_aliases

        module = importlib.import_module(package)
        tree = ast.parse(Path(module.__file__).read_text())
        stated = {
            name: origin
            for name, origin in collect_aliases(tree, package, True).items()
            if origin.startswith(package + ".") and name != "lazy_exports"
        }
        assert set(stated) == set(module.__all__) - {"__version__"}
        for name, origin in stated.items():
            home = importlib.import_module(origin.rsplit(".", 1)[0])
            assert getattr(home, name) is getattr(module, name)


def test_disagreeing_declarations_fail_at_import():
    """The only way left to disagree: one name under two submodules."""
    from repro._lazy import lazy_exports

    namespace = {"__name__": "pkg"}
    with pytest.raises(ImportError, match=r"pkg: .*\['b'\] twice"):
        lazy_exports(namespace, mod=("a", "b"), other=("b", "c"))
    exported, _, _ = lazy_exports(namespace, mod=("a", "b"), other=("c",))
    assert exported == ["a", "b", "c"]


def test_flow_index_still_resolves_package_reexports():
    """`from repro.graph import load_edge_list` must still lead the
    analyzer to repro.graph.io through the lazy package."""
    from repro.lint.flow import ProjectIndex

    root = SRC / "repro"
    index = ProjectIndex.build(
        (str(path), path.relative_to(SRC).as_posix(), path.read_text(), None)
        for path in sorted(root.rglob("*.py"))
    )
    assert index.resolve("repro.graph.load_edge_list") == (
        "func",
        "repro.graph.io:load_edge_list",
    )
    assert index.resolve("repro.WalkEngine") == (
        "class",
        ("repro.core.engine", "WalkEngine"),
    )
