"""Python-level calls a superstep does not need, guarded.

With tables cached, a small request's cost is its supersteps' fixed
cost, and that is per-call Python and numpy-wrapper work, not work per
lane (docs/INTERNALS.md, "Fixed cost of a superstep").  Each guard
counts the Python functions one superstep enters — ``sys.setprofile``
"call" events: engine, kernels, program hooks and numpy's own Python
wrappers — and allows a tenth more than the count it was set at.  A
failure names every function entered and how often."""

import collections
import gc
import sys

import pytest

from repro.algorithms import DeepWalk, Node2Vec
from repro.core.config import WalkConfig
from repro.core.engine import WalkEngine
from repro.graph.builder import assign_random_weights
from repro.graph.generators import uniform_degree_graph
from repro.graph.prepared import prepare

# Calls per superstep when each guard was set (the parent of the change
# that set them entered 58 and 68).
CALLS = {"deepwalk-64": 37, "node2vec-256": 49}
SLACK = 1.10


@pytest.fixture(scope="module")
def prepared():
    graph = assign_random_weights(
        uniform_degree_graph(2000, 8, seed=3, undirected=True), seed=4
    )
    prepared = prepare(graph)
    prepared.tables("alias")  # cached: no superstep below builds one
    return prepared


def superstep_calls(engine) -> collections.Counter:
    """Python functions entered by one superstep, by ``file:name``."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    gc.disable()  # a collection mid-superstep would count finalizers
    sys.setprofile(profile)
    try:
        engine._iteration()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.mark.parametrize(
    "cell, program, walkers",
    [
        ("deepwalk-64", DeepWalk(), 64),
        ("node2vec-256", Node2Vec(p=2.0, q=0.5), 256),
    ],
)
def test_a_superstep_enters_few_python_functions(prepared, cell, program, walkers):
    config = WalkConfig(num_walkers=walkers, max_steps=40, seed=1, record_paths=True)
    engine = WalkEngine(prepared, program, config)
    engine.run(max_iterations=2)  # past the first moves: a steady superstep
    calls = superstep_calls(engine)
    entered = sum(calls.values())
    listing = ", ".join(f"{name} x{count}" for name, count in sorted(calls.items()))
    assert entered <= CALLS[cell] * SLACK, (
        f"{cell}: one superstep entered {entered} Python functions "
        f"(guard {CALLS[cell]} + 10%): {listing}"
    )
