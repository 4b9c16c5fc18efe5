"""The run state is enumerated once, by the engine.

``WalkEngine.state_arrays()`` / ``load_state_arrays()`` name every
array a run advances; the in-memory crash rollback
(``repro.cluster.recovery``) copies that dict and writes it back, the
checkpoint file (``repro.core.snapshot``) is that dict plus the paths.
So a state array a program registers is carried by both without either
module knowing it exists — which is what these tests hold them to.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.cluster.recovery as recovery
import repro.core.snapshot as snapshot
from repro.algorithms import WindowedSelfAvoidingWalk
from repro.cluster.recovery import capture_cluster_state, restore_cluster_state
from repro.core.config import WalkConfig
from repro.core.snapshot import restore_checkpoint, save_checkpoint
from repro.graph.generators import uniform_degree_graph
from tests.test_golden_walks import digest
from tests.test_path_recording import make_walk_engine

GRAPH = uniform_degree_graph(120, 6, seed=3, undirected=True)
CONFIG = WalkConfig(num_walkers=60, max_steps=40, seed=7, record_paths=True)


class FuelledWalk(WindowedSelfAvoidingWalk):
    """Walker history (window 3) plus a custom state array that the run
    advances and the walk depends on: every superstep burns one unit of
    a walker's fuel, and an empty tank ends its walk."""

    def __init__(self):
        super().__init__(window=3)

    def setup_walkers(self, graph, walkers, rng):
        walkers.add_state("fuel", rng.integers(4, 30, size=walkers.num_walkers))

    def batch_should_continue(self, graph, walkers, walker_ids):
        fuel = walkers.state("fuel")
        fuel[walker_ids] -= 1
        return fuel[walker_ids] > 0


def make(nodes):
    return make_walk_engine(GRAPH, FuelledWalk(), CONFIG, nodes=nodes)


def summary(engine) -> dict:
    result = dict(digest(engine))
    # The tracer joins mid-run on a resumed engine, so its hash covers
    # a suffix; the product and the counts cover the whole run.
    del result["rolling_hash"]
    result["fuel"] = engine.walkers.state("fuel").tolist()
    result["history"] = engine.walkers.history.tolist()
    return result


@pytest.mark.parametrize("nodes", [0, 4], ids=["local", "4node"])
def test_rollback_and_restore_continue_to_the_same_digest(nodes, tmp_path):
    uninterrupted = summary(make(nodes))
    assert uninterrupted["total_steps"] > 0
    assert min(uninterrupted["fuel"]) == 0  # the fuel state decided walks

    engine = make(nodes)
    engine.run(max_iterations=5)
    save_checkpoint(engine, tmp_path / "walk.npz")
    if nodes:
        held = capture_cluster_state(engine)
        carried = held.state
    else:
        held = carried = {k: np.copy(v) for k, v in engine.state_arrays().items()}
    with np.load(tmp_path / "walk.npz") as on_disk:
        for store in (carried, on_disk):
            np.testing.assert_array_equal(
                store["state_fuel"], engine.walkers.state("fuel")
            )
            np.testing.assert_array_equal(store["history"], engine.walkers.history)

    engine.run(max_iterations=4)  # walk on, then take it all back
    assert not np.array_equal(carried["state_fuel"], engine.walkers.state("fuel"))
    stats = engine.stats
    if nodes:
        restore_cluster_state(engine, held)
    else:
        engine.load_state_arrays(held)
    assert engine.stats is stats and stats.iterations == 5
    rolled_back, expected = summary(engine), dict(uninterrupted)
    if nodes:
        # What the four wasted supersteps cost stays on the bill.
        assert rolled_back.pop("num_supersteps") == expected.pop("num_supersteps") + 4
        assert float.fromhex(rolled_back.pop("simulated_seconds")) > float.fromhex(
            expected.pop("simulated_seconds")
        )
    assert rolled_back == expected

    restored = restore_checkpoint(GRAPH, FuelledWalk(), CONFIG, tmp_path / "walk.npz")
    assert type(restored) is type(engine)
    assert summary(restored) == uninterrupted


@pytest.mark.parametrize("module", [recovery, snapshot], ids=["rollback", "file"])
def test_neither_copy_names_a_walker_array(module):
    """Both go through the engine's enumeration: no walker, streak or
    RNG key is spelled out in either module (nor, of course, ``fuel``)."""
    tree = ast.parse(Path(module.__file__).read_text())
    spelled = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not spelled & {
        "current", "previous", "steps", "alive", "history",
        "rejection_streak", "rng_state", "_rejection_streak", "_rng", "_custom",
    }
