"""Random Walk with Restart (Tong, Faloutsos & Pan, ICDM 2006).

RWR is the restart-flavoured member of the random walk family the
paper's introduction cites: at each step the walker either follows an
out-edge (biased by weight, like PPR/DeepWalk) or, with probability
``restart_probability``, jumps back to its start vertex.  The walker's
stationary visit distribution is the relevance score of every vertex
with respect to the start — widely used for proximity queries and
recommendation.

RWR exercises two engine features beyond the four paper algorithms:

* per-walker custom state (each walker remembers its *home* vertex);
* the teleport hook (a jump is a move that samples no edge).

Restarting is equivalent in law to PPR's terminate-and-relaunch (a
restart chain of expected segment length ``1/c``), but operationally a
single long walk per query — which is exactly how RWR implementations
batch their queries.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import source_visit_distribution
from repro.core.config import WalkConfig
from repro.core.engine import WalkResult
from repro.core.program import WalkerProgram
from repro.core.walker import WalkerSet
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph

__all__ = ["RandomWalkWithRestart", "rwr_config", "rwr_scores"]

HOME_STATE = "rwr_home"


class RandomWalkWithRestart(WalkerProgram):
    """Biased static walk with probabilistic restart to the start."""

    name = "rwr"
    dynamic = False
    order = 1
    supports_batch = True

    def __init__(self, restart_probability: float = 0.15) -> None:
        if not 0.0 < restart_probability < 1.0:
            raise ProgramError("restart_probability must be in (0, 1)")
        self.restart_probability = float(restart_probability)

    def setup_walkers(
        self, graph: CSRGraph, walkers: WalkerSet, rng: np.random.Generator
    ) -> None:
        """Remember every walker's start vertex as its restart home."""
        walkers.add_state(HOME_STATE, walkers.current.copy())

    def teleport_targets(
        self,
        graph: CSRGraph,
        walkers: WalkerSet,
        walker_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        coins = rng.random(walker_ids.size)
        jumping = coins < self.restart_probability
        if not jumping.any():
            return walker_ids[:0], walkers.current[walker_ids[:0]]
        jumpers = walker_ids[jumping]
        homes = walkers.state(HOME_STATE)[jumpers]
        return jumpers, homes


def rwr_config(
    num_walkers: int | None = None,
    walk_length: int = 400,
    seed: int = 0,
    record_paths: bool = True,
) -> WalkConfig:
    """Long fixed-length walks; visit counts estimate RWR relevance."""
    return WalkConfig(
        num_walkers=num_walkers,
        max_steps=walk_length,
        termination_probability=0.0,
        seed=seed,
        record_paths=record_paths,
    )


def rwr_scores(result: WalkResult, source: int, num_vertices: int) -> np.ndarray:
    """RWR relevance vector of ``source`` from recorded walks.

    Normalised visit counts over all walks started at ``source`` —
    the Monte-Carlo estimate of the restart chain's stationary
    distribution.
    """
    if result.paths is None:
        raise ProgramError("rwr_scores needs record_paths=True walks")
    return source_visit_distribution(result.paths, source, num_vertices)
