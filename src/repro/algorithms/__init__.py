"""Built-in random walk algorithms (paper section 2.2).

Four representative algorithms spanning the taxonomy:

* :class:`~repro.algorithms.deepwalk.DeepWalk` — biased, static;
* :class:`~repro.algorithms.ppr.PPR` — biased, static, geometric
  termination;
* :class:`~repro.algorithms.metapath.MetaPathWalk` — dynamic,
  first-order;
* :class:`~repro.algorithms.node2vec.Node2Vec` — dynamic, second-order;

plus :class:`~repro.algorithms.uniform.UniformWalk`, the unbiased
static special case.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.algorithms.avoiding import WindowedSelfAvoidingWalk
    from repro.algorithms.deepwalk import DeepWalk, build_corpus, deepwalk_config
    from repro.algorithms.metapath import MetaPathWalk, random_schemes
    from repro.algorithms.node2vec import Node2Vec, node2vec_config
    from repro.algorithms.nonbacktracking import NonBacktrackingWalk
    from repro.algorithms.ppr import (
        DEFAULT_TERMINATION,
        POWERWALK_TERMINATION,
        PPR,
        estimate_ppr,
        ppr_config,
    )
    from repro.algorithms.rwr import RandomWalkWithRestart, rwr_config, rwr_scores
    from repro.algorithms.triangle import TriangleClosingWalk, common_neighbour_count
    from repro.algorithms.uniform import UniformWalk

__all__ = [
    "UniformWalk",
    "DeepWalk",
    "deepwalk_config",
    "build_corpus",
    "PPR",
    "ppr_config",
    "estimate_ppr",
    "DEFAULT_TERMINATION",
    "POWERWALK_TERMINATION",
    "MetaPathWalk",
    "random_schemes",
    "Node2Vec",
    "node2vec_config",
    "NonBacktrackingWalk",
    "WindowedSelfAvoidingWalk",
    "RandomWalkWithRestart",
    "rwr_config",
    "rwr_scores",
    "TriangleClosingWalk",
    "common_neighbour_count",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    avoiding=("WindowedSelfAvoidingWalk",),
    deepwalk=("DeepWalk", "build_corpus", "deepwalk_config"),
    metapath=("MetaPathWalk", "random_schemes"),
    node2vec=("Node2Vec", "node2vec_config"),
    nonbacktracking=("NonBacktrackingWalk",),
    ppr=(
        "DEFAULT_TERMINATION",
        "POWERWALK_TERMINATION",
        "PPR",
        "estimate_ppr",
        "ppr_config",
    ),
    rwr=("RandomWalkWithRestart", "rwr_config", "rwr_scores"),
    triangle=("TriangleClosingWalk", "common_neighbour_count"),
    uniform=("UniformWalk",),
)
