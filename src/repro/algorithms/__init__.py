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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
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
