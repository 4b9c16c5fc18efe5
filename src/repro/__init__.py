"""repro — a pure-Python reproduction of KnightKing (SOSP '19).

KnightKing is a general-purpose distributed graph random walk engine
built around rejection sampling over a unified transition probability
``P(e) = Ps(e) * Pd(e, v, w) * Pe(v, w)``.  This package reimplements
the full system from scratch:

* :mod:`repro.graph` — CSR storage, generators, partitioning;
* :mod:`repro.sampling` — alias, ITS, and rejection samplers;
* :mod:`repro.core` — the walker-centric programming model and engine;
* :mod:`repro.algorithms` — DeepWalk, PPR, Meta-path, node2vec;
* :mod:`repro.cluster` — the distributed-execution simulator;
* :mod:`repro.baselines` — full-scan and Gemini-style comparators;
* :mod:`repro.bench` — harnesses regenerating every table and figure.

Quickstart::

    from repro import WalkEngine, WalkConfig
    from repro.algorithms import DeepWalk
    from repro.graph import livejournal_like

    graph = livejournal_like(scale=0.1)
    result = WalkEngine(
        graph, DeepWalk(), WalkConfig(num_walkers=1000, record_paths=True)
    ).run()
    print(result.stats.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    core=("WalkConfig", "WalkEngine", "WalkResult", "WalkerProgram"),
    errors=("ReproError",),
)
__all__.append("__version__")
