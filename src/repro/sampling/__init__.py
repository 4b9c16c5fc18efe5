"""Sampling substrate: alias tables, rejection sampling, and
deterministic RNG management.

Alias tables pre-process the *static* distribution Ps (paper section
3); rejection sampling on top of them makes *dynamic*
(walker-dependent) distributions cheap (section 4).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    alias=("AliasTable", "VertexAliasTables", "build_alias_arrays"),
    rejection=(
        "OutlierSpec",
        "RejectionSampler",
        "SamplingCounters",
        "expected_trials",
    ),
    rng=("derive_rng", "make_rng", "spawn_rngs"),
    typed=("TypedVertexAliasTables",),
)
