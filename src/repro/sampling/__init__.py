"""Sampling substrate: alias tables, inverse transform sampling,
rejection sampling, and deterministic RNG management.

These are the three samplers the paper contrasts in sections 3-4:
alias and ITS pre-process *static* distributions; rejection sampling on
top of them makes *dynamic* (walker-dependent) distributions cheap.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    alias=("AliasTable", "VertexAliasTables", "build_alias_arrays"),
    its=("VertexITSTables", "its_sample_from_cdf"),
    rejection=(
        "OutlierSpec",
        "RejectionSampler",
        "SamplingCounters",
        "expected_trials",
    ),
    rng=("derive_rng", "make_rng", "spawn_rngs"),
    typed=("TypedVertexAliasTables",),
)
