"""Sampling substrate: alias tables, inverse transform sampling,
rejection sampling, and deterministic RNG management.

These are the three samplers the paper contrasts in sections 3-4:
alias and ITS pre-process *static* distributions; rejection sampling on
top of them makes *dynamic* (walker-dependent) distributions cheap.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sampling.alias import AliasTable, VertexAliasTables, build_alias_arrays
    from repro.sampling.its import VertexITSTables, its_sample_from_cdf
    from repro.sampling.rejection import (
        OutlierSpec,
        RejectionSampler,
        SamplingCounters,
        expected_trials,
    )
    from repro.sampling.rng import derive_rng, make_rng, spawn_rngs
    from repro.sampling.typed import TypedVertexAliasTables

__all__ = [
    "AliasTable",
    "VertexAliasTables",
    "build_alias_arrays",
    "VertexITSTables",
    "its_sample_from_cdf",
    "OutlierSpec",
    "RejectionSampler",
    "SamplingCounters",
    "expected_trials",
    "TypedVertexAliasTables",
    "make_rng",
    "spawn_rngs",
    "derive_rng",
]

__getattr__, __dir__ = lazy_exports(
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
