"""Walk configuration: walker count, starts, termination, seeding.

This captures the paper's "initialization and termination" APIs
(section 5.2): users specify the number of walkers, optionally start
locations or a start distribution, and the extension component Pe via a
fixed walk length and/or a per-step termination probability.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = ["WalkConfig", "DEFAULT_WALK_LENGTH"]

# "a fixed walk length (80 used in our evaluation, a common setup
# recommended in prior work)" — paper section 2.2.
DEFAULT_WALK_LENGTH = 80


@dataclass(frozen=True)
class WalkConfig:
    """Configuration for one random walk execution.

    Attributes
    ----------
    num_walkers:
        how many walkers to launch; ``None`` means ``|V|`` (the paper's
        evaluation deploys ``|V|`` walkers on every test).
    walks_per_vertex:
        launch this many walkers *per vertex* instead (DeepWalk's gamma
        rounds; the paper: "the process may be repeated for multiple
        rounds").  Mutually exclusive with ``num_walkers``.
    max_steps:
        fixed walk length (Pe becomes 0 after this many steps);
        ``None`` disables the cap (then ``termination_probability``
        must be positive, or walks would never end).
    termination_probability:
        per-step probability of stopping, the PPR-style geometric
        termination.  0 disables it.
    start_vertices:
        explicit start vertex per walker.  ``None`` selects the paper's
        default placement: walker ``i`` starts at vertex ``i mod |V|``.
    start_distribution:
        per-vertex probability weights from which start vertices are
        sampled (the paper's "distribution of starting locations" API,
        section 5.2).  Mutually exclusive with ``start_vertices``.
    seed:
        non-negative master seed; all randomness (starts, sampling,
        termination coins) derives from it deterministically.
    record_paths:
        whether the engine keeps full walk sequences (needed by
        DeepWalk/node2vec corpus generation; off for pure benchmarks).
    stream_paths_to:
        write each walk sequence to this corpus file as soon as its
        walker terminates, instead of keeping sequences in memory —
        constant-memory output for huge runs.  Mutually exclusive with
        ``record_paths`` (the result's ``paths`` stays ``None``).
    """

    num_walkers: int | None = None
    walks_per_vertex: int | None = None
    max_steps: int | None = DEFAULT_WALK_LENGTH
    termination_probability: float = 0.0
    start_vertices: np.ndarray | None = None
    start_distribution: np.ndarray | None = None
    seed: int = 0
    record_paths: bool = False
    stream_paths_to: str | None = None

    def __post_init__(self) -> None:
        for name in ("num_walkers", "walks_per_vertex", "max_steps", "seed"):
            value = getattr(self, name)
            # A fraction would be rounded up by the launch, not refused.
            if value is not None and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.start_vertices is not None and self.start_distribution is not None:
            raise ConfigError(
                "start_vertices and start_distribution are mutually exclusive"
            )
        if self.record_paths and self.stream_paths_to is not None:
            raise ConfigError(
                "record_paths and stream_paths_to are mutually exclusive"
            )
        if self.num_walkers is not None and self.walks_per_vertex is not None:
            raise ConfigError(
                "num_walkers and walks_per_vertex are mutually exclusive"
            )
        if self.num_walkers is not None and self.num_walkers <= 0:
            raise ConfigError("num_walkers must be positive")
        if self.walks_per_vertex is not None and self.walks_per_vertex <= 0:
            raise ConfigError("walks_per_vertex must be positive")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be non-negative")
        if not 0.0 <= self.termination_probability <= 1.0:
            raise ConfigError("termination_probability must be in [0, 1]")
        if self.max_steps is None and self.termination_probability == 0.0:
            raise ConfigError(
                "either max_steps or termination_probability must bound walks"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def evolve(self, **changes: Any) -> WalkConfig:
        """A copy with the given fields replaced, re-validated.

        The config is frozen, so derived configurations (per-shard
        splits in :mod:`repro.parallel`, the degradation ladder in
        :mod:`repro.service.degrade`) go through here — mutual-
        exclusion and range checks re-run on the result.
        """
        return dataclasses.replace(self, **changes)

    def resolve_num_walkers(self, graph: CSRGraph) -> int:
        """Walker count after applying the |V| default."""
        if self.num_walkers is not None:
            return self.num_walkers
        if self.walks_per_vertex is not None:
            return self.walks_per_vertex * graph.num_vertices
        return graph.num_vertices

    def resolve_starts(self, graph: CSRGraph) -> np.ndarray:
        """Start vertex per walker.

        Explicit ``start_vertices`` win; a ``start_distribution`` is
        sampled (deterministically from the seed); otherwise the
        paper's default strategy places the i-th walker at vertex
        ``i mod |V|``.
        """
        count = self.resolve_num_walkers(graph)
        if self.start_vertices is not None:
            starts = np.asarray(self.start_vertices, dtype=np.int64)
            if starts.size != count:
                raise ConfigError(
                    f"{starts.size} start vertices for {count} walkers"
                )
            if starts.size and (
                starts.min() < 0 or starts.max() >= graph.num_vertices
            ):
                raise ConfigError("start vertex out of range")
            return starts
        if self.start_distribution is not None:
            weights = np.asarray(self.start_distribution, dtype=np.float64)
            if weights.size != graph.num_vertices:
                raise ConfigError(
                    "start_distribution must have one weight per vertex"
                )
            finite = np.isfinite(weights)
            if not finite.all():
                vertex = int(np.argmin(finite))
                raise ConfigError(
                    f"start_distribution weight of vertex {vertex} is not "
                    f"finite ({weights[vertex]})"
                )
            if weights.min() < 0 or weights.sum() <= 0:
                raise ConfigError(
                    "start_distribution weights must be non-negative with "
                    "positive total"
                )
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(0x57A7,))
            )
            return rng.choice(
                graph.num_vertices, size=count, p=weights / weights.sum()
            ).astype(np.int64)
        return np.arange(count, dtype=np.int64) % graph.num_vertices
