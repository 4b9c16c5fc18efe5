"""Rejection sampling for dynamic random walk (paper section 4).

This module is the reference implementation of KnightKing's core idea:
sample a *candidate* edge from the pre-processed static distribution
Ps, then accept or reject it against the dynamic component Pd — so that
only the candidate's Pd is ever computed, instead of scanning all
out-edges to rebuild the full distribution.

The geometry (Figures 2 and 3 of the paper):

* the *envelope* ``y = Q(v)`` is a per-vertex constant upper-bounding
  every Pd value; a trial throws a dart uniformly under the envelope
  and accepts if it lands inside the candidate's probability bar;
* an optional *lower bound* ``y = L(v)`` pre-accepts darts that land on
  or below it without evaluating Pd at all (saving remote state queries
  for second-order walks);
* *outliers* — a few edges whose Pd towers above the rest — are folded:
  the envelope drops to the non-outlier maximum and each outlier's
  chopped upper part becomes an "appendix" region appended to the
  dartboard, visited with probability proportional to its (estimated)
  area and corrected on arrival.

Expected trials per sample follow the paper's equation (3):
``E = Q(v) * sum(Ps) / sum(Ps * Pd)`` — independent of vertex degree.

The scalar :class:`RejectionSampler` here is the semantic reference used
by the generic engine and the property-based tests; the vectorised
kernels in :mod:`repro.core.kernels` implement the same math in batch.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ProgramError, SamplingError
from repro.obs.counted import Counted, counter
from repro.sampling.alias import VertexAliasTables
from repro.sampling.its import VertexITSTables

__all__ = [
    "OutlierSpec",
    "SamplingCounters",
    "RejectionSampler",
    "expected_trials",
]

StaticTables = VertexAliasTables | VertexITSTables

# Rejection sampling terminates with probability 1, but a buggy user
# program (e.g. an upper bound of +inf) could loop forever; cap trials
# at a value no legitimate distribution gets near.
DEFAULT_MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class OutlierSpec:
    """Declaration of one outlier edge to fold out of the envelope.

    Attributes
    ----------
    edge:
        flat edge index of the outlier.  The paper notes that users may
        not know the exact outlier edge; here the walker usually does
        (node2vec's outlier is the return edge to ``walker.prev``).
    pd_bound:
        upper bound on this edge's Pd; must be >= its true Pd.
    width:
        upper bound on the outlier's static mass Ps.  The appendix area
        is estimated as ``width * (pd_bound - envelope)`` and the
        correction on arrival divides the true chopped area by it.
    static_mass:
        the outlier's *exact* static mass, when known.  Defaults to the
        tables' Ps of ``edge``; node2vec passes the summed mass of all
        parallel return edges so folding stays exact on multigraphs.
    """

    edge: int
    pd_bound: float
    width: float = 1.0
    static_mass: float | None = None


@dataclass
class SamplingCounters(Counted, prefix="walk"):
    """Work counters, the machine-independent quantities the paper
    reports (Table 1, Table 5, Figure 6 all plot Pd evaluations/step)."""

    trials: int = counter("rejection-sampling trials", export="walk_sampling_trials")
    pd_evaluations: int = counter("dynamic-component evaluations")
    pre_accepts: int = counter("lower-bound pre-accepted trials")
    appendix_trials: int = counter("trials that landed in an outlier appendix")
    accepts: int = counter("accepted trials", export="walk_sampling_accepts")

    def acceptance_rate(self) -> float | None:
        """Observed accepts/trials, or ``None`` before any trials.

        A fused (widened) trial round sizes its speculation from this
        rate (see :func:`repro.core.kernels.adaptive_trial_count`)."""
        if self.trials <= 0:
            return None
        return self.accepts / self.trials

    def reset(self) -> None:
        self.unpack(np.zeros_like(self.pack()))


def expected_trials(
    static_weights: np.ndarray, dynamic_values: np.ndarray, envelope: float
) -> float:
    """Paper equation (3): mean trials to accept one sample."""
    static_weights = np.asarray(static_weights, dtype=np.float64)
    dynamic_values = np.asarray(dynamic_values, dtype=np.float64)
    effective = float((static_weights * dynamic_values).sum())
    if effective <= 0:
        raise SamplingError("distribution has zero total mass")
    return envelope * float(static_weights.sum()) / effective


class RejectionSampler:
    """Scalar rejection sampler over a graph's static tables.

    Parameters
    ----------
    static_tables:
        pre-built :class:`VertexAliasTables` (O(1) candidate draws, the
        engine default) or :class:`VertexITSTables` (O(log d) draws).
    """

    def __init__(self, static_tables: StaticTables) -> None:
        self._tables = static_tables
        self._graph = static_tables.graph

    @property
    def graph(self):
        return self._graph

    def sample(
        self,
        vertex: int,
        rng: np.random.Generator,
        pd_of: Callable[[int], float],
        upper: float,
        lower: float = 0.0,
        outliers: Sequence[OutlierSpec] = (),
        counters: SamplingCounters | None = None,
        max_trials: int = DEFAULT_MAX_TRIALS,
    ) -> int:
        """Sample one out-edge of ``vertex``; returns its flat index.

        ``pd_of`` maps a flat edge index to its dynamic component Pd.
        ``upper`` is the envelope Q(v) for non-outlier edges; each
        declared outlier may exceed it up to its own ``pd_bound``.

        Raises :class:`ProgramError` if a Pd evaluation exceeds its
        declared bound (which would make the sampler silently wrong),
        and :class:`SamplingError` when the vertex has no out-edges or
        acceptance never happens within ``max_trials``.
        """
        for _ in range(max_trials):
            edge = self.try_once(
                vertex, rng, pd_of, upper, lower, outliers, counters
            )
            if edge is not None:
                return edge
        raise SamplingError(
            f"no acceptance after {max_trials} trials at vertex {vertex}; "
            "check the program's bounds against its Pd definition"
        )

    def try_once(
        self,
        vertex: int,
        rng: np.random.Generator,
        pd_of: Callable[[int], float],
        upper: float,
        lower: float = 0.0,
        outliers: Sequence[OutlierSpec] = (),
        counters: SamplingCounters | None = None,
    ) -> int | None:
        """A single rejection-sampling trial; ``None`` means rejected.

        This is the unit of work one engine iteration spends per
        second-order walker (paper section 5.1: a rejected walker is
        "stuck at their current vertex for the next iteration").
        """
        if upper <= 0:
            raise ProgramError("dynamic upper bound must be positive")
        if lower < 0 or lower > upper:
            raise ProgramError("lower bound must lie in [0, upper]")

        main_area = self._tables.total_static(vertex) * upper
        if main_area <= 0:
            raise SamplingError(f"vertex {vertex} has no sampleable out-edges")
        appendix_areas = [
            spec.width * (spec.pd_bound - upper) for spec in outliers
        ]
        for spec, area in zip(outliers, appendix_areas):
            if area < 0:
                raise ProgramError(
                    f"outlier bound {spec.pd_bound} below envelope {upper}"
                )
        total_area = main_area + sum(appendix_areas)

        if counters is not None:
            counters.trials += 1
        region = rng.random() * total_area
        if region < main_area:
            edge = self._main_trial(vertex, rng, pd_of, upper, lower, counters)
        else:
            edge = self._appendix_trial(
                region - main_area,
                appendix_areas,
                outliers,
                rng,
                pd_of,
                upper,
                counters,
            )
        if edge is not None and counters is not None:
            counters.accepts += 1
        return edge

    # ------------------------------------------------------------------
    def _main_trial(
        self,
        vertex: int,
        rng: np.random.Generator,
        pd_of: Callable[[int], float],
        upper: float,
        lower: float,
        counters: SamplingCounters | None,
    ) -> int | None:
        """One dart under the envelope; None means rejected."""
        edge = self._tables.sample(vertex, rng)
        dart = rng.random() * upper
        if dart <= lower:
            if counters is not None:
                counters.pre_accepts += 1
            return edge
        if counters is not None:
            counters.pd_evaluations += 1
        dynamic = pd_of(edge)
        if dynamic < 0:
            raise ProgramError("edgeDynamicComp returned a negative value")
        # Values above the envelope are legal only for declared
        # outliers; the main region still covers them up to the
        # envelope, so the comparison below stays correct.
        if dart <= dynamic:
            return edge
        return None

    def _appendix_trial(
        self,
        position: float,
        appendix_areas: Sequence[float],
        outliers: Sequence[OutlierSpec],
        rng: np.random.Generator,
        pd_of: Callable[[int], float],
        upper: float,
        counters: SamplingCounters | None,
    ) -> int | None:
        """A dart in an appendix region (the folded top of an outlier).

        Accept with probability
        ``Ps(e) * (Pd(e) - Q)+ / (width * (pd_bound - Q))`` — true
        chopped area over estimated appendix area — which corrects for
        both an over-estimated width and an over-estimated bound.
        """
        if counters is not None:
            counters.appendix_trials += 1
        index = 0
        remaining = position
        while index < len(appendix_areas) - 1 and remaining >= appendix_areas[index]:
            remaining -= appendix_areas[index]
            index += 1
        spec = outliers[index]
        estimated = appendix_areas[index]
        if estimated <= 0:
            return None
        if counters is not None:
            counters.pd_evaluations += 1
        dynamic = pd_of(spec.edge)
        if dynamic > spec.pd_bound:
            raise ProgramError(
                f"Pd {dynamic} exceeds declared outlier bound {spec.pd_bound}"
            )
        static = (
            spec.static_mass
            if spec.static_mass is not None
            else float(self._tables.static_weights[spec.edge])
        )
        if static > spec.width * (1.0 + 1e-12):
            raise ProgramError(
                f"Ps {static} exceeds declared outlier width {spec.width}"
            )
        chopped = static * max(dynamic - upper, 0.0)
        if rng.random() * estimated < chopped:
            return spec.edge
        return None
