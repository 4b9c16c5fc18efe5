"""Correctness tests for rejection sampling (paper section 4).

The key property: for any static component Ps (handled by alias
pre-processing) and any dynamic component Pd bounded by the declared
envelope, rejection sampling draws edges with probability proportional
to Ps * Pd — *exactly*, with or without the lower-bound and
outlier-folding optimizations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProgramError, SamplingError
from repro.graph.builder import from_edges
from repro.sampling.alias import VertexAliasTables
from repro.sampling.rejection import (
    OutlierSpec,
    RejectionSampler,
    SamplingCounters,
    expected_trials,
)

from tests.helpers import assert_matches_distribution


def fan_graph(num_edges: int, weights=None):
    """Vertex 0 with ``num_edges`` out-edges to 1..n."""
    edges = [(0, i + 1) for i in range(num_edges)]
    if weights is not None:
        edges = [(u, v, w) for (u, v), w in zip(edges, weights)]
    return from_edges(num_edges + 1, edges)


def sample_many(sampler, pd_values, upper, count, lower=0.0, outliers=(), seed=0, counters=None):
    rng = np.random.default_rng(seed)
    pd_of = lambda edge: float(pd_values[edge])  # noqa: E731
    return [
        sampler.sample(
            0, rng, pd_of, upper, lower=lower, outliers=outliers, counters=counters
        )
        for _ in range(count)
    ]


class TestUnbiasedRejection:
    def test_matches_target_distribution(self):
        graph = fan_graph(4)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 2.0, 2.0, 0.5])
        samples = sample_many(sampler, pd, upper=2.0, count=30_000)
        assert_matches_distribution(samples, pd)

    def test_zero_pd_edges_never_sampled(self):
        graph = fan_graph(3)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 0.0, 0.5])
        samples = sample_many(sampler, pd, upper=1.0, count=5000)
        assert 1 not in set(samples)


class TestBiasedRejection:
    def test_static_times_dynamic(self):
        weights = [1.0, 4.0, 2.0, 3.0]
        graph = fan_graph(4, weights)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([2.0, 0.5, 1.0, 1.5])
        samples = sample_many(sampler, pd, upper=2.0, count=40_000)
        assert_matches_distribution(samples, np.asarray(weights) * pd)


class TestLowerBound:
    def test_distribution_unchanged(self):
        graph = fan_graph(4)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 2.0, 1.5, 0.5])
        samples = sample_many(
            sampler, pd, upper=2.0, count=30_000, lower=0.5
        )
        assert_matches_distribution(samples, pd)

    def test_reduces_pd_evaluations(self):
        graph = fan_graph(4)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 2.0, 1.5, 1.0])
        with_counter = SamplingCounters()
        without_counter = SamplingCounters()
        sample_many(
            sampler, pd, upper=2.0, count=4000, lower=1.0, counters=with_counter
        )
        sample_many(
            sampler, pd, upper=2.0, count=4000, lower=0.0, counters=without_counter
        )
        assert with_counter.pd_evaluations < without_counter.pd_evaluations
        assert with_counter.pre_accepts > 0

    def test_tight_lower_bound_eliminates_evaluations(self):
        """lower == upper == Pd everywhere: pure alias sampling."""
        graph = fan_graph(3)
        sampler = RejectionSampler(VertexAliasTables(graph))
        counters = SamplingCounters()
        sample_many(
            sampler,
            np.ones(3),
            upper=1.0,
            count=2000,
            lower=1.0,
            counters=counters,
        )
        assert counters.pd_evaluations == 0
        assert counters.trials == 2000


class TestOutlierFolding:
    def test_distribution_with_outlier(self):
        graph = fan_graph(5)
        sampler = RejectionSampler(VertexAliasTables(graph))
        # Edge 0 towers at 8.0; envelope covers the rest at 1.0.
        pd = np.array([8.0, 1.0, 0.5, 1.0, 0.75])
        outliers = (OutlierSpec(edge=0, pd_bound=8.0, width=1.0),)
        samples = sample_many(
            sampler, pd, upper=1.0, count=40_000, outliers=outliers
        )
        assert_matches_distribution(samples, pd)

    def test_folding_reduces_trials(self):
        graph = fan_graph(64)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.ones(64)
        pd[0] = 8.0
        folded = SamplingCounters()
        naive = SamplingCounters()
        outliers = (OutlierSpec(edge=0, pd_bound=8.0, width=1.0),)
        sample_many(
            sampler, pd, upper=1.0, count=3000, outliers=outliers, counters=folded
        )
        sample_many(sampler, pd, upper=8.0, count=3000, counters=naive)
        assert folded.trials < naive.trials / 2

    def test_overestimated_bound_still_exact(self):
        """The correction divides by the *estimated* appendix area, so a
        conservative bound costs trials but not correctness."""
        graph = fan_graph(4)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([3.0, 1.0, 0.5, 1.0])
        outliers = (OutlierSpec(edge=0, pd_bound=6.0, width=1.0),)
        samples = sample_many(
            sampler, pd, upper=1.0, count=40_000, outliers=outliers
        )
        assert_matches_distribution(samples, pd)

    def test_overestimated_width_still_exact(self):
        weights = [2.0, 1.0, 1.0]
        graph = fan_graph(3, weights)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([4.0, 1.0, 1.0])
        outliers = (OutlierSpec(edge=0, pd_bound=4.0, width=5.0),)
        samples = sample_many(
            sampler, pd, upper=1.0, count=40_000, outliers=outliers
        )
        assert_matches_distribution(samples, np.asarray(weights) * pd)

    def test_multiple_outliers(self):
        graph = fan_graph(6)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([5.0, 1.0, 4.0, 0.5, 1.0, 0.25])
        outliers = (
            OutlierSpec(edge=0, pd_bound=5.0, width=1.0),
            OutlierSpec(edge=2, pd_bound=4.0, width=1.0),
        )
        samples = sample_many(
            sampler, pd, upper=1.0, count=50_000, outliers=outliers
        )
        assert_matches_distribution(samples, pd)

    def test_outlier_below_envelope_is_harmless(self):
        graph = fan_graph(3)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 0.5, 1.0])
        outliers = (OutlierSpec(edge=0, pd_bound=1.0, width=1.0),)
        samples = sample_many(
            sampler, pd, upper=1.0, count=20_000, outliers=outliers
        )
        assert_matches_distribution(samples, pd)

    def test_exact_static_mass_override(self):
        graph = fan_graph(3, [2.0, 1.0, 1.0])
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([4.0, 1.0, 1.0])
        outliers = (
            OutlierSpec(edge=0, pd_bound=4.0, width=2.0, static_mass=2.0),
        )
        samples = sample_many(
            sampler, pd, upper=1.0, count=40_000, outliers=outliers
        )
        assert_matches_distribution(samples, np.array([8.0, 1.0, 1.0]))


class TestValidation:
    def test_bad_bounds(self):
        graph = fan_graph(2)
        sampler = RejectionSampler(VertexAliasTables(graph))
        rng = np.random.default_rng(0)
        with pytest.raises(ProgramError):
            sampler.try_once(0, rng, lambda e: 1.0, upper=0.0)
        with pytest.raises(ProgramError):
            sampler.try_once(0, rng, lambda e: 1.0, upper=1.0, lower=2.0)
        with pytest.raises(ProgramError):
            sampler.try_once(0, rng, lambda e: 1.0, upper=1.0, lower=-0.1)

    def test_outlier_bound_below_envelope(self):
        graph = fan_graph(2)
        sampler = RejectionSampler(VertexAliasTables(graph))
        rng = np.random.default_rng(0)
        with pytest.raises(ProgramError):
            sampler.try_once(
                0,
                rng,
                lambda e: 1.0,
                upper=2.0,
                outliers=(OutlierSpec(edge=0, pd_bound=1.0),),
            )

    def test_negative_pd_rejected(self):
        graph = fan_graph(2)
        sampler = RejectionSampler(VertexAliasTables(graph))
        rng = np.random.default_rng(0)
        with pytest.raises(ProgramError):
            sampler.sample(0, rng, lambda e: -1.0, upper=1.0)

    def test_dead_end_vertex(self):
        graph = from_edges(2, [(0, 1)])
        sampler = RejectionSampler(VertexAliasTables(graph))
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingError):
            sampler.try_once(1, rng, lambda e: 1.0, upper=1.0)

    def test_zero_mass_exhausts_max_trials(self):
        graph = fan_graph(2)
        sampler = RejectionSampler(VertexAliasTables(graph))
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingError):
            sampler.sample(0, rng, lambda e: 0.0, upper=1.0, max_trials=50)


class TestExpectedTrials:
    def test_formula(self):
        static = np.array([1.0, 1.0, 1.0, 1.0])
        dynamic = np.array([1.0, 2.0, 2.0, 0.5])
        assert expected_trials(static, dynamic, 2.0) == pytest.approx(
            2.0 * 4.0 / 5.5
        )

    def test_zero_mass(self):
        with pytest.raises(SamplingError):
            expected_trials(np.ones(3), np.zeros(3), 1.0)

    def test_empirical_trials_match_formula(self):
        graph = fan_graph(8)
        sampler = RejectionSampler(VertexAliasTables(graph))
        pd = np.array([1.0, 0.25, 0.5, 1.0, 0.75, 0.25, 0.5, 1.0])
        counters = SamplingCounters()
        count = 20_000
        sample_many(sampler, pd, upper=1.0, count=count, counters=counters)
        predicted = expected_trials(np.ones(8), pd, 1.0)
        assert counters.trials / count == pytest.approx(predicted, rel=0.05)


class TestCounters:
    def test_merge_and_reset(self):
        first = SamplingCounters(trials=3, pd_evaluations=2, accepts=1)
        second = SamplingCounters(trials=1, pre_accepts=4, appendix_trials=2)
        first.merge(second)
        assert first.trials == 4
        assert first.pre_accepts == 4
        assert first.appendix_trials == 2
        first.reset()
        assert first.trials == 0 and first.accepts == 0


@settings(max_examples=25, deadline=None)
@given(
    pd_values=st.lists(
        st.floats(min_value=0.0, max_value=4.0), min_size=2, max_size=8
    ),
    seed=st.integers(0, 1000),
)
def test_rejection_exactness_property(pd_values, seed):
    """For arbitrary bounded Pd, sampled frequencies track Ps * Pd."""
    pd = np.asarray(pd_values)
    if pd.sum() <= 0.1:
        return
    graph = fan_graph(pd.size)
    sampler = RejectionSampler(VertexAliasTables(graph))
    samples = sample_many(
        sampler, pd, upper=4.0, count=4000, seed=seed
    )
    counts = np.bincount(samples, minlength=pd.size)
    assert counts[pd == 0].sum() == 0
    # Loose frequency check (tight chi-square runs in the unit tests).
    frequencies = counts / counts.sum()
    target = pd / pd.sum()
    assert np.abs(frequencies - target).max() < 0.08
