"""Bit-identity of the scalar link fast path against numpy references.

``TraceLink.download`` / ``_cumulative_at`` run on Python floats with
``bisect``; these tests pin them to the vectorized numpy formulations
(``_cumulative_at_array``, ``np.searchsorted``) with exact equality,
and check the estimator's scalar harmonic-mean fast path against the
shared :func:`~repro.util.stats.harmonic_mean` helper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.estimator import HarmonicMeanEstimator
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace, synthesize_lte_traces
from repro.util.stats import harmonic_mean
from tests.network.reference import finish_time


def _trace_with_outage(seed=0):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(5e5, 2e7, size=30)
    rates[10:13] = 0.0  # zero-rate run: the outage edge cases
    return NetworkTrace(name="outage", throughputs_bps=rates, interval_s=1.0)


class TestCumulativeScalarVsVector:
    @given(
        t=st.floats(min_value=0.0, max_value=500.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_scalar_equals_vector_table(self, t, seed):
        link = TraceLink(_trace_with_outage(seed))
        scalar = link._cumulative_at(t)
        vector = float(link._cumulative_at_array(np.array([t]))[0])
        assert scalar == vector

    def test_bits_in_windows_matches_scalar_loop(self):
        link = TraceLink(synthesize_lte_traces(count=1, seed=4)[0])
        starts = np.array([0.0, 3.7, 29.9, 61.2, 100.0])
        ends = starts + np.array([1.0, 0.1, 30.0, 5.5, 250.0])
        vectorized = link.bits_in_windows(starts, ends)
        scalars = [link.bits_in_window(s, e) for s, e in zip(starts, ends)]
        assert vectorized.tolist() == scalars

    def test_bits_in_windows_validates(self):
        link = TraceLink(_trace_with_outage())
        with pytest.raises(ValueError):
            link.bits_in_windows(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            link.bits_in_windows(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            link.bits_in_windows(np.array([2.0]), np.array([1.0]))


class TestDownloadBisectMatchesSearchsorted:
    @given(
        size=st.floats(min_value=1e2, max_value=5e8),
        start=st.floats(min_value=0.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_crossing_interval_identical(self, size, start, seed):
        link = TraceLink(_trace_with_outage(seed))
        target = link._cumulative_at(start) + size
        _, within = divmod(target, link._bits_per_period)
        from bisect import bisect_left

        assert bisect_left(link._cumulative_list, within) == int(
            np.searchsorted(link._cumulative_bits, within, side="left")
        )

    @given(
        size=st.floats(min_value=1e2, max_value=5e8),
        start=st.floats(min_value=0.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_download_invariants(self, size, start, seed):
        link = TraceLink(_trace_with_outage(seed))
        result = link.download(size, start)
        assert result.finish_s > result.start_s == start
        assert result.size_bits == size
        # The fluid model must deliver exactly the requested bits by the
        # finish time (up to the duration floor's rounding).
        delivered = link.bits_in_window(start, result.finish_s)
        assert delivered == pytest.approx(size, rel=1e-6, abs=1.0)

    @given(
        size=st.floats(min_value=1e2, max_value=5e8),
        start=st.floats(min_value=0.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_first_query_builds_list_tables(self, size, start, seed):
        """The list tables are built lazily by whichever scalar query
        comes first; ``finish_time`` with a precomputed ``cum_start`` on
        a fresh link equals ``download`` on another fresh link."""
        trace = _trace_with_outage(seed)
        cum_start = TraceLink(trace)._cumulative_at(start)
        fresh = TraceLink(trace)
        assert not hasattr(fresh, "_cumulative_list")
        finish = finish_time(fresh, size, start, cum_start)
        assert hasattr(fresh, "_cumulative_list") and hasattr(fresh, "_rates_list")
        assert finish == TraceLink(trace).download(size, start).finish_s


class TestHarmonicMeanFastPath:
    @given(
        samples=st.lists(
            st.floats(min_value=1e3, max_value=1e9), min_size=1, max_size=7
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_scalar_window_matches_helper_exactly(self, samples):
        estimator = HarmonicMeanEstimator(window=7)
        for k, sample in enumerate(samples):
            estimator.observe(sample, 1.0, float(k))
        # observe() divides by 1.0, which is exact, so the deque holds
        # the samples themselves.
        assert estimator.predict_bps(99.0) == harmonic_mean(samples)

    def test_wide_window_delegates_to_helper(self):
        estimator = HarmonicMeanEstimator(window=12)
        samples = [1e6 + 1e4 * k for k in range(12)]
        for k, sample in enumerate(samples):
            estimator.observe(sample, 1.0, float(k))
        assert estimator.predict_bps(99.0) == harmonic_mean(samples)

    def test_rejects_bad_observations(self):
        estimator = HarmonicMeanEstimator()
        with pytest.raises(ValueError):
            estimator.observe(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            estimator.observe(1e6, 0.0, 0.0)
        with pytest.raises(ValueError):
            estimator.observe(float("nan"), 1.0, 0.0)
        with pytest.raises(ValueError):
            estimator.observe(1e6, float("inf"), 0.0)
