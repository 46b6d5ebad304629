"""Tests for repro.network.estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.estimator import (
    BatchHarmonicMeanEstimator,
    ControlledErrorEstimator,
    HarmonicMeanEstimator,
)
from repro.util.rng import derive_rng


class TestHarmonicMean:
    def test_cold_start_conservative(self):
        estimator = HarmonicMeanEstimator()
        assert estimator.predict_bps(0.0) == pytest.approx(1e6)

    def test_window_of_five(self):
        estimator = HarmonicMeanEstimator(window=5)
        for rate in (1e6, 2e6, 4e6, 4e6, 4e6, 4e6):
            estimator.observe(rate * 2.0, 2.0, 0.0)  # throughput == rate
        # The first sample (1e6) fell out of the 5-sample window.
        expected = 5 / (1 / 2e6 + 4 / 4e6)
        assert estimator.predict_bps(0.0) == pytest.approx(expected)

    def test_outlier_resistant(self):
        estimator = HarmonicMeanEstimator()
        for _ in range(4):
            estimator.observe(2e6, 1.0, 0.0)
        estimator.observe(500e6, 1.0, 0.0)  # one spike
        assert estimator.predict_bps(0.0) < 3e6

    def test_reset(self):
        estimator = HarmonicMeanEstimator()
        estimator.observe(8e6, 1.0, 0.0)
        estimator.reset()
        assert estimator.predict_bps(0.0) == pytest.approx(1e6)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            HarmonicMeanEstimator(window=0)

    def test_rejects_bad_observation(self):
        with pytest.raises(ValueError):
            HarmonicMeanEstimator().observe(0.0, 1.0, 0.0)


#: Strictly positive finite sizes/durations spanning the full float
#: range, including denormals — the regime a fleet session hits when it
#: is admitted at a shared bottleneck and immediately throttled to a
#: near-zero share (one tiny chunk over an enormous wall-clock window).
_positive_floats = st.floats(
    min_value=0.0,
    max_value=1e308,
    exclude_min=True,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=True,
)


class TestWarmupHardening:
    """Warm-up / starvation paths: predictions must stay positive finite."""

    def test_zero_share_sample_stays_positive_finite(self):
        # Duration so large the throughput quotient is denormal; the old
        # fold overflowed its reciprocal to inf and "predicted" 0.0.
        # Now the sample is clamped into the normal range and the
        # prediction is an honest, tiny — but strictly positive finite —
        # bandwidth, so downstream `size / bandwidth` math stays defined.
        estimator = HarmonicMeanEstimator()
        estimator.observe(1e-300, 1e20, 0.0)
        predicted = estimator.predict_bps(0.0)
        assert predicted > 0.0
        assert math.isfinite(predicted)
        assert predicted < 1.0

    @given(size=_positive_floats, duration=_positive_floats)
    @settings(max_examples=200, deadline=None)
    def test_single_sample_history_is_positive_finite(self, size, duration):
        estimator = HarmonicMeanEstimator()
        estimator.observe(size, duration, 0.0)
        predicted = estimator.predict_bps(0.0)
        assert predicted > 0.0
        assert math.isfinite(predicted)

    @given(
        samples=st.lists(
            st.tuples(_positive_floats, _positive_floats), min_size=0, max_size=12
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_history_is_positive_finite(self, samples):
        estimator = HarmonicMeanEstimator()
        for size, duration in samples:
            estimator.observe(size, duration, 0.0)
        predicted = estimator.predict_bps(0.0)
        assert predicted > 0.0
        assert math.isfinite(predicted)

    def test_empty_history_returns_initial(self):
        estimator = HarmonicMeanEstimator()
        assert estimator.predict_bps(0.0) == estimator.initial_estimate_bps

    def test_batch_rejects_zero_duration(self):
        estimator = BatchHarmonicMeanEstimator(lanes=2)
        with pytest.raises(ValueError):
            estimator.observe(np.array([1e6, 1e6]), np.array([1.0, 0.0]))

    def test_batch_rejects_zero_size(self):
        estimator = BatchHarmonicMeanEstimator(lanes=2)
        with pytest.raises(ValueError):
            estimator.observe(np.array([0.0, 1e6]), np.array([1.0, 1.0]))

    def test_batch_zero_share_lane_is_lane_local(self):
        estimator = BatchHarmonicMeanEstimator(lanes=2)
        estimator.observe(np.array([1e-300, 2e6]), np.array([1e20, 1.0]))
        predicted = estimator.predict_bps()
        # The starved lane degrades to a tiny positive estimate without
        # disturbing the healthy lane's bit-exact sample.
        assert 0.0 < predicted[0] < 1.0
        assert np.isfinite(predicted[0])
        assert predicted[1] == pytest.approx(2e6)

    @given(
        sizes=st.lists(_positive_floats, min_size=3, max_size=3),
        durations=st.lists(_positive_floats, min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_single_sample_history_positive_finite(self, sizes, durations):
        estimator = BatchHarmonicMeanEstimator(lanes=3)
        with np.errstate(over="ignore", under="ignore"):
            estimator.observe(np.asarray(sizes), np.asarray(durations))
            predicted = estimator.predict_bps()
        assert np.all(predicted > 0.0)
        assert np.all(np.isfinite(predicted))

    def test_batch_empty_history_returns_initial(self):
        estimator = BatchHarmonicMeanEstimator(lanes=4)
        assert np.all(
            estimator.predict_bps() == estimator.initial_estimate_bps
        )


#: Per-lane samples for the lane-wise equality test: realistic rates
#: plus the clamp extremes — tiny sizes, enormous durations, and
#: quotients that overflow to inf before the clamp.
_lane_sizes = st.one_of(
    st.floats(min_value=1e3, max_value=1e8),
    _positive_floats,
    st.sampled_from([1e-300, 2e-300, 1e300, 1.7e308]),
)
_lane_durations = st.one_of(
    st.floats(min_value=1e-3, max_value=60.0),
    _positive_floats,
    st.sampled_from([1e-300, 1e20, 3e20, 1e300]),
)


class TestBatchMatchesScalarLanes:
    """Each lane of the batch estimator is a scalar estimator, bit for bit."""

    @given(
        lanes=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_lane_equals_scalar(self, lanes, data):
        # Up to 12 observations: the 5-slot ring wraps twice.
        steps = data.draw(st.integers(min_value=0, max_value=12))
        batch = BatchHarmonicMeanEstimator(lanes)
        scalars = [HarmonicMeanEstimator() for _ in range(lanes)]
        for _ in range(steps):
            sizes = data.draw(st.lists(_lane_sizes, min_size=lanes, max_size=lanes))
            durations = data.draw(
                st.lists(_lane_durations, min_size=lanes, max_size=lanes)
            )
            batch.observe(np.asarray(sizes), np.asarray(durations))
            for scalar, size, duration in zip(scalars, sizes, durations):
                scalar.observe(size, duration, 0.0)
            predicted = batch.predict_bps().tolist()
            assert predicted == [scalar.predict_bps(0.0) for scalar in scalars]
        if steps == 0:
            assert batch.predict_bps().tolist() == [
                scalar.predict_bps(0.0) for scalar in scalars
            ]

    def test_subnormal_quotient_is_clamped(self):
        # 1e-300 / 1e8 is a subnormal 1e-308 that the clamp lifts to the
        # smallest normal double: the inputs span 1e308, past the ratio
        # below which the batch path skips the clamp, so the clamped path
        # must run. Every step equals the scalar lanes.
        batch = BatchHarmonicMeanEstimator(3)
        scalars = [HarmonicMeanEstimator() for _ in range(3)]
        for step in range(7):
            sizes = [1e-300, 3e-300 * (step + 1), 2e6]
            durations = [1e8, 1e8, 1.0 + step]
            batch.observe(np.asarray(sizes), np.asarray(durations))
            for scalar, size, duration in zip(scalars, sizes, durations):
                scalar.observe(size, duration, 0.0)
            assert batch.predict_bps().tolist() == [
                scalar.predict_bps(0.0) for scalar in scalars
            ]

    def test_overflowing_fold_falls_back_per_lane(self):
        # Five minimum-normal samples: their reciprocals sum past the
        # largest double, so both paths fall back to the cold-start
        # estimate on that lane only.
        batch = BatchHarmonicMeanEstimator(2)
        scalars = [HarmonicMeanEstimator(), HarmonicMeanEstimator()]
        for _ in range(5):
            sizes, durations = [1e-300, 4e6], [1e20, 2.0]
            batch.observe(np.asarray(sizes), np.asarray(durations))
            for scalar, size, duration in zip(scalars, sizes, durations):
                scalar.observe(size, duration, 0.0)
        predicted = batch.predict_bps().tolist()
        assert predicted == [scalar.predict_bps(0.0) for scalar in scalars]
        assert predicted[0] == batch.initial_estimate_bps
        assert predicted[1] == pytest.approx(2e6)


class TestControlledError:
    def test_zero_error_is_oracle(self):
        estimator = ControlledErrorEstimator(
            true_bandwidth=lambda t: 4e6, err=0.0, rng=derive_rng(0, "e")
        )
        assert estimator.predict_bps(10.0) == pytest.approx(4e6)

    def test_error_band_respected(self):
        estimator = ControlledErrorEstimator(
            true_bandwidth=lambda t: 4e6, err=0.5, rng=derive_rng(0, "e")
        )
        predictions = np.array([estimator.predict_bps(0.0) for _ in range(500)])
        assert predictions.min() >= 2e6 - 1e-6
        assert predictions.max() <= 6e6 + 1e-6
        # The perturbation actually spreads across the band.
        assert predictions.std() > 0.1e6

    def test_time_dependent_truth(self):
        estimator = ControlledErrorEstimator(
            true_bandwidth=lambda t: 1e6 * (1 + t), err=0.0, rng=derive_rng(0, "e")
        )
        assert estimator.predict_bps(1.0) == pytest.approx(2e6)
        assert estimator.predict_bps(3.0) == pytest.approx(4e6)

    def test_nonpositive_truth_falls_back(self):
        estimator = ControlledErrorEstimator(
            true_bandwidth=lambda t: 0.0, err=0.25, rng=derive_rng(0, "e")
        )
        assert estimator.predict_bps(0.0) == pytest.approx(1e6)

    def test_err_bounds(self):
        with pytest.raises(ValueError):
            ControlledErrorEstimator(lambda t: 1e6, err=1.5, rng=derive_rng(0, "e"))
