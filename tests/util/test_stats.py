"""Tests for repro.util.stats, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    cdf_points,
    coefficient_of_variation,
    harmonic_mean,
    pearson_correlation,
    quantile,
    quartile_thresholds,
    running_mean,
    spearman_correlation,
)

positive_lists = st.lists(
    st.floats(min_value=0.1, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 4.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert harmonic_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            harmonic_mean([])

    def test_robust_to_outlier(self):
        """The §5.5 rationale: one huge sample barely moves the estimate."""
        base = harmonic_mean([2.0] * 5)
        with_outlier = harmonic_mean([2.0] * 4 + [200.0])
        assert with_outlier < 1.3 * base

    @given(positive_lists)
    @settings(max_examples=50)
    def test_never_exceeds_arithmetic_mean(self, values):
        assert harmonic_mean(values) <= np.mean(values) + 1e-9


class TestQuantiles:
    def test_quartile_thresholds_ordering(self):
        q25, q50, q75 = quartile_thresholds(list(range(100)))
        assert q25 < q50 < q75

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            quantile([1, 2, 3], 1.5)

    def test_median(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)

    @given(positive_lists.filter(lambda xs: len(xs) >= 4))
    @settings(max_examples=50)
    def test_thresholds_within_range(self, values):
        q25, q50, q75 = quartile_thresholds(values)
        assert min(values) <= q25 <= q50 <= q75 <= max(values)


class TestCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_spearman_monotone_is_one(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [x**3 for x in xs]
        assert spearman_correlation(xs, ys) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        value = spearman_correlation([1, 1, 2, 3], [1, 2, 3, 4])
        assert -1.0 <= value <= 1.0

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=30).filter(
            lambda xs: np.std(xs) > 1e-6
        )
    )
    @settings(max_examples=50)
    def test_pearson_in_unit_interval(self, xs):
        ys = [x * 2 + 1 for x in xs]
        value = pearson_correlation(xs, ys)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestCdfPoints:
    def test_sorted_and_normalized(self):
        values, fractions = cdf_points([3.0, 1.0, 2.0])
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert fractions.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    @given(positive_lists)
    @settings(max_examples=50)
    def test_fractions_monotone_ending_at_one(self, values):
        _, fractions = cdf_points(values)
        assert np.all(np.diff(fractions) >= 0)
        assert fractions[-1] == pytest.approx(1.0)


class TestRunningMean:
    def test_forward_window(self):
        result = running_mean([1.0, 2.0, 3.0, 4.0], window=2)
        assert result.tolist() == pytest.approx([1.5, 2.5, 3.5, 4.0])

    def test_window_one_is_identity(self):
        values = [5.0, 1.0, 9.0]
        assert running_mean(values, 1).tolist() == pytest.approx(values)

    def test_window_larger_than_input(self):
        result = running_mean([2.0, 4.0], window=10)
        assert result.tolist() == pytest.approx([3.0, 4.0])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            running_mean([1.0], window=0)

    @given(positive_lists, st.integers(min_value=1, max_value=20))
    @settings(max_examples=50)
    def test_bounded_by_extremes(self, values, window):
        result = running_mean(values, window)
        assert np.all(result >= min(values) - 1e-9)
        assert np.all(result <= max(values) + 1e-9)

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=200)
    def test_equals_loop_reference_bit_for_bit(self, values, window):
        """The vectorized form rounds exactly like the per-element loop,
        windows wider than the input included."""
        cumulative = np.concatenate([[0.0], np.cumsum(np.asarray(values))])
        n = len(values)
        expected = []
        for i in range(n):
            j = min(n, i + window)
            expected.append(float((cumulative[j] - cumulative[i]) / (j - i)))
        assert running_mean(values, window).tolist() == expected

    def test_huge_window_is_whole_tail_mean(self):
        result = running_mean([2.0, 4.0], window=2**70)
        assert result.tolist() == [3.0, 4.0]


class TestCoefficientOfVariation:
    def test_constant_is_zero(self):
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            coefficient_of_variation([-1.0, 1.0])

    def test_known_value(self):
        values = [1.0, 3.0]
        assert coefficient_of_variation(values) == pytest.approx(1.0 / 2.0)
