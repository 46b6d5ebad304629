"""Tests for repro.util.validation."""

import math

import numpy as np
import pytest

from repro.util.validation import (
    check_all_in_range,
    check_all_positive,
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckFinite:
    def test_passes_through(self):
        assert check_finite(3.5, "x") == 3.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_finite(bad, "x")

    def test_coerces_int(self):
        assert check_finite(3, "x") == 3.0


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.001, "x") == 0.001

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="positive"):
            check_positive(bad, "x")

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="window_s"):
            check_positive(-1, "window_s")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative(-0.1, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability(bad, "p")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(2.0, "x", 2.0, 3.0) == 2.0
        assert check_in_range(3.0, "x", 2.0, 3.0) == 3.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match="x"):
            check_in_range(3.5, "x", 2.0, 3.0)


class TestArrayChecks:
    """The array forms raise the scalar check's error for the first bad element."""

    def test_pass_on_good_arrays(self):
        check_all_positive(np.array([1e-9, 3.0]), "x")
        check_all_in_range(np.array([0.0, 0.5, 1.0]), "x", 0.0, 1.0)
        check_all_in_range(np.array(0.25), "x", 0.0, 1.0)  # 0-d

    @pytest.mark.parametrize("values", [[1.0, -2.0, 0.0], [1.0, math.nan, -1.0], [math.inf]])
    def test_positive_reports_first_bad_element(self, values):
        first_bad = next(v for v in values if not (math.isfinite(v) and v > 0))
        with pytest.raises(ValueError) as want:
            check_positive(first_bad, "x")
        with pytest.raises(ValueError) as got:
            check_all_positive(np.array(values), "x")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("values", [[0.5, 1.5, -1.0], [0.5, math.nan], [-0.0, 2.0]])
    def test_in_range_reports_first_bad_element(self, values):
        first_bad = next(v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0))
        with pytest.raises(ValueError) as want:
            check_in_range(first_bad, "x", 0.0, 1.0)
        with pytest.raises(ValueError) as got:
            check_all_in_range(np.array(values), "x", 0.0, 1.0)
        assert str(got.value) == str(want.value)
