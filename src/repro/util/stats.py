"""Statistics helpers shared by characterization, control, and reporting.

The paper leans on a handful of simple statistics throughout: quartile
thresholds for chunk classification (§3.1.1), Pearson correlation to show
quartile-category consistency across tracks, harmonic means for bandwidth
estimation (§5.5), coefficient of variation to describe per-track bitrate
variability (§2), and empirical CDFs for virtually every evaluation figure.
They live here so every module computes them the same way.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "cdf_points",
    "coefficient_of_variation",
    "harmonic_mean",
    "pearson_correlation",
    "quantile",
    "quartile_thresholds",
    "running_mean",
    "spearman_correlation",
]


def _as_array(values: Sequence[float], name: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean of strictly positive values.

    This is the estimator the paper (and MPC/RobustMPC before it) uses for
    throughput prediction: the harmonic mean of the last five per-chunk
    throughput samples, robust to single large outliers.
    """
    array = _as_array(values, "values")
    if np.any(array <= 0):
        raise ValueError("harmonic_mean requires strictly positive values")
    return float(array.size / np.sum(1.0 / array))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1])."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(_as_array(values, "values"), q))


def quartile_thresholds(values: Sequence[float]) -> Tuple[float, float, float]:
    """Return the (25th, 50th, 75th) percentile cut points of ``values``.

    These are the boundaries used to label chunks Q1..Q4 by size (§3.1.1).
    """
    array = _as_array(values, "values")
    q25, q50, q75 = np.quantile(array, [0.25, 0.50, 0.75])
    return float(q25), float(q50), float(q75)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by mean (mean must be non-zero)."""
    array = _as_array(values, "values")
    mean = float(np.mean(array))
    if mean == 0.0:
        raise ValueError("coefficient_of_variation undefined for zero mean")
    return float(np.std(array) / abs(mean))


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation of two equal-length sequences."""
    x = _as_array(xs, "xs")
    y = _as_array(ys, "ys")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("correlation requires at least two points")
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (sx * sy))


def spearman_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    x = _as_array(xs, "xs")
    y = _as_array(ys, "ys")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")

    def _ranks(a: np.ndarray) -> np.ndarray:
        order = np.argsort(a, kind="mergesort")
        ranks = np.empty(a.size, dtype=float)
        ranks[order] = np.arange(1, a.size + 1, dtype=float)
        # Average ranks over ties so the statistic is well-defined.
        for value in np.unique(a):
            mask = a == value
            if np.count_nonzero(mask) > 1:
                ranks[mask] = ranks[mask].mean()
        return ranks

    return pearson_correlation(_ranks(x), _ranks(y))


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_fractions)`` for an empirical CDF.

    The fractions are ``i / n`` for the i-th sorted sample (``i`` from 1),
    matching the step-function CDFs plotted throughout the paper.
    """
    array = np.sort(_as_array(values, "values"))
    fractions = np.arange(1, array.size + 1, dtype=float) / array.size
    return array, fractions


def running_mean(values: Sequence[float], window: int) -> np.ndarray:
    """Forward-looking running mean with a shrinking tail window.

    ``result[i]`` is the mean of ``values[i : i + window]``; near the end of
    the sequence fewer than ``window`` samples remain and the mean is taken
    over what is left. This is exactly the "short-term statistical filter"
    semantics CAVA's inner controller needs at the end of a video (§5.3).
    """
    array = _as_array(values, "values")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    cumulative = np.concatenate([[0.0], np.cumsum(array)])
    n = array.size
    # Element i is (cumulative[j] - cumulative[i]) / (j - i) with
    # j = min(n, i + window): one subtraction and one division each, so
    # the vectorized form rounds exactly like a per-element loop.
    # Clamping the window first keeps i + window clear of int64 overflow.
    starts = np.arange(n)
    ends = np.minimum(starts + min(window, n), n)
    return (cumulative[ends] - cumulative[starts]) / (ends - starts)
