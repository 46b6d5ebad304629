"""Bandwidth estimators used by the ABR logic.

All the schemes in §6 share one estimation strategy for fairness: the
**harmonic mean of the per-chunk throughput of the last five downloads**,
shown robust to outliers by the MPC work and adopted in the paper's
dash.js prototype (§5.5). §6.7 additionally studies a *controlled-error*
predictor — the true bandwidth perturbed by a uniform ±err factor — to
isolate each scheme's sensitivity to prediction error.

Estimators follow a small protocol:

- ``observe(size_bits, duration_s, now_s)`` after each chunk download;
- ``predict_bps(now_s)`` before each decision;
- ``reset()`` between sessions.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque

import numpy as np

from repro.util.stats import harmonic_mean
from repro.util.validation import check_in_range, check_positive

if TYPE_CHECKING:  # telemetry records are plain data; no runtime import
    from repro.telemetry.tracer import Tracer

__all__ = [
    "BandwidthEstimator",
    "HarmonicMeanEstimator",
    "BatchHarmonicMeanEstimator",
    "ControlledErrorEstimator",
    "TracedEstimator",
]

#: Prediction returned before any sample has been observed. Deliberately
#: conservative (1 Mbps) so every scheme starts cautiously, mirroring
#: production players' cold-start behaviour.
DEFAULT_INITIAL_ESTIMATE_BPS = 1_000_000.0

# Throughput samples are clamped into the *normal* float range before
# entering a history window. Positive finite sizes and durations can
# still produce a quotient that underflows to exactly 0.0 or overflows
# to inf (a fleet session throttled to a near-zero share downloads one
# chunk over an astronomically long window), and a 0.0 sample makes the
# harmonic fold raise ZeroDivisionError while an inf sample collapses it
# to garbage. Clamping touches only degenerate quotients — every sample
# a real link can produce passes through bit-unchanged.
_MIN_SAMPLE_BPS = 2.2250738585072014e-308  # smallest normal double
_MAX_SAMPLE_BPS = 1.7976931348623157e308  # largest finite double


class BandwidthEstimator:
    """Base class: throughput samples in, bandwidth predictions out."""

    def __init__(self, initial_estimate_bps: float = DEFAULT_INITIAL_ESTIMATE_BPS) -> None:
        check_positive(initial_estimate_bps, "initial_estimate_bps")
        self.initial_estimate_bps = initial_estimate_bps

    def observe(self, size_bits: float, duration_s: float, now_s: float) -> None:
        """Record one completed download."""
        raise NotImplementedError

    def predict_bps(self, now_s: float) -> float:
        """Predicted bandwidth for the imminent download."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all history (start of a new session)."""
        raise NotImplementedError


class HarmonicMeanEstimator(BandwidthEstimator):
    """Harmonic mean of the last ``window`` per-chunk throughputs (§5.5)."""

    def __init__(
        self,
        window: int = 5,
        initial_estimate_bps: float = DEFAULT_INITIAL_ESTIMATE_BPS,
    ) -> None:
        super().__init__(initial_estimate_bps)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._samples: Deque[float] = deque(maxlen=window)
        # Parallel ring of precomputed ``1.0 / sample`` addends. The
        # harmonic fold is a left-to-right sum of exactly these doubles,
        # so folding the stored inverses with the builtin ``sum`` (a
        # C-level sequential left fold over floats) produces the same
        # bits as re-dividing inside a Python loop — once per decision,
        # on the fleet's hottest path.
        self._inverses: Deque[float] = deque(maxlen=window)

    def observe(self, size_bits: float, duration_s: float, now_s: float) -> None:
        # Fast-accept validation (hot path: one call per chunk). The
        # comparison rejects NaN / inf / <= 0 in one branch; the helper
        # re-raises with the standard message on the cold failure path.
        if not 0.0 < size_bits < math.inf:
            check_positive(size_bits, "size_bits")
        if not 0.0 < duration_s < math.inf:
            check_positive(duration_s, "duration_s")
        sample = size_bits / duration_s
        if not _MIN_SAMPLE_BPS <= sample <= _MAX_SAMPLE_BPS:
            # Degenerate quotient (underflow to 0.0 / denormal / inf):
            # keep the sample representable so the fold stays defined.
            sample = min(max(sample, _MIN_SAMPLE_BPS), _MAX_SAMPLE_BPS)
        self._samples.append(sample)
        self._inverses.append(1.0 / sample)

    def predict_bps(self, now_s: float) -> float:
        samples = self._samples
        n = len(samples)
        if n == 0:
            return self.initial_estimate_bps
        if n < 8:
            # Scalar fast path for the common five-sample window. For
            # fewer than 8 addends numpy's sum is a plain sequential
            # left fold, so the builtin ``sum`` over the precomputed
            # inverses is bit-identical to harmonic_mean() while
            # skipping array construction, the per-sample divisions,
            # and finiteness re-validation (observe() already
            # guaranteed strictly positive finite samples).
            predicted = n / sum(self._inverses)
        else:
            # Wide windows (>= 8): numpy switches to pairwise summation,
            # so delegate to the shared helper rather than approximate it.
            predicted = harmonic_mean(list(samples))
        # Warm-up hardening: samples are clamped positive finite, but the
        # fold itself can still overflow (several near-maximal addends sum
        # to inf → a 0.0 "prediction") or produce an inf from a denormal
        # inverse sum. Fall back to the cold-start estimate instead of
        # handing the ABR logic a zero/non-finite bandwidth.
        if 0.0 < predicted < math.inf:
            return predicted
        return self.initial_estimate_bps

    def reset(self) -> None:
        self._samples.clear()
        self._inverses.clear()


#: Largest max/min ratio of one batch observation's sizes and durations
#: that keeps every derived double normal and finite: its samples lie in
#: about [1e-300, 1e300], so do their reciprocals, and a fold of up to 7
#: of them and ``n / fold`` stay far inside the normal range. Such
#: samples pass the clamp unchanged and the fold never needs the
#: cold-start fallback, so neither is evaluated for them.
_TAME_RATIO = 1e300


class BatchHarmonicMeanEstimator:
    """N lockstep :class:`HarmonicMeanEstimator` lanes, one array per op.

    The batch engine observes one download per lane per chunk, so every
    lane's ring holds the same number of samples at the same positions —
    only the sample *values* differ. The ring holds reciprocals: like the
    scalar estimator's ``_inverses`` deque, ``observe`` stores
    ``1.0 / sample`` once per sample instead of ``predict_bps``
    re-dividing the whole window on every step. ``predict_bps`` then
    mirrors the scalar fast path exactly: an explicit oldest-to-newest
    left fold of the stored reciprocals (the first addend replaces the
    builtin ``sum``'s ``0 + x``, which is bitwise ``x``) followed by
    ``n / sum``. The addends are the same doubles the scalar path sums,
    added in the same order, so every lane is bit-identical to it.
    Windows of 8+ samples take numpy's pairwise-summation path in the
    scalar estimator, which this fold does not reproduce — construction
    rejects them (the §5.5 window is 5).

    An observation whose inputs span at most :data:`_TAME_RATIO` (every
    real download) skips the clamp and, while the whole window holds
    such samples, ``predict_bps`` skips the cold-start fallback: both
    would return every double unchanged. Other observations take the
    clamped path under ``np.errstate``, and the window they occupy
    takes the guarded fold, so no call emits a floating-point warning.
    """

    def __init__(
        self,
        lanes: int,
        window: int = 5,
        initial_estimate_bps: float = DEFAULT_INITIAL_ESTIMATE_BPS,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if not 1 <= window < 8:
            raise ValueError(
                f"batch estimator windows must be in 1..7 (scalar left-fold "
                f"regime), got {window}"
            )
        check_positive(initial_estimate_bps, "initial_estimate_bps")
        self.lanes = lanes
        self.window = window
        self.initial_estimate_bps = initial_estimate_bps
        # One contiguous row of reciprocals per ring slot.
        self._inverses = np.empty((window, lanes))
        self._samples = np.empty(lanes)
        self._fold = np.empty(lanes)
        # Observations left until no clamped-path sample is in the window.
        self._wild_left = 0
        self._count = 0
        self._pos = 0

    def observe(self, size_bits: np.ndarray, duration_s: np.ndarray) -> None:
        """Record one completed download per lane (durations > 0)."""
        # Mirror the scalar estimator's fast-accept contract: every lane
        # must contribute strictly positive finite inputs. A zero/negative
        # duration or size would otherwise plant an inf/NaN in the ring
        # and quietly poison the next ``window`` predictions for the lane.
        # NaN propagates through minimum/maximum and is where argmin/
        # argmax stop, so it fails both tests.
        low = np.minimum(size_bits, duration_s)
        high = np.maximum(size_bits, duration_s)
        lo = float(low[low.argmin()])
        hi = float(high[high.argmax()])
        if not (lo > 0.0 and hi < math.inf):
            raise ValueError(
                "batch estimator observations must be strictly positive "
                "finite sizes and durations"
            )
        samples = self._samples
        slot = self._inverses[self._pos]
        if hi <= lo * _TAME_RATIO:
            np.divide(size_bits, duration_s, out=samples)
            np.divide(1.0, samples, out=slot)
            if self._wild_left:
                self._wild_left -= 1
        else:
            with np.errstate(over="ignore", under="ignore"):
                np.divide(size_bits, duration_s, out=samples)
                # Same clamp as the scalar path: valid inputs can still
                # produce a quotient outside the normal float range.
                np.maximum(samples, _MIN_SAMPLE_BPS, out=samples)
                np.minimum(samples, _MAX_SAMPLE_BPS, out=samples)
                np.divide(1.0, samples, out=slot)
            self._wild_left = self.window
        self._pos = (self._pos + 1) % self.window
        if self._count < self.window:
            self._count += 1

    def _harmonic_mean(self, n: int) -> np.ndarray:
        """``n / (left fold of the n newest reciprocals)``, per lane."""
        inverses = self._inverses
        # Slots oldest to newest are pos - n .. pos - 1; negative indices
        # wrap to the ring's tail exactly as ``% window`` would.
        start = self._pos - n
        if n == 1:
            return n / inverses[start]
        fold = np.add(inverses[start], inverses[start + 1], out=self._fold)
        for k in range(start + 2, self._pos):
            np.add(fold, inverses[k], out=fold)
        return n / fold

    def predict_bps(self) -> np.ndarray:
        """Per-lane predicted bandwidth, shape ``(lanes,)``."""
        n = self._count
        if n == 0:
            return np.full(self.lanes, self.initial_estimate_bps)
        if not self._wild_left:
            return self._harmonic_mean(n)
        with np.errstate(over="ignore", under="ignore"):
            predicted = self._harmonic_mean(n)
        # Same warm-up guard as the scalar path: the fold can overflow for
        # lanes holding clamped near-extreme samples — substitute the
        # cold-start estimate for such lanes only; healthy lanes keep
        # their bit-exact fold result.
        ok = (predicted > 0.0) & (predicted < np.inf)
        if np.count_nonzero(ok) != self.lanes:
            predicted = np.where(ok, predicted, self.initial_estimate_bps)
        return predicted

    def reset(self) -> None:
        """Forget all history (start of a new batch)."""
        self._wild_left = 0
        self._count = 0
        self._pos = 0


class ControlledErrorEstimator(BandwidthEstimator):
    """True bandwidth perturbed by a uniform ±err factor (§6.7).

    ``true_bandwidth`` is a callable ``now_s -> bps`` (typically
    ``lambda t: link.average_bandwidth(t, horizon)``). With ``err = 0``
    this is a perfect oracle; with ``err = 0.5`` predictions are uniform
    in ``[0.5 * C_t, 1.5 * C_t]``, the paper's harshest setting.
    """

    def __init__(
        self,
        true_bandwidth: Callable[[float], float],
        err: float,
        rng: np.random.Generator,
        initial_estimate_bps: float = DEFAULT_INITIAL_ESTIMATE_BPS,
    ) -> None:
        super().__init__(initial_estimate_bps)
        check_in_range(err, "err", 0.0, 0.99)
        self.true_bandwidth = true_bandwidth
        self.err = err
        self.rng = rng

    def observe(self, size_bits: float, duration_s: float, now_s: float) -> None:
        pass  # oracle-based; download history is irrelevant

    def predict_bps(self, now_s: float) -> float:
        true_value = self.true_bandwidth(now_s)
        if true_value <= 0:
            return self.initial_estimate_bps
        factor = 1.0 + self.rng.uniform(-self.err, self.err)
        return max(true_value * factor, 1_000.0)

    def reset(self) -> None:
        pass


class TracedEstimator(BandwidthEstimator):
    """Transparent wrapper reporting every interaction to a tracer.

    Predictions and observed throughput samples flow to
    :meth:`~repro.telemetry.tracer.Tracer.on_bandwidth_estimate` /
    :meth:`~repro.telemetry.tracer.Tracer.on_bandwidth_sample` while the
    wrapped estimator's behaviour — and therefore the session outcome —
    is untouched. This captures estimate/realized divergence at *every*
    query (including re-queries after an idle), finer-grained than the
    one decision-time sample the per-chunk trace record keeps.
    """

    def __init__(self, inner: BandwidthEstimator, tracer: Tracer) -> None:
        super().__init__(inner.initial_estimate_bps)
        self.inner = inner
        self.tracer = tracer

    def observe(self, size_bits: float, duration_s: float, now_s: float) -> None:
        self.inner.observe(size_bits, duration_s, now_s)
        self.tracer.on_bandwidth_sample(now_s, size_bits / max(duration_s, 1e-9))

    def predict_bps(self, now_s: float) -> float:
        prediction = self.inner.predict_bps(now_s)
        self.tracer.on_bandwidth_estimate(now_s, prediction)
        return prediction

    def reset(self) -> None:
        self.inner.reset()
