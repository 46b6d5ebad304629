"""The inner controller of §5.3: VBR-aware track selection (Eqs. 3–4).

Given the PID output ``u_t``, the bandwidth estimate ``C_hat``, and the
chunk's complexity category, the inner controller minimizes over the six
track levels

    Q(l) = sum_{k=t}^{t+N-1} ( u_t * Rbar_t(l) - alpha_t * C_hat )^2
           + eta_t * ( r(l) - r(l_{t-1}) )^2

where ``Rbar_t(l)`` is the short-term-filtered bitrate (P1: the average
over the next W seconds of chunks, not the next chunk alone), ``alpha_t``
inflates the assumed bandwidth for Q4 chunks and deflates it for Q1–Q3
(P2), and ``eta_t`` penalizes track changes only when consecutive chunks
share a complexity category. The paper evaluates u_k and C_hat_k at
their time-t values across the horizon (the controller has no better
estimate of either), so the first term is N identical squares.

Two heuristics from §5.3:

- **Q1–Q3 no-deflation**: if deflation would drive a simple chunk to a
  very low level while the buffer is comfortably high, re-solve with
  alpha = 1 (avoids gratuitously ugly simple scenes);
- **Q4 relief** (optional, off by default as in the paper's evaluation):
  if the buffer is dangerously low, do not inflate for a Q4 chunk.

Bitrates enter the objective in Mbps; the argmin is invariant to the
common scaling but the squared terms stay in a numerically friendly
range.

This class holds the per-session tables of the decision. The scalar
decision itself runs inlined in ``CavaAlgorithm.select_level`` (one per
chunk, the fleet's hottest call); :meth:`InnerController.select_batch`
is its lane-vectorized form. The plain per-call Eq. (3) objective and
argmin that both are pinned to live in ``tests/core/reference.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import CavaConfig
from repro.core.filters import short_term_bitrates
from repro.video.classify import ChunkClassifier
from repro.video.model import Manifest

__all__ = ["InnerController"]


class InnerController:
    """Solves the per-chunk track-selection problem (Eq. 4)."""

    def __init__(
        self,
        config: CavaConfig,
        manifest: Manifest,
        classifier: ChunkClassifier,
    ) -> None:
        if classifier.num_chunks != manifest.num_chunks:
            raise ValueError("classifier and manifest disagree on chunk count")
        self.config = config
        self.manifest = manifest
        self.classifier = classifier
        # Short-term statistical filter (P1), precomputed per session.
        self._rbar_mbps = short_term_bitrates(manifest, config.inner_window_s) / 1e6
        self._track_avg_mbps = manifest.declared_avg_bitrates_bps / 1e6
        #: The α actually applied by the most recent decision — after
        #: the no-deflation heuristic, so telemetry sees the value the
        #: argmin used, not the one P2 first proposed.
        self.last_alpha = 1.0
        # Per-chunk decision tables. CavaAlgorithm.select_level runs the
        # Eq. (4) argmin over 6 levels, where Python-float rows beat
        # per-call ndarray slicing/ufunc dispatch; the values are the
        # exact doubles of the numpy tables. The P2 factor alpha_t and
        # the track-change weight eta_t (0 on the first chunk and across
        # Q4/non-Q4 boundaries) are resolved per chunk once, here.
        n = manifest.num_chunks
        self._rbar_rows = self._rbar_mbps.T.tolist()  # per-chunk, per-level
        self._track_avg_list = self._track_avg_mbps.tolist()
        if config.use_differential:
            self._complex_list = [classifier.is_complex(i) for i in range(n)]
            self._alpha_list = [
                config.alpha_complex if is_complex else config.alpha_simple
                for is_complex in self._complex_list
            ]
        else:
            self._alpha_list = [1.0] * n
            self._complex_list = [False] * n
        weight = config.track_change_weight
        complex_list = self._complex_list
        self._eta_list = [
            weight if i and complex_list[i] == complex_list[i - 1] else 0.0
            for i in range(n)
        ]
        self._relief_enabled = bool(
            config.use_differential and config.enable_q4_relief_heuristic
        )
        # Precomputed change-penalty addends: eta_t * (r(l) - r(l'))^2 is
        # a pure function of (chunk, last level, level), and eta_t only
        # ever takes two values (0.0 or the track-change weight), so two
        # shared [last][level] tables cover every chunk. Each entry is
        # the exact double of recomputing eta * (step * step) per level —
        # same subtraction, square, and multiply, just done once here.
        avg = self._track_avg_list
        levels = range(len(avg))
        def _penalty_table(eta: float):
            rows = []
            for last in levels:
                avg_last = avg[last]
                row = []
                for level in levels:
                    step = avg[level] - avg_last
                    row.append(eta * (step * step))
                rows.append(row)
            return rows
        zero_rows = _penalty_table(0.0)
        weight_rows = _penalty_table(config.track_change_weight)
        self._eta_step2 = [
            weight_rows if eta else zero_rows for eta in self._eta_list
        ]
        # The lockstep path's copies of the same doubles: one contiguous
        # R-bar row per chunk, and the [last][level] penalty table as an
        # array that ``take`` gathers per lane. A zero-eta chunk has no
        # table (None): it adds exactly 0.0 to every nonnegative cost.
        self._rbar_by_chunk = np.ascontiguousarray(self._rbar_mbps.T)
        weight_table = np.array(weight_rows)
        self._penalty_by_chunk = [
            weight_table if eta else None for eta in self._eta_list
        ]
        # Per-decision config scalars, hoisted (CavaConfig is frozen).
        self._n_horizon = config.horizon_chunks
        self._use_differential = config.use_differential
        self._low_level_threshold = config.low_level_threshold
        self._safe_buffer_s = config.safe_buffer_s
        self._q4_relief_buffer_s = config.q4_relief_buffer_s

    # ------------------------------------------------------------------
    # Lockstep batch path
    # ------------------------------------------------------------------
    def _argmin_batch(
        self,
        chunk_index: int,
        u: np.ndarray,
        bandwidth_bps: np.ndarray,
        last_levels: Optional[np.ndarray],
        alpha,
    ) -> np.ndarray:
        """Per-lane argmin of Eq. (4) over the levels, (lanes,) ints.

        The cost is the scalar argmin's ``n * (dev * dev) + es_row[level]``
        term for term, over ``(lanes, levels)``: ``dev`` is
        ``u * rbar - (alpha * bw) / 1e6`` and ``es_row`` is the lane's row
        of the exact ``eta * (step * step)`` table the scalar path
        precomputes. ``argmin``'s first-occurrence tie-break matches the
        scalar loop's strict ``<`` comparison. ``alpha`` is a float when
        uniform across lanes, or a (lanes,) array when the Q4-relief
        heuristic splits them; a uniform 1.0 skips its multiply, which
        returns every double unchanged.
        """
        if isinstance(alpha, float) and alpha == 1.0:
            assumed_mbps = bandwidth_bps / 1e6
        else:
            assumed_mbps = alpha * bandwidth_bps
            np.divide(assumed_mbps, 1e6, out=assumed_mbps)
        cost = np.multiply(u[:, None], self._rbar_by_chunk[chunk_index])
        np.subtract(cost, assumed_mbps[:, None], out=cost)
        np.multiply(cost, cost, out=cost)
        np.multiply(self._n_horizon, cost, out=cost)
        penalty = self._penalty_by_chunk[chunk_index]
        if last_levels is not None and penalty is not None:
            np.add(cost, penalty.take(last_levels, axis=0), out=cost)
        return cost.argmin(axis=1)

    def select_batch(
        self,
        chunk_index: int,
        u: np.ndarray,
        bandwidth_bps: np.ndarray,
        buffer_s: np.ndarray,
        last_levels: Optional[np.ndarray],
    ) -> np.ndarray:
        """Vectorized Eq. (4) decision, heuristics included, (lanes,) ints."""
        alpha = self._alpha_list[chunk_index]
        if self._relief_enabled and self._complex_list[chunk_index]:
            alpha = np.where(buffer_s < self._q4_relief_buffer_s, 1.0, alpha)
        levels = self._argmin_batch(chunk_index, u, bandwidth_bps, last_levels, alpha)

        # Q1–Q3 no-deflation heuristic (§5.3), lane-masked: re-solve the
        # affected lanes with alpha = 1 and splice the results back. No
        # lane qualifies unless alpha deflates and the lowest chosen
        # level is under the threshold, which two scalar tests rule out
        # on most chunks.
        if not self._use_differential:
            return levels
        deflates = isinstance(alpha, np.ndarray) or alpha < 1.0
        if not deflates or levels[levels.argmin()] >= self._low_level_threshold:
            return levels
        redo = (levels < self._low_level_threshold) & (buffer_s > self._safe_buffer_s)
        if isinstance(alpha, np.ndarray):
            redo &= alpha < 1.0
        if np.count_nonzero(redo):
            resolved = self._argmin_batch(
                chunk_index, u, bandwidth_bps, last_levels, 1.0
            )
            levels = np.where(redo, resolved, levels)
        return levels

    @property
    def short_term_bitrates_mbps(self) -> np.ndarray:
        """The precomputed R̄ table in Mbps (read-only view)."""
        return self._rbar_mbps
