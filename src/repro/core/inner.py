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
"""

from __future__ import annotations

import math
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
        #: The α actually applied by the most recent :meth:`select` —
        #: after the no-deflation heuristic, so telemetry sees the value
        #: the argmin used, not the one :meth:`alpha` first proposed.
        self.last_alpha = 1.0
        # Scalar hot-path tables: the select() argmin runs over 6 levels,
        # where Python-float rows beat per-call ndarray slicing/ufunc
        # dispatch. Values are the exact doubles of the numpy tables, and
        # the per-chunk alpha/eta lists replicate alpha()/eta() verbatim.
        n = manifest.num_chunks
        self._rbar_rows = self._rbar_mbps.T.tolist()  # per-chunk, per-level
        self._track_avg_list = self._track_avg_mbps.tolist()
        self._eta_list = [self.eta(i) for i in range(n)]
        if config.use_differential:
            self._alpha_list = [
                config.alpha_complex if classifier.is_complex(i) else config.alpha_simple
                for i in range(n)
            ]
            self._complex_list = [classifier.is_complex(i) for i in range(n)]
        else:
            self._alpha_list = [1.0] * n
            self._complex_list = [False] * n
        self._relief_enabled = bool(
            config.use_differential and config.enable_q4_relief_heuristic
        )
        # Precomputed change-penalty addends: eta_t * (r(l) - r(l'))^2 is
        # a pure function of (chunk, last level, level), and eta_t only
        # ever takes two values (0.0 or the track-change weight), so two
        # shared [last][level] tables cover every chunk. Each entry is
        # the exact double the select() loop used to recompute — same
        # subtraction, square, and multiply, just done once here.
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
        # Per-decision config scalars, hoisted (CavaConfig is frozen).
        self._n_horizon = config.horizon_chunks
        self._use_differential = config.use_differential
        self._low_level_threshold = config.low_level_threshold
        self._safe_buffer_s = config.safe_buffer_s
        self._q4_relief_buffer_s = config.q4_relief_buffer_s

    # ------------------------------------------------------------------
    # Eq. (3) pieces
    # ------------------------------------------------------------------
    def alpha(self, chunk_index: int, buffer_s: float) -> float:
        """The bandwidth inflation/deflation factor for this chunk (P2)."""
        if not self.config.use_differential:
            return 1.0
        if self.classifier.is_complex(chunk_index):
            if (
                self.config.enable_q4_relief_heuristic
                and buffer_s < self.config.q4_relief_buffer_s
            ):
                return 1.0
            return self.config.alpha_complex
        return self.config.alpha_simple

    def eta(self, chunk_index: int) -> float:
        """The track-change weight: 0 across Q4/non-Q4 boundaries (§5.3)."""
        if chunk_index == 0:
            return 0.0
        if not self.config.use_differential:
            return self.config.track_change_weight
        current = self.classifier.is_complex(chunk_index)
        previous = self.classifier.is_complex(chunk_index - 1)
        return self.config.track_change_weight if current == previous else 0.0

    def objective(
        self,
        chunk_index: int,
        u: float,
        bandwidth_bps: float,
        last_level: Optional[int],
        alpha: float,
    ) -> np.ndarray:
        """Q(l) of Eq. (3) for every level; shape (num_tracks,)."""
        if u <= 0:
            raise ValueError(f"controller output u must be positive, got {u}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        rbar = self._rbar_mbps[:, chunk_index]
        assumed_mbps = alpha * bandwidth_bps / 1e6
        deviation = self.config.horizon_chunks * (u * rbar - assumed_mbps) ** 2
        if last_level is None:
            change = 0.0
        else:
            change = (
                self.eta(chunk_index)
                * (self._track_avg_mbps - self._track_avg_mbps[last_level]) ** 2
            )
        return deviation + change

    # ------------------------------------------------------------------
    # Eq. (4): the decision
    # ------------------------------------------------------------------
    def _argmin_objective(
        self,
        chunk_index: int,
        u: float,
        bandwidth_bps: float,
        last_level: Optional[int],
        alpha: float,
    ) -> int:
        """Scalar argmin over the six levels — the per-decision hot path.

        Bit-identical to ``np.argmin(self.objective(...))``: identical
        IEEE double operations in the same order per level (numpy's
        ``** 2`` on an array is an elementwise ``x * x``), and the strict
        ``<`` comparison reproduces argmin's first-occurrence tie-break.
        """
        if u <= 0:
            raise ValueError(f"controller output u must be positive, got {u}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        rbar_row = self._rbar_rows[chunk_index]
        assumed_mbps = alpha * bandwidth_bps / 1e6
        n = self._n_horizon
        best = 0
        best_cost = math.inf
        if last_level is None:
            for level, rbar in enumerate(rbar_row):
                deviation = u * rbar - assumed_mbps
                cost = n * (deviation * deviation)
                if cost < best_cost:
                    best_cost = cost
                    best = level
        else:
            eta = self._eta_list[chunk_index]
            track_avg = self._track_avg_list
            avg_last = track_avg[last_level]
            for level, rbar in enumerate(rbar_row):
                deviation = u * rbar - assumed_mbps
                step = track_avg[level] - avg_last
                cost = n * (deviation * deviation) + eta * (step * step)
                if cost < best_cost:
                    best_cost = cost
                    best = level
        return best

    def select(
        self,
        chunk_index: int,
        u: float,
        bandwidth_bps: float,
        buffer_s: float,
        last_level: Optional[int],
    ) -> int:
        """Return the optimal level l*_t, heuristics included.

        :meth:`_argmin_objective` is inlined at both solve sites (the
        differential solve and the no-deflation re-solve) — one method
        call per decision instead of up to three on the fleet's hottest
        path, with identical doubles and tie-breaks.
        """
        alpha = self._alpha_list[chunk_index]
        if (
            self._relief_enabled
            and self._complex_list[chunk_index]
            and buffer_s < self._q4_relief_buffer_s
        ):
            alpha = 1.0
        if u <= 0:
            raise ValueError(f"controller output u must be positive, got {u}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        rbar_row = self._rbar_rows[chunk_index]
        n = self._n_horizon
        assumed_mbps = alpha * bandwidth_bps / 1e6
        best = 0
        best_cost = math.inf
        if last_level is None:
            for level, rbar in enumerate(rbar_row):
                deviation = u * rbar - assumed_mbps
                cost = n * (deviation * deviation)
                if cost < best_cost:
                    best_cost = cost
                    best = level
        else:
            # es_row[level] is the precomputed eta * (step * step) addend
            # (see __init__) — same doubles as the inline recompute.
            es_row = self._eta_step2[chunk_index][last_level]
            for level, rbar in enumerate(rbar_row):
                deviation = u * rbar - assumed_mbps
                cost = n * (deviation * deviation) + es_row[level]
                if cost < best_cost:
                    best_cost = cost
                    best = level
        level = best

        # Q1–Q3 no-deflation heuristic (§5.3): deflating must not push a
        # simple chunk to a very low level while the buffer is healthy.
        if (
            self._use_differential
            and alpha < 1.0
            and level < self._low_level_threshold
            and buffer_s > self._safe_buffer_s
        ):
            alpha = 1.0
            assumed_mbps = alpha * bandwidth_bps / 1e6
            best = 0
            best_cost = math.inf
            if last_level is None:
                for level, rbar in enumerate(rbar_row):
                    deviation = u * rbar - assumed_mbps
                    cost = n * (deviation * deviation)
                    if cost < best_cost:
                        best_cost = cost
                        best = level
            else:
                for level, rbar in enumerate(rbar_row):
                    deviation = u * rbar - assumed_mbps
                    cost = n * (deviation * deviation) + es_row[level]
                    if cost < best_cost:
                        best_cost = cost
                        best = level
            level = best
        self.last_alpha = alpha
        return level

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

        The cost expression mirrors :meth:`_argmin_objective` term for
        term (``n * (dev * dev) + eta * (step * step)``), broadcast over
        ``(lanes, levels)``; ``np.argmin``'s first-occurrence tie-break
        matches the scalar loop's strict ``<`` comparison. ``alpha`` is
        a float when uniform across lanes, or a (lanes,) array when the
        Q4-relief heuristic splits them.
        """
        rbar = self._rbar_mbps[:, chunk_index]  # (levels,)
        # alpha broadcasts whether scalar or (lanes,); the per-lane
        # expression (alpha * bw) / 1e6 keeps the scalar operand order.
        assumed_mbps = (alpha * bandwidth_bps / 1e6)[:, None]
        deviation = u[:, None] * rbar[None, :] - assumed_mbps
        n = self.config.horizon_chunks
        cost = n * (deviation * deviation)
        if last_levels is not None:
            eta = self._eta_list[chunk_index]
            avg = self._track_avg_mbps
            step = avg[None, :] - avg[last_levels][:, None]
            cost = cost + eta * (step * step)
        return np.argmin(cost, axis=1)

    def select_batch(
        self,
        chunk_index: int,
        u: np.ndarray,
        bandwidth_bps: np.ndarray,
        buffer_s: np.ndarray,
        last_levels: Optional[np.ndarray],
    ) -> np.ndarray:
        """Vectorized :meth:`select`, heuristics included, (lanes,) ints."""
        config = self.config
        alpha_value = self._alpha_list[chunk_index]
        if self._relief_enabled and self._complex_list[chunk_index]:
            alpha = np.where(buffer_s < config.q4_relief_buffer_s, 1.0, alpha_value)
        else:
            alpha = alpha_value
        levels = self._argmin_batch(chunk_index, u, bandwidth_bps, last_levels, alpha)

        if not config.use_differential:
            return levels
        # Q1–Q3 no-deflation heuristic (§5.3), lane-masked: re-solve the
        # affected lanes with alpha = 1 and splice the results back.
        low = (levels < config.low_level_threshold) & (buffer_s > config.safe_buffer_s)
        if isinstance(alpha, np.ndarray):
            redo = (alpha < 1.0) & low
        elif alpha < 1.0:
            redo = low
        else:
            return levels
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
