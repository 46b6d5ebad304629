"""The per-call form of CAVA's decision (§5.2–§5.3), for differential tests.

``CavaAlgorithm.select_level`` runs the PID update and the Eq. (3)–(4)
argmin inlined over per-chunk Python-float tables. This module keeps the
definitions those tables were resolved from:

- :class:`ReferenceInnerController` adds the P2 factor ``alpha``, the
  track-change weight ``eta``, the Eq. (3) ``objective`` as a numpy
  vector over the levels, and the Eq. (4) ``select`` — ``np.argmin`` of
  that vector, with the §5.3 heuristics — to the shipped controller;
- :class:`ReferenceCava` chains outer target → ``PIDController.update``
  → ``ReferenceInnerController.select``, the decision pipeline of
  Fig. 5 one method call at a time.

``tests/core/test_cava_reference.py`` holds the shipped decision to
:class:`ReferenceCava` with exact equality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.abr.base import DecisionContext
from repro.core.config import CavaConfig
from repro.core.inner import InnerController
from repro.core.outer import OuterController
from repro.core.pid import PIDController
from repro.video.classify import ChunkClassifier
from repro.video.model import Manifest

__all__ = ["ReferenceInnerController", "ReferenceCava"]


class ReferenceInnerController(InnerController):
    """The inner controller with Eq. (3)–(4) as per-call methods."""

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
    def select(
        self,
        chunk_index: int,
        u: float,
        bandwidth_bps: float,
        buffer_s: float,
        last_level: Optional[int],
    ) -> int:
        """Return the optimal level l*_t, heuristics included.

        ``np.argmin`` returns the first minimal level, the tie-break the
        shipped strict-``<`` scan reproduces.
        """
        alpha = self.alpha(chunk_index, buffer_s)
        level = int(
            np.argmin(self.objective(chunk_index, u, bandwidth_bps, last_level, alpha))
        )
        # Q1–Q3 no-deflation heuristic (§5.3): deflating must not push a
        # simple chunk to a very low level while the buffer is healthy.
        config = self.config
        if (
            config.use_differential
            and alpha < 1.0
            and level < config.low_level_threshold
            and buffer_s > config.safe_buffer_s
        ):
            alpha = 1.0
            level = int(
                np.argmin(
                    self.objective(chunk_index, u, bandwidth_bps, last_level, alpha)
                )
            )
        self.last_alpha = alpha
        return level


class ReferenceCava:
    """CAVA's decision as outer target → PID update → Eq. (4) select."""

    def __init__(self, config: CavaConfig, manifest: Manifest) -> None:
        classifier = ChunkClassifier.from_manifest(
            manifest,
            reference_track=config.reference_track,
            num_classes=config.num_complexity_classes,
        )
        self.outer = OuterController(config, manifest)
        self.pid = PIDController(config, manifest.chunk_duration_s)
        self.inner = ReferenceInnerController(config, manifest, classifier)
        self.last_u = 1.0

    def select_level(self, ctx: DecisionContext) -> int:
        target = self.outer.target_buffer_s(ctx.chunk_index)
        u = self.pid.update(ctx.now_s, ctx.buffer_s, target)
        self.last_u = u
        return self.inner.select(
            ctx.chunk_index,
            u,
            max(ctx.bandwidth_bps, 1_000.0),
            ctx.buffer_s,
            ctx.last_level,
        )
