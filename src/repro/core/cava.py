"""CAVA: Control-theoretic Adaptation for VBR-based ABR streaming (§5).

CAVA composes the pieces of Fig. 5:

- the **outer controller** (preview control, P3) sets a dynamic target
  buffer level from the long-term statistical filter;
- the **PID feedback block** turns the gap between target and actual
  buffer into a relative filling rate ``u_t``;
- the **inner controller** (P1 + P2) turns ``u_t``, the bandwidth
  estimate, the short-term-filtered VBR bitrates, and the chunk's
  complexity category into a track choice.

Everything CAVA consumes is available to a stock DASH/HLS client:
per-chunk sizes from the manifest, buffer occupancy, and its own
throughput history. No content analysis, no quality metadata.

The ablations of §6.4 are exposed as constructors: :func:`cava_p1`
(non-myopic only), :func:`cava_p12` (+ differential treatment), and
:func:`cava_p123` (+ proactive target buffer) — the full scheme.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, BatchDecider, BatchDecisionContext, DecisionContext
from repro.core.config import CavaConfig
from repro.core.inner import InnerController
from repro.core.outer import OuterController
from repro.core.pid import BatchPIDController, PIDController
from repro.util.pinned import PinnedMemo
from repro.util.validation import check_non_negative
from repro.video.classify import ChunkClassifier
from repro.video.model import Manifest

__all__ = ["CavaAlgorithm", "cava_p1", "cava_p12", "cava_p123", "cava_live"]

_INF = math.inf

#: Prepared (classifier, outer, inner) stacks keyed by manifest identity
#: and config. All three are deterministic pure functions of (config,
#: manifest) and hold no per-session state (the PID block does, and is
#: rebuilt every prepare), so reusing them across sessions — sweeps build
#: a fresh CavaAlgorithm per session on a memoized manifest — skips the
#: statistical-filter and classifier recomputation without changing any
#: decision.
_PREPARED = PinnedMemo()


def _build_controllers(config: CavaConfig, manifest: Manifest):
    classifier = ChunkClassifier.from_manifest(
        manifest,
        reference_track=config.reference_track,
        num_classes=config.num_complexity_classes,
    )
    outer = OuterController(config, manifest)
    inner = InnerController(config, manifest, classifier)
    return classifier, outer, inner


class CavaAlgorithm(ABRAlgorithm):
    """The full CAVA rate-adaptation scheme (Fig. 5)."""

    def __init__(self, config: CavaConfig = CavaConfig(), name: Optional[str] = None) -> None:
        self.config = config
        if name is not None:
            self.name = name
        elif config.use_differential and config.use_proactive:
            self.name = "CAVA"
        elif config.use_differential:
            self.name = "CAVA-p12"
        else:
            self.name = "CAVA-p1"

    def prepare(self, manifest: Manifest) -> None:
        config = self.config
        if getattr(self, "pid", None) is not None and self.manifest is manifest:
            # Pooled re-use on the identity-same manifest (the fleet
            # cycles algorithm instances through per-key pools): the
            # prepared stacks are pure functions of (config, manifest)
            # and already bound, and a reset PID equals a fresh one —
            # same zeroed state, same gains hoisted from the same frozen
            # config — so skip the memo lookup and the reconstruction.
            self.pid.reset()
            self.last_target_s = config.base_target_buffer_s
            self.last_u = 1.0
            return
        super().prepare(manifest)
        self.classifier, self.outer, self.inner = _PREPARED.get(
            manifest, config, lambda: _build_controllers(config, manifest)
        )
        self.pid = PIDController(config, manifest.chunk_duration_s)
        self.last_target_s = config.base_target_buffer_s
        self.last_u = 1.0

    def select_level(self, ctx: DecisionContext) -> int:
        chunk_index = ctx.chunk_index
        buffer_s = ctx.buffer_s
        # Outer controller: where should the buffer be? (_targets is the
        # plain-float list behind target_buffer_s.)
        target = self.outer._targets[chunk_index]
        # PID block: how aggressively should we fill toward it?
        # PIDController.update is inlined — one CAVA decision per fleet
        # chunk makes the call overhead measurable; the validations and
        # every float operation keep the method's exact order.
        pid = self.pid
        now_s = ctx.now_s
        if not 0.0 <= now_s < _INF:
            check_non_negative(now_s, "now_s")
        if not 0.0 <= buffer_s < _INF:
            check_non_negative(buffer_s, "buffer_s")
        if not 0.0 <= target < _INF:
            check_non_negative(target, "target_s")
        elapsed = now_s - pid._last_time_s
        dt = elapsed if elapsed > 0.0 else 0.0
        pid._last_time_s = now_s
        error = target - buffer_s
        pid._last_error_s = error
        limit = pid._integral_limit
        integral = pid._integral + error * dt
        if integral > limit:
            integral = limit
        elif integral < -limit:
            integral = -limit
        pid._integral = integral
        indicator = 1.0 if buffer_s >= pid.chunk_duration_s else 0.0
        u = pid._kp * error + pid._ki * integral + indicator
        if u > pid._u_max:
            u = pid._u_max
        elif u < pid._u_min:
            u = pid._u_min
        # Inner controller: which track satisfies that, VBR-aware?
        # The Eq. (4) argmin runs inline over the InnerController's
        # per-chunk tables (the conditional floor keeps
        # max(bandwidth, 1000.0)'s doubles) — the call frame itself was
        # measurable at one CAVA decision per fleet chunk. The per-call
        # reference body (alpha/eta/objective/select) lives in
        # tests/core/reference.py, which pins this one to it.
        bandwidth_bps = ctx.bandwidth_bps
        if bandwidth_bps < 1_000.0:
            bandwidth_bps = 1_000.0
        last_level = ctx.last_level
        inner = self.inner
        alpha = inner._alpha_list[chunk_index]
        if (
            inner._relief_enabled
            and inner._complex_list[chunk_index]
            and buffer_s < inner._q4_relief_buffer_s
        ):
            alpha = 1.0
        if u <= 0:
            raise ValueError(f"controller output u must be positive, got {u}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        rbar_row = inner._rbar_rows[chunk_index]
        n = inner._n_horizon
        assumed_mbps = alpha * bandwidth_bps / 1e6
        best = 0
        best_cost = _INF
        if last_level is None:
            for level, rbar in enumerate(rbar_row):
                deviation = u * rbar - assumed_mbps
                cost = n * (deviation * deviation)
                if cost < best_cost:
                    best_cost = cost
                    best = level
        else:
            es_row = inner._eta_step2[chunk_index][last_level]
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
            inner._use_differential
            and alpha < 1.0
            and level < inner._low_level_threshold
            and buffer_s > inner._safe_buffer_s
        ):
            alpha = 1.0
            assumed_mbps = alpha * bandwidth_bps / 1e6
            best = 0
            best_cost = _INF
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
        inner.last_alpha = alpha
        self.last_target_s = target
        self.last_u = u

        tracer = self.tracer
        if tracer is not None:
            from repro.telemetry.tracer import ControllerStep

            tracer.on_controller_step(
                ctx.chunk_index,
                ControllerStep(
                    target_buffer_s=target,
                    error_s=self.pid.last_error_s,
                    integral=self.pid.integral,
                    u=u,
                    alpha=self.inner.last_alpha,
                    lookahead_mbps=float(
                        self.inner.short_term_bitrates_mbps[level, ctx.chunk_index]
                    ),
                    quartile=self.classifier.category(ctx.chunk_index),
                ),
            )
        return level

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        # OboeTunedCava and other wrappers carry per-instance state the
        # batch path does not model; only the plain class is batchable.
        if type(self) is not CavaAlgorithm:
            return None
        return _BatchCavaDecider(self, manifest, lanes)


class _BatchCavaDecider(BatchDecider):
    """Vectorized CAVA: shared prepared outer/inner controllers (same
    memoized stack the scalar path uses) plus a lockstep PID block.

    The outer target depends only on the chunk index — identical across
    lanes — so the per-chunk pipeline is one scalar target lookup, one
    vectorized PID update, and one lane-masked inner argmin."""

    def __init__(
        self, algorithm: CavaAlgorithm, manifest: Manifest, lanes: int
    ) -> None:
        config = algorithm.config
        _, self._outer, self._inner = _PREPARED.get(
            manifest, config, lambda: _build_controllers(config, manifest)
        )
        self._pid = BatchPIDController(config, manifest.chunk_duration_s, lanes)

    def select_levels(self, ctx: BatchDecisionContext) -> np.ndarray:
        target = self._outer.target_buffer_s(ctx.chunk_index)
        u = self._pid.update(ctx.now_s, ctx.buffer_s, target)
        return self._inner.select_batch(
            ctx.chunk_index,
            u,
            np.maximum(ctx.bandwidth_bps, 1_000.0),
            ctx.buffer_s,
            ctx.last_levels,
        )


def cava_p1(config: CavaConfig = CavaConfig()) -> CavaAlgorithm:
    """CAVA with the non-myopic principle only (§6.4 ablation)."""
    return CavaAlgorithm(
        replace(config, use_differential=False, use_proactive=False), name="CAVA-p1"
    )


def cava_p12(config: CavaConfig = CavaConfig()) -> CavaAlgorithm:
    """CAVA with non-myopic + differential treatment (§6.4 ablation)."""
    return CavaAlgorithm(
        replace(config, use_differential=True, use_proactive=False), name="CAVA-p12"
    )


def cava_p123(config: CavaConfig = CavaConfig()) -> CavaAlgorithm:
    """Full CAVA: all three principles (the paper's headline scheme)."""
    return CavaAlgorithm(
        replace(config, use_differential=True, use_proactive=True), name="CAVA"
    )


def cava_live(
    lookahead_chunks: int,
    chunk_duration_s: float,
    latency_budget_s: float = 30.0,
    config: CavaConfig = CavaConfig(),
) -> CavaAlgorithm:
    """CAVA adapted to live streaming (the §8 future-work direction).

    In live streaming the buffer is structurally small — backlog can only
    accumulate through startup and stalls, because chunks appear at the
    production rate — so end-to-end latency is approximately startup plus
    accumulated stall time. Three changes make the VoD design
    live-compatible:

    - the statistical filters clamp their windows to the manifest's
      announced lookahead, so the controller never reads sizes the live
      manifest has not published yet;
    - the target buffer is bounded well below the latency budget (a 60 s
      VoD target would put playback a minute behind the live edge);
    - the controller is retuned stall-averse: a faster proportional gain
      (small buffers leave no time for slow convergence) and gentler
      differential treatment (inflating bandwidth for Q4 chunks is what
      converts into stalls — and hence latency — when the buffer is a
      few seconds deep).
    """
    if lookahead_chunks < 1:
        raise ValueError(f"lookahead_chunks must be >= 1, got {lookahead_chunks}")
    if chunk_duration_s <= 0:
        raise ValueError(f"chunk_duration_s must be positive, got {chunk_duration_s}")
    if latency_budget_s <= 0:
        raise ValueError(f"latency_budget_s must be positive, got {latency_budget_s}")
    lookahead_s = lookahead_chunks * chunk_duration_s
    target = min(config.base_target_buffer_s, 0.4 * latency_budget_s)
    live_config = replace(
        config,
        inner_window_s=min(config.inner_window_s, lookahead_s),
        outer_window_s=min(config.outer_window_s, lookahead_s),
        base_target_buffer_s=target,
        horizon_chunks=min(config.horizon_chunks, lookahead_chunks),
        kp=max(config.kp, 0.05),
        alpha_complex=min(config.alpha_complex, 1.05),
        alpha_simple=min(config.alpha_simple, 0.7),
        safe_buffer_s=min(config.safe_buffer_s, 0.25 * latency_budget_s),
        use_differential=True,
        use_proactive=True,
    )
    return CavaAlgorithm(live_config, name="CAVA-live")
