"""Array formulations of the BOLA-E, DYNAMIC and BBA-1 decisions.

The shipped algorithms decide from per-manifest tables of Python floats.
These classes keep the straight numpy formulas those tables replaced —
scores recomputed from the chunk sizes at every call, ``np.argmax`` for
the best level, ``np.flatnonzero`` for the throughput scans — so
``tests/abr/test_decision_tables.py`` can pin the shipped decisions to
them with exact equality.

:func:`simulate_buffer` is the flat per-sequence MPC buffer rollout the
shared-prefix ``HorizonPlanner`` trellis reproduces bit for bit
(``tests/abr/test_trellis.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.video.model import Manifest

__all__ = ["ReferenceBolaE", "ReferenceDynamic", "ReferenceBBA1", "simulate_buffer"]


class ReferenceBolaE(ABRAlgorithm):
    """BOLA-E with scores ``(V * (ln(S_l/S_0) + gp) - Q) / S_l`` as arrays."""

    def __init__(
        self,
        variant: str = "seg",
        minimum_buffer_s: float = 10.0,
        buffer_target_s: float = 30.0,
    ) -> None:
        self.variant = variant
        self.minimum_buffer_s = minimum_buffer_s
        self.buffer_target_s = buffer_target_s
        self.name = f"BOLA-E ({variant})"

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        delta = manifest.chunk_duration_s
        if self.variant == "peak":
            self._track_bits = manifest.declared_peak_bitrates_bps * delta
        elif self.variant == "avg":
            self._track_bits = manifest.declared_avg_bitrates_bps * delta
        else:
            self._track_bits = None
        utilities = np.log(
            manifest.declared_avg_bitrates_bps / manifest.declared_avg_bitrates_bps[0]
        )
        u_max = float(utilities[-1])
        self._gp = (u_max - 1.0) / (self.buffer_target_s / self.minimum_buffer_s - 1.0)
        self._v = self.minimum_buffer_s / self._gp

    def sizes_bits(self, chunk_index: int) -> np.ndarray:
        if self._track_bits is not None:
            return self._track_bits
        return self.manifest.chunk_sizes_bits[:, chunk_index]

    def score_zero_buffers(self, chunk_index: int) -> np.ndarray:
        """Per level, the buffer ``V * (u_l + gp)`` at which its score is 0."""
        sizes = self.sizes_bits(chunk_index)
        return self._v * (np.log(sizes / sizes[0]) + self._gp)

    def rates_bps(self, chunk_index: int) -> np.ndarray:
        """Per level, the rate the upswitch safeguard compares to bandwidth."""
        return self.sizes_bits(chunk_index) / self.manifest.chunk_duration_s

    def _scores(self, ctx: DecisionContext) -> np.ndarray:
        sizes = self.sizes_bits(ctx.chunk_index)
        utilities = np.log(sizes / sizes[0])
        return (self._v * (utilities + self._gp) - ctx.buffer_s) / sizes

    def requested_idle_s(self, ctx: DecisionContext) -> float:
        scores = self._scores(ctx)
        if float(np.max(scores)) >= 0.0:
            return 0.0
        sizes = self.sizes_bits(ctx.chunk_index)
        utilities = np.log(sizes / sizes[0])
        resume_at = float(np.max(self._v * (utilities + self._gp)))
        return max(0.0, ctx.buffer_s - resume_at)

    def select_level(self, ctx: DecisionContext) -> int:
        scores = self._scores(ctx)
        candidate = int(np.argmax(scores))
        last = ctx.last_level
        if last is not None and candidate > last:
            sizes = self.sizes_bits(ctx.chunk_index)
            rates = sizes / self.manifest.chunk_duration_s
            sustainable_levels = np.flatnonzero(rates <= ctx.bandwidth_bps)
            sustainable = int(sustainable_levels[-1]) if sustainable_levels.size else 0
            if candidate > sustainable:
                candidate = max(sustainable, last)
        return self._clamp_level(candidate)


class ReferenceDynamic(ABRAlgorithm):
    """DYNAMIC with the throughput rule as ``np.flatnonzero(rates <= budget)``."""

    name = "DYNAMIC"

    def __init__(
        self,
        low_watermark_s: float = 10.0,
        high_watermark_s: float = 20.0,
        throughput_safety: float = 0.9,
        bola_variant: str = "seg",
    ) -> None:
        self.low_watermark_s = low_watermark_s
        self.high_watermark_s = high_watermark_s
        self.throughput_safety = throughput_safety
        self.bola = ReferenceBolaE(bola_variant)

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        self.bola.prepare(manifest)
        self.using_bola = False

    def throughput_level(self, ctx: DecisionContext) -> int:
        budget = self.throughput_safety * ctx.bandwidth_bps
        rates = self.manifest.declared_avg_bitrates_bps
        affordable = np.flatnonzero(rates <= budget)
        return int(affordable[-1]) if affordable.size else 0

    def _update_mode(self, buffer_s: float) -> None:
        if self.using_bola:
            if buffer_s < self.low_watermark_s:
                self.using_bola = False
        elif buffer_s >= self.high_watermark_s:
            self.using_bola = True

    def requested_idle_s(self, ctx: DecisionContext) -> float:
        self._update_mode(ctx.buffer_s)
        if self.using_bola:
            return self.bola.requested_idle_s(ctx)
        return 0.0

    def select_level(self, ctx: DecisionContext) -> int:
        self._update_mode(ctx.buffer_s)
        if self.using_bola:
            return self.bola.select_level(ctx)
        return self.throughput_level(ctx)


class ReferenceBBA1(ABRAlgorithm):
    """BBA-1 probing ``manifest.chunk_size_bits`` from the top level down."""

    name = "BBA-1"

    def __init__(self, reservoir_s: float = 10.0, cushion_s: float = 80.0) -> None:
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        delta = manifest.chunk_duration_s
        self._min_chunk_bits = float(manifest.declared_avg_bitrates_bps[0]) * delta
        self._max_chunk_bits = float(manifest.declared_avg_bitrates_bps[-1]) * delta

    def allowed_chunk_bits(self, buffer_s: float) -> float:
        if buffer_s <= self.reservoir_s:
            return self._min_chunk_bits
        if buffer_s >= self.cushion_s:
            return self._max_chunk_bits
        fraction = (buffer_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
        return self._min_chunk_bits + fraction * (self._max_chunk_bits - self._min_chunk_bits)

    def select_level(self, ctx: DecisionContext) -> int:
        allowed = self.allowed_chunk_bits(ctx.buffer_s)
        for level in range(self.manifest.num_tracks - 1, -1, -1):
            if self.manifest.chunk_size_bits(level, ctx.chunk_index) <= allowed:
                return level
        return 0


def simulate_buffer(
    sequences: np.ndarray,
    sizes_bits: np.ndarray,
    bandwidth_bps: float,
    start_buffer_s: float,
    chunk_duration_s: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized buffer rollout for every candidate sequence.

    Parameters
    ----------
    sequences:
        ``(count, h)`` candidate level sequences.
    sizes_bits:
        ``(num_tracks, h)`` actual chunk sizes over the horizon.
    bandwidth_bps:
        Predicted bandwidth, assumed constant over the horizon (the
        standard MPC simplification).
    start_buffer_s:
        Buffer level when the first chunk's download starts.
    chunk_duration_s:
        Playback seconds added per downloaded chunk.

    Returns
    -------
    (total_rebuffer_s, final_buffer_s):
        Both of shape ``(count,)``.
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
    count, h = sequences.shape
    if sizes_bits.shape[1] != h:
        raise ValueError(
            f"sizes cover {sizes_bits.shape[1]} chunks but sequences plan {h}"
        )
    buffer = np.full(count, float(start_buffer_s))
    rebuffer = np.zeros(count)
    for k in range(h):
        download_s = sizes_bits[sequences[:, k], k] / bandwidth_bps
        shortfall = download_s - buffer
        stall = np.maximum(shortfall, 0.0)
        rebuffer += stall
        buffer = np.maximum(buffer - download_s, 0.0) + chunk_duration_s
    return rebuffer, buffer
