"""dash.js's DYNAMIC rule: BOLA when the buffer is deep, throughput-based
when it is shallow.

This is the default ABR in the dash.js player the paper prototypes CAVA
inside (§5.5/§6.8): below a buffer threshold the player trusts its
throughput estimate (BOLA's utility is unreliable with little buffer);
above it, BOLA takes over. The switch has hysteresis — DYNAMIC moves to
BOLA at ``high_watermark_s`` and back to throughput only below
``low_watermark_s`` — to stop flapping at the boundary.

Included as the "what a stock player does" baseline for the dash.js
harness, complementing the explicit BOLA-E variants of §6.8.
"""

from __future__ import annotations

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.abr.bola import BolaEAlgorithm
from repro.util.validation import check_in_range, check_positive
from repro.video.model import Manifest

__all__ = ["DynamicAlgorithm"]


class DynamicAlgorithm(ABRAlgorithm):
    """Hybrid throughput/BOLA adaptation with hysteresis (dash.js DYNAMIC)."""

    name = "DYNAMIC"

    def __init__(
        self,
        low_watermark_s: float = 10.0,
        high_watermark_s: float = 20.0,
        throughput_safety: float = 0.9,
        bola_variant: str = "seg",
    ) -> None:
        check_positive(low_watermark_s, "low_watermark_s")
        check_positive(high_watermark_s, "high_watermark_s")
        if high_watermark_s <= low_watermark_s:
            raise ValueError("high_watermark_s must exceed low_watermark_s")
        check_in_range(throughput_safety, "throughput_safety", 0.1, 1.0)
        self.low_watermark_s = low_watermark_s
        self.high_watermark_s = high_watermark_s
        self.throughput_safety = throughput_safety
        self._bola = BolaEAlgorithm(bola_variant)

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        self._bola.prepare(manifest)
        self._avg_rates = tuple(manifest.declared_avg_bitrates_bps.tolist())
        self._using_bola = False

    @property
    def using_bola(self) -> bool:
        """Which half of the hybrid is currently active."""
        return self._using_bola

    def _throughput_level(self, ctx: DecisionContext) -> int:
        """Highest level whose declared average rate fits the budget, else 0."""
        budget = self.throughput_safety * ctx.bandwidth_bps
        rates = self._avg_rates
        for level in range(len(rates) - 1, 0, -1):
            if rates[level] <= budget:
                return level
        return 0

    def _update_mode(self, buffer_s: float) -> None:
        if self._using_bola:
            if buffer_s < self.low_watermark_s:
                self._using_bola = False
        elif buffer_s >= self.high_watermark_s:
            self._using_bola = True

    def requested_idle_s(self, ctx: DecisionContext) -> float:
        self._update_mode(ctx.buffer_s)
        if self._using_bola:
            return self._bola.requested_idle_s(ctx)
        return 0.0

    def select_level(self, ctx: DecisionContext) -> int:
        self._update_mode(ctx.buffer_s)
        if self._using_bola:
            return self._bola.select_level(ctx)
        return self._throughput_level(ctx)
