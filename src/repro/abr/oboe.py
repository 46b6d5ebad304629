"""Oboe-style auto-tuned CAVA (Akhtar et al., SIGCOMM 2018 [1]).

Oboe's insight, cited in the paper's related work: one parameterization
of an ABR scheme cannot fit all network conditions, so pre-compute the
best parameters per *network state* (mean, variability of throughput)
offline and switch between them online as the observed state changes.

Applied to CAVA: the deflation/inflation factors and the proportional
gain trade quality against stall risk differently on a stable 6 Mbps
link than on a choppy 1 Mbps one. :class:`OboeTunedCava` carries a
state-indexed configuration table (a hand-calibrated default is
included; pass ``state_configs`` to use another), classifies the recent
throughput samples into a state each decision, and delegates to a CAVA
instance reconfigured for that state.

This is an *extension*, not part of the paper's evaluation; it exists to
show the control-theoretic core composes with the auto-tuning line of
work the paper positions itself against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.core.cava import CavaAlgorithm
from repro.core.config import CavaConfig
from repro.video.model import Manifest

__all__ = ["NetworkState", "OboeTunedCava", "DEFAULT_STATE_CONFIGS"]


@dataclass(frozen=True)
class NetworkState:
    """A cell of the (mean throughput, variability) grid."""

    label: str
    min_mean_bps: float
    max_mean_bps: float
    min_cov: float
    max_cov: float

    def contains(self, mean_bps: float, cov: float) -> bool:
        """Whether an observed (mean, CoV) pair falls in this cell."""
        return (
            self.min_mean_bps <= mean_bps < self.max_mean_bps
            and self.min_cov <= cov < self.max_cov
        )


def _states() -> List[NetworkState]:
    """A compact 2x2 grid plus a catch-all, enough to show the effect."""
    return [
        NetworkState("low-stable", 0.0, 1.5e6, 0.0, 0.35),
        NetworkState("low-choppy", 0.0, 1.5e6, 0.35, 10.0),
        NetworkState("high-stable", 1.5e6, float("inf"), 0.0, 0.35),
        NetworkState("high-choppy", 1.5e6, float("inf"), 0.35, 10.0),
    ]


#: Hand-calibrated per-state overrides: choppy states get stronger
#: deflation and a faster gain; stable-high states can afford gentler
#: control.
DEFAULT_STATE_CONFIGS: Dict[str, dict] = {
    "low-stable": {"alpha_simple": 0.85, "kp": 0.01},
    "low-choppy": {"alpha_simple": 0.7, "alpha_complex": 1.1, "kp": 0.02},
    "high-stable": {"alpha_simple": 0.9, "kp": 0.005},
    "high-choppy": {"alpha_simple": 0.75, "kp": 0.015},
}


class OboeTunedCava(ABRAlgorithm):
    """CAVA with per-network-state configuration switching."""

    name = "CAVA-oboe"

    def __init__(
        self,
        base_config: CavaConfig = CavaConfig(),
        state_configs: Optional[Dict[str, dict]] = None,
        sample_window: int = 10,
    ) -> None:
        if sample_window < 2:
            raise ValueError(f"sample_window must be >= 2, got {sample_window}")
        self.base_config = base_config
        self.state_configs = dict(state_configs or DEFAULT_STATE_CONFIGS)
        self.states = _states()
        unknown = set(self.state_configs) - {s.label for s in self.states}
        if unknown:
            raise ValueError(f"state_configs for unknown states: {sorted(unknown)}")
        self.sample_window = sample_window
        self._samples: Deque[float] = deque(maxlen=sample_window)
        self._active_label: Optional[str] = None
        self._active: Optional[CavaAlgorithm] = None
        self.state_switches = 0

    # ------------------------------------------------------------------
    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        self._samples.clear()
        self._active_label = None
        self.state_switches = 0
        self._activate("high-choppy")  # conservative default until samples arrive

    def _activate(self, label: str) -> None:
        if label == self._active_label:
            return
        overrides = self.state_configs.get(label, {})
        config = replace(self.base_config, **overrides)
        algorithm = CavaAlgorithm(config, name=self.name)
        algorithm.prepare(self.manifest)
        # Carry the PID clock across reconfigurations so the integral does
        # not restart from zero mid-session.
        if self._active is not None:
            algorithm.pid._integral = self._active.pid._integral
            algorithm.pid._last_time_s = self._active.pid._last_time_s
        self._active = algorithm
        if self._active_label is not None:
            self.state_switches += 1
        self._active_label = label

    def _classify(self) -> str:
        samples = np.array(self._samples)
        mean = float(np.mean(samples))
        cov = float(np.std(samples) / mean) if mean > 0 else 10.0
        for state in self.states:
            if state.contains(mean, cov):
                return state.label
        return "high-choppy"

    @property
    def active_state(self) -> Optional[str]:
        """Label of the state currently driving the configuration."""
        return self._active_label

    # ------------------------------------------------------------------
    def select_level(self, ctx: DecisionContext) -> int:
        if len(self._samples) >= self.sample_window // 2:
            self._activate(self._classify())
        return self._active.select_level(ctx)

    def notify_download(
        self, chunk_index, level, size_bits, download_s, buffer_s, now_s
    ) -> None:
        if download_s > 0:
            self._samples.append(size_bits / download_s)
        self._active.notify_download(
            chunk_index, level, size_bits, download_s, buffer_s, now_s
        )

