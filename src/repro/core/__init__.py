"""CAVA — the paper's primary contribution (§5): PID feedback block,
short/long-term statistical filters, inner and outer controllers, and the
composed rate-adaptation scheme with its §6.4 ablations."""

from repro.core.cava import CavaAlgorithm, cava_live, cava_p1, cava_p12, cava_p123
from repro.core.config import CavaConfig
from repro.core.filters import (
    long_term_target_adjustments,
    short_term_bitrates,
    window_chunks,
)
from repro.core.inner import InnerController
from repro.core.outer import OuterController
from repro.core.pid import PIDController

__all__ = [
    "CavaAlgorithm",
    "cava_p1",
    "cava_p12",
    "cava_p123",
    "cava_live",
    "CavaConfig",
    "long_term_target_adjustments",
    "short_term_bitrates",
    "window_chunks",
    "InnerController",
    "OuterController",
    "PIDController",
]
