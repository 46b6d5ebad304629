"""Encoder models: capped two-pass VBR (the paper's pipeline) and CBR.

The paper's FFmpeg encodes follow Netflix's per-title "three-pass" recipe
(§2): a first constant-rate-factor (CRF) pass discovers how many bits each
scene needs for constant quality, then a two-pass VBR encode targets the
resulting average bitrate with the peak capped (2x the average per current
HLS authoring guidance, 4x in the §3.3/§6.6 variant). We model each pass:

**Pass 1 (CRF)** — invert the quality surface: for every chunk, compute the
bits that would achieve a fixed target latent quality given the chunk's
scene complexity. Summing over chunks yields the track's average bitrate,
which is how per-title encoding makes simple titles cheap and complex
titles expensive.

**Pass 2–3 (two-pass capped VBR)** — allocate the track's total bit budget
across chunks proportionally to ``demand ** allocation_efficiency``. Real
encoders do not fully equalize quality (``allocation_efficiency < 1``):
they under-allocate the most complex scenes, which—together with the
peak cap—is why Q4 chunks end up with *lower* quality despite *more* bits
(§3.1.2, the paper's central characterization finding). Capped chunks'
excess bits are redistributed to uncapped chunks (water-filling), then a
small lognormal encoder noise is applied, letting the realized peak exceed
the nominal cap slightly, as the paper observes (peak/avg up to 2.4 for a
2x cap).

Resolution-dependent demand compression: downscaling removes spatial
detail, so complexity moves chunk sizes less on the low tracks. This
reproduces §2's observation that the two lowest tracks show the least
bitrate variability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.validation import check_in_range
from repro.video.model import Track
from repro.video.quality import (
    DEFAULT_QUALITY_MODEL,
    RESOLUTION_PIXELS,
    QualityModel,
)
from repro.video.scene import SceneTimeline

__all__ = [
    "DEFAULT_LADDER",
    "CODEC_EFFICIENCY",
    "EncoderConfig",
    "encode_track_vbr",
    "encode_track_cbr",
    "encode_ladder",
    "apply_bitrate_cap",
]

#: The six-rung resolution ladder used throughout the paper (§2).
DEFAULT_LADDER: Tuple[int, ...] = (144, 240, 360, 480, 720, 1080)

#: Relative bitrate needed for equal quality, per codec (H.265 reaches the
#: same quality at roughly 65% of the H.264 bitrate, §6.5).
CODEC_EFFICIENCY: Dict[str, float] = {"h264": 1.00, "h265": 0.65}


def _resolution_demand_exponent(resolution: int, base_exponent: float) -> float:
    """Demand exponent after downscaling compression.

    144p/240p keep only ~55–65% of the complexity-driven size spread;
    1080p keeps all of it.
    """
    compression = {144: 0.55, 240: 0.65, 360: 0.80, 480: 0.90, 720: 0.97, 1080: 1.0, 2160: 1.0}
    return base_exponent * compression[resolution]


@dataclass(frozen=True)
class EncoderConfig:
    """Knobs of the simulated encoding pipeline.

    Attributes
    ----------
    codec:
        ``"h264"`` or ``"h265"``; selects the codec-efficiency factor.
    cap_ratio:
        Peak-to-average bitrate cap of the VBR encode (2.0 in the paper's
        main dataset, 4.0 in §6.6).
    target_latent:
        Latent quality targeted by the CRF pass (CRF 25 in the paper maps
        to "good viewing quality"; 0.78 latent yields ~80 VMAF at 1080p).
    allocation_efficiency:
        Exponent (< 1) describing how completely the two-pass encoder
        equalizes quality across scenes; 1.0 would be an ideal encoder.
    encoder_noise_sigma:
        Lognormal sigma of residual per-chunk size noise.
    """

    codec: str = "h264"
    cap_ratio: float = 2.0
    target_latent: float = 0.85
    allocation_efficiency: float = 0.90
    encoder_noise_sigma: float = 0.03

    def __post_init__(self) -> None:
        if self.codec not in CODEC_EFFICIENCY:
            raise ValueError(f"codec must be one of {sorted(CODEC_EFFICIENCY)}, got {self.codec!r}")
        check_in_range(self.cap_ratio, "cap_ratio", 1.05, 10.0)
        check_in_range(self.target_latent, "target_latent", 0.05, 0.98)
        check_in_range(self.allocation_efficiency, "allocation_efficiency", 0.1, 1.0)
        check_in_range(self.encoder_noise_sigma, "encoder_noise_sigma", 0.0, 0.5)

    @property
    def codec_efficiency(self) -> float:
        """Bitrate multiplier for equal quality relative to H.264."""
        return CODEC_EFFICIENCY[self.codec]


def apply_bitrate_cap(bits: np.ndarray, cap_ratio: float, max_rounds: int = 32) -> np.ndarray:
    """Clip chunks above ``cap_ratio * mean`` and water-fill the excess.

    The excess bits removed from capped chunks are redistributed to the
    uncapped chunks proportionally to their current size, preserving the
    total bit budget (and hence the track's average bitrate) while
    respecting the cap. Iterates because redistribution can push new
    chunks over the cap.

    If every chunk becomes capped (pathological input), the remaining
    excess is dropped rather than looping forever.
    """
    bits = np.asarray(bits, dtype=float).copy()
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty 1-D array")
    if np.any(bits <= 0):
        raise ValueError("bits must be positive")
    check_in_range(cap_ratio, "cap_ratio", 1.0, 100.0)

    cap = cap_ratio * float(np.mean(bits))
    for _ in range(max_rounds):
        over = bits > cap
        if not np.any(over):
            break
        excess = float(np.sum(bits[over] - cap))
        bits[over] = cap
        under = ~over
        headroom = cap - bits[under]
        total_headroom = float(np.sum(headroom))
        if total_headroom <= 0:
            break
        grant = np.minimum(headroom, excess * headroom / total_headroom)
        bits[under] = bits[under] + grant
    return bits


def _crf_pass(
    timeline: SceneTimeline, resolution: int, config: EncoderConfig, quality_model: QualityModel
) -> np.ndarray:
    """Pass 1 (CRF): ideal constant-quality bits per chunk.

    Includes the track-consistent texture factor from the timeline and
    the resolution's demand compression.
    """
    exponent = _resolution_demand_exponent(resolution, quality_model.demand_exponent)
    track_model = replace(quality_model, demand_exponent=exponent)
    return timeline.texture * track_model.bits_for_latent(
        resolution, timeline.chunk_duration_s, timeline.complexity, config.target_latent
    )


def encode_track_vbr(
    rng: np.random.Generator,
    timeline: SceneTimeline,
    resolution: int,
    level: int,
    config: EncoderConfig,
    quality_model: QualityModel = DEFAULT_QUALITY_MODEL,
) -> Track:
    """Encode one VBR track following the three-pass recipe.

    Returns a :class:`~repro.video.model.Track` whose per-chunk qualities
    are evaluated on *effective* bits (actual bits divided by the codec
    efficiency), so an H.265 track reaches H.264 quality with fewer bits.
    """
    if resolution not in RESOLUTION_PIXELS:
        raise ValueError(f"unknown resolution {resolution}")
    duration = timeline.chunk_duration_s
    ideal_bits = _crf_pass(timeline, resolution, config, quality_model)
    total_bits = float(np.sum(ideal_bits)) * config.codec_efficiency

    # Pass 2–3 (two-pass VBR): allocate the budget with imperfect
    # quality equalization, then cap and water-fill.
    weights = (ideal_bits / np.mean(ideal_bits)) ** config.allocation_efficiency
    bits = total_bits * weights / np.sum(weights)
    bits = apply_bitrate_cap(bits, config.cap_ratio)

    # Residual encoder noise (GOP structure, scene-cut placement, ...);
    # not renormalized, so the realized peak can exceed the nominal cap
    # slightly, as §2 observes.
    if config.encoder_noise_sigma > 0:
        bits = bits * rng.lognormal(0.0, config.encoder_noise_sigma, size=bits.size)

    qualities = quality_model.all_metrics(
        resolution, bits / config.codec_efficiency, duration, timeline.complexity
    )
    return Track(
        level=level,
        resolution=resolution,
        chunk_sizes_bits=bits,
        chunk_duration_s=duration,
        declared_avg_bitrate_bps=float(np.mean(bits)) / duration,
        qualities=qualities,
    )


def encode_track_cbr(
    rng: np.random.Generator,
    timeline: SceneTimeline,
    resolution: int,
    level: int,
    config: EncoderConfig,
    quality_model: QualityModel = DEFAULT_QUALITY_MODEL,
) -> Track:
    """Encode one CBR track: same bit budget for every chunk.

    The total budget matches what the VBR encode of the same content would
    spend, so CBR-vs-VBR comparisons are at equal average bitrate — the
    setting in which VBR's quality advantage shows (§1).
    """
    duration = timeline.chunk_duration_s
    ideal_bits = _crf_pass(timeline, resolution, config, quality_model)
    total_bits = float(np.sum(ideal_bits)) * config.codec_efficiency
    bits = np.full(timeline.num_chunks, total_bits / timeline.num_chunks)
    if config.encoder_noise_sigma > 0:
        bits = bits * rng.lognormal(0.0, config.encoder_noise_sigma / 2.0, size=bits.size)

    qualities = quality_model.all_metrics(
        resolution, bits / config.codec_efficiency, duration, timeline.complexity
    )
    return Track(
        level=level,
        resolution=resolution,
        chunk_sizes_bits=bits,
        chunk_duration_s=duration,
        declared_avg_bitrate_bps=float(np.mean(bits)) / duration,
        qualities=qualities,
    )


def encode_ladder(
    rng: np.random.Generator,
    timeline: SceneTimeline,
    config: EncoderConfig,
    ladder: Sequence[int] = DEFAULT_LADDER,
    quality_model: QualityModel = DEFAULT_QUALITY_MODEL,
    encoding: str = "vbr",
) -> List[Track]:
    """Encode the full track ladder (lowest resolution first)."""
    if encoding not in ("vbr", "cbr"):
        raise ValueError(f"encoding must be 'vbr' or 'cbr', got {encoding!r}")
    encode = encode_track_vbr if encoding == "vbr" else encode_track_cbr
    resolutions = sorted(ladder)
    return [
        encode(rng, timeline, resolution, level, config, quality_model)
        for level, resolution in enumerate(resolutions)
    ]
