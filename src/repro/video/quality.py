"""Rate–quality surfaces: VMAF (TV / phone), PSNR, and SSIM models.

The paper measures chunk quality with the ``vmaf`` tool against raw or
2160p reference footage. We replace the measurement with an analytic
surface ``quality(resolution, bits, duration, complexity)`` with the
properties every practical codec study reports:

1. quality is increasing and saturating in bits-per-pixel (logistic in
   log-bpp, the standard shape of rate–distortion curves);
2. complex scenes need more bits for the same quality — the complexity
   enters as a multiplicative *bit-demand* factor on bpp, so a Q4 chunk
   given the same bpp as a Q1 chunk scores much lower (Fig. 3);
3. low resolutions cap out early even with generous bitrate, because the
   score is computed against a high-resolution reference (upscaling
   penalty); the phone model is more forgiving of low resolutions than
   the TV model, matching VMAF's two released models;
4. H.265 reaches the same quality at ~60–70% of the H.264 bitrate (§6.5);
   this enters through the encoder's codec efficiency, not this module.

PSNR and SSIM are monotone transforms of the same latent score with
metric-appropriate output ranges (PSNR ~26–50 dB, SSIM ~0.7–1.0),
sufficient to reproduce the orderings in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.util.validation import (
    check_all_in_range,
    check_all_positive,
    check_in_range,
    check_positive,
)

__all__ = [
    "RESOLUTION_PIXELS",
    "QualityModel",
    "DEFAULT_QUALITY_MODEL",
    "complexity_bit_demand",
]

#: Pixel counts of the six ladder resolutions used throughout the paper.
RESOLUTION_PIXELS: Dict[int, int] = {
    144: 256 * 144,
    240: 426 * 240,
    360: 640 * 360,
    480: 854 * 480,
    720: 1280 * 720,
    1080: 1920 * 1080,
    2160: 3840 * 2160,
}

#: Upscaling factor applied to the latent score on a large (TV) screen.
_TV_RESOLUTION_CEILING: Dict[int, float] = {
    144: 0.30,
    240: 0.46,
    360: 0.62,
    480: 0.78,
    720: 0.92,
    1080: 1.00,
    2160: 1.00,
}

#: The phone model tolerates low resolutions better (small screen).
_PHONE_RESOLUTION_CEILING: Dict[int, float] = {
    144: 0.44,
    240: 0.62,
    360: 0.78,
    480: 0.90,
    720: 0.98,
    1080: 1.00,
    2160: 1.00,
}


def _float_pow(base, exponent) -> np.ndarray:
    """``base ** exponent`` elementwise with Python's float power.

    numpy's array ``power`` rounds differently from the C library's
    ``pow`` (which Python floats and numpy scalars both call) in a few
    percent of doubles, so the surfaces raise element by element to keep
    every chunk's bits and scores identical to a per-chunk evaluation.
    """
    base, exponent = np.broadcast_arrays(base, exponent)
    powers = [b**e for b, e in zip(base.ravel().tolist(), exponent.ravel().tolist())]
    return np.array(powers).reshape(base.shape)


def complexity_bit_demand(complexity, demand_exponent: float = 3.4) -> np.ndarray:
    """Bits-per-pixel multiplier a scene of given complexity needs.

    Defined as ``2 ** (demand_exponent * (complexity - 0.35))`` so that a
    middling scene (c = 0.35) has demand 1, the simplest scenes need a
    fraction of the bits, and the most complex several times more — the
    spread that makes a 2x VBR cap bind on complex scenes (§3.3).
    Elementwise over an array of complexities (a scalar gives a 0-d array).
    """
    complexity = np.asarray(complexity, dtype=float)
    check_all_in_range(complexity, "complexity", 0.0, 1.0)
    return _float_pow(2.0, demand_exponent * (complexity - 0.35))


@dataclass(frozen=True)
class QualityModel:
    """Analytic quality surface with tunable calibration constants.

    Attributes
    ----------
    frames_per_second:
        Frame rate used to convert chunk bits to bits-per-pixel.
    half_quality_bpp:
        Bits-per-pixel (for a demand-1 scene) at which the latent score is
        0.5; the midpoint of the logistic.
    logistic_width:
        Width (in log2-bpp units) of the logistic transition.
    demand_exponent:
        Exponent of :func:`complexity_bit_demand`.
    hardness, hardness_midpoint, hardness_width:
        Complexity-hardness ceiling. §3.3 observes Q4 chunks stay below
        Q1–Q3 quality even at a 4x cap, "because it is inherently very
        difficult to encode complex scenes to reach the same quality as
        simple scenes"; we model that irreducible penalty as a
        multiplicative ceiling on the latent score,
        ``1 - hardness * sigmoid((c - hardness_midpoint) / hardness_width)``,
        which leaves simple-to-moderate scenes untouched and penalizes the
        top-complexity scenes — the ones that land in the top size
        quartile — by up to ``hardness``.
    """

    frames_per_second: float = 24.0
    half_quality_bpp: float = 0.0085
    logistic_width: float = 1.15
    demand_exponent: float = 3.4
    hardness: float = 0.26
    hardness_midpoint: float = 0.62
    hardness_width: float = 0.09

    def __post_init__(self) -> None:
        check_positive(self.frames_per_second, "frames_per_second")
        check_positive(self.half_quality_bpp, "half_quality_bpp")
        check_positive(self.logistic_width, "logistic_width")
        check_positive(self.demand_exponent, "demand_exponent")
        check_in_range(self.hardness, "hardness", 0.0, 0.6)
        check_in_range(self.hardness_midpoint, "hardness_midpoint", 0.0, 1.0)
        check_positive(self.hardness_width, "hardness_width")

    # ------------------------------------------------------------------
    # Latent score
    # ------------------------------------------------------------------
    def latent_score(
        self,
        resolution: int,
        chunk_bits,
        chunk_duration_s: float,
        complexity,
    ) -> np.ndarray:
        """Latent quality in (0, 1) before metric-specific shaping.

        The latent score is a logistic in log2 of *effective* bits per
        pixel — actual bpp divided by the scene's bit demand — scaled by
        the complexity hardness ceiling (see ``hardness``). Elementwise
        over per-chunk ``chunk_bits`` and ``complexity`` arrays.
        """
        if resolution not in RESOLUTION_PIXELS:
            raise ValueError(
                f"unknown resolution {resolution}; known: {sorted(RESOLUTION_PIXELS)}"
            )
        chunk_bits = np.asarray(chunk_bits, dtype=float)
        check_all_positive(chunk_bits, "chunk_bits")
        check_positive(chunk_duration_s, "chunk_duration_s")
        pixels_per_chunk = RESOLUTION_PIXELS[resolution] * self.frames_per_second * chunk_duration_s
        bpp = chunk_bits / pixels_per_chunk
        demand = complexity_bit_demand(complexity, self.demand_exponent)
        x = (np.log2(bpp / demand) - np.log2(self.half_quality_bpp)) / self.logistic_width
        return self.hardness_ceiling(complexity) / (1.0 + np.exp(-x))

    def hardness_ceiling(self, complexity) -> np.ndarray:
        """Maximum latent score reachable at each scene complexity."""
        complexity = np.asarray(complexity, dtype=float)
        check_all_in_range(complexity, "complexity", 0.0, 1.0)
        gate = 1.0 / (1.0 + np.exp(-(complexity - self.hardness_midpoint) / self.hardness_width))
        return 1.0 - self.hardness * gate

    # ------------------------------------------------------------------
    # Metric surfaces
    # ------------------------------------------------------------------
    def all_metrics(
        self,
        resolution: int,
        chunk_bits,
        chunk_duration_s: float,
        complexity,
    ) -> Dict[str, np.ndarray]:
        """All four metrics of §3.1.2 per encoded chunk, from one latent score.

        - VMAF in [0, 100] under the TV and the phone viewing model;
        - median-frame PSNR in dB (≈26 dB poor to ≈50 dB transparent);
        - SSIM in [0, 1] (practically 0.70–0.995 for watchable video).
        """
        latent = self.latent_score(resolution, chunk_bits, chunk_duration_s, complexity)
        ceiling = _TV_RESOLUTION_CEILING[resolution]
        return {
            "vmaf_tv": 100.0 * ceiling * latent,
            "vmaf_phone": 100.0 * _PHONE_RESOLUTION_CEILING[resolution] * latent,
            "psnr": 26.0 + 24.0 * ceiling * latent,
            "ssim": 0.70 + 0.295 * ceiling * _float_pow(latent, 0.8),
        }

    def vmaf(
        self,
        resolution: int,
        chunk_bits,
        chunk_duration_s: float,
        complexity,
        model: str = "tv",
    ) -> np.ndarray:
        """VMAF under the TV or phone viewing model (see :meth:`all_metrics`)."""
        if model not in ("tv", "phone"):
            raise ValueError(f"model must be 'tv' or 'phone', got {model!r}")
        return self.all_metrics(resolution, chunk_bits, chunk_duration_s, complexity)[
            f"vmaf_{model}"
        ]

    def psnr(self, resolution: int, chunk_bits, chunk_duration_s: float, complexity) -> np.ndarray:
        """PSNR in dB (see :meth:`all_metrics`)."""
        return self.all_metrics(resolution, chunk_bits, chunk_duration_s, complexity)["psnr"]

    def ssim(self, resolution: int, chunk_bits, chunk_duration_s: float, complexity) -> np.ndarray:
        """SSIM (see :meth:`all_metrics`)."""
        return self.all_metrics(resolution, chunk_bits, chunk_duration_s, complexity)["ssim"]

    # ------------------------------------------------------------------
    # Inverse: bits needed for a target latent score
    # ------------------------------------------------------------------
    def bits_for_latent(
        self,
        resolution: int,
        chunk_duration_s: float,
        complexity,
        latent: float,
    ) -> np.ndarray:
        """Invert :meth:`latent_score`: bits needed for a target latent score.

        Used by the encoder model's first (CRF-like) pass, which aims at
        constant quality across scenes. When the hardness ceiling makes the
        target unreachable, the encoder spends what a near-saturated score
        (logistic value 0.95) costs and accepts the shortfall — this is
        the regime where complex scenes devour bits yet stay behind.
        Elementwise over a per-chunk ``complexity`` array.
        """
        check_in_range(latent, "latent", 1e-6, 1.0 - 1e-6)
        pixels_per_chunk = RESOLUTION_PIXELS[resolution] * self.frames_per_second * chunk_duration_s
        ceiling = self.hardness_ceiling(complexity)
        logistic_target = np.minimum(latent / ceiling, 0.95)
        x = np.log(logistic_target / (1.0 - logistic_target))
        log2_bpp = x * self.logistic_width + np.log2(self.half_quality_bpp)
        demand = complexity_bit_demand(complexity, self.demand_exponent)
        return _float_pow(2.0, log2_bpp) * demand * pixels_per_chunk


#: Shared default instance; the dataset builder and tests use this.
DEFAULT_QUALITY_MODEL = QualityModel()
