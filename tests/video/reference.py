"""Per-chunk forms of the video input generators, for differential tests.

The shipped pipeline evaluates whole tracks at once: the scene timeline
draws its drift noise in one block, and the encoder's CRF pass and the
quality surfaces run as array operations over the chunk axis. This
module keeps the forms they were vectorized from, one chunk and one
numpy-scalar call at a time:

- the scalar quality surface — :func:`complexity_bit_demand`,
  :func:`latent_score`, :func:`hardness_ceiling`, the four metrics and
  the CRF inverse :func:`bits_for_latent`, as functions of a
  :class:`~repro.video.quality.QualityModel`'s constants;
- :func:`synthesize_scene_timeline`, drawing one drift sample per chunk;
- :func:`encode_track_vbr` / :func:`encode_track_cbr` with the per-chunk
  CRF pass and quality evaluation, and :func:`build_video` on top.

``tests/video/test_generators_reference.py`` holds the shipped
generators to these with exact equality.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np

from repro.util.rng import derive_rng
from repro.util.validation import check_in_range, check_positive
from repro.video.dataset import VideoSpec
from repro.video.model import Track, VideoAsset
from repro.video.quality import (
    _PHONE_RESOLUTION_CEILING,
    _TV_RESOLUTION_CEILING,
    DEFAULT_QUALITY_MODEL,
    RESOLUTION_PIXELS,
    QualityModel,
)
from repro.video.scene import (
    GENRE_PROFILES,
    SceneTimeline,
    _scene_durations,
    _si_ti_from_complexity,
)
from repro.video.synthesis import (
    DEFAULT_LADDER,
    EncoderConfig,
    _resolution_demand_exponent,
    apply_bitrate_cap,
)

# ----------------------------------------------------------------------
# Scalar quality surface
# ----------------------------------------------------------------------


def complexity_bit_demand(complexity: float, demand_exponent: float = 3.4) -> float:
    check_in_range(complexity, "complexity", 0.0, 1.0)
    return float(2.0 ** (demand_exponent * (complexity - 0.35)))


def hardness_ceiling(model: QualityModel, complexity: float) -> float:
    check_in_range(complexity, "complexity", 0.0, 1.0)
    gate = 1.0 / (1.0 + np.exp(-(complexity - model.hardness_midpoint) / model.hardness_width))
    return float(1.0 - model.hardness * gate)


def latent_score(
    model: QualityModel,
    resolution: int,
    chunk_bits: float,
    chunk_duration_s: float,
    complexity: float,
) -> float:
    if resolution not in RESOLUTION_PIXELS:
        raise ValueError(f"unknown resolution {resolution}; known: {sorted(RESOLUTION_PIXELS)}")
    check_positive(chunk_bits, "chunk_bits")
    check_positive(chunk_duration_s, "chunk_duration_s")
    pixels_per_chunk = RESOLUTION_PIXELS[resolution] * model.frames_per_second * chunk_duration_s
    bpp = chunk_bits / pixels_per_chunk
    demand = complexity_bit_demand(complexity, model.demand_exponent)
    x = (np.log2(bpp / demand) - np.log2(model.half_quality_bpp)) / model.logistic_width
    return float(hardness_ceiling(model, complexity) / (1.0 + np.exp(-x)))


def vmaf(model, resolution, chunk_bits, chunk_duration_s, complexity, kind="tv") -> float:
    if kind == "tv":
        ceiling = _TV_RESOLUTION_CEILING[resolution]
    elif kind == "phone":
        ceiling = _PHONE_RESOLUTION_CEILING[resolution]
    else:
        raise ValueError(f"model must be 'tv' or 'phone', got {kind!r}")
    latent = latent_score(model, resolution, chunk_bits, chunk_duration_s, complexity)
    return 100.0 * ceiling * latent


def psnr(model, resolution, chunk_bits, chunk_duration_s, complexity) -> float:
    latent = latent_score(model, resolution, chunk_bits, chunk_duration_s, complexity)
    ceiling = _TV_RESOLUTION_CEILING[resolution]
    return 26.0 + 24.0 * ceiling * latent


def ssim(model, resolution, chunk_bits, chunk_duration_s, complexity) -> float:
    latent = latent_score(model, resolution, chunk_bits, chunk_duration_s, complexity)
    ceiling = _TV_RESOLUTION_CEILING[resolution]
    return 0.70 + 0.295 * ceiling * latent**0.8


def all_metrics(model, resolution, chunk_bits, chunk_duration_s, complexity) -> Dict[str, float]:
    return {
        "vmaf_tv": vmaf(model, resolution, chunk_bits, chunk_duration_s, complexity, "tv"),
        "vmaf_phone": vmaf(model, resolution, chunk_bits, chunk_duration_s, complexity, "phone"),
        "psnr": psnr(model, resolution, chunk_bits, chunk_duration_s, complexity),
        "ssim": ssim(model, resolution, chunk_bits, chunk_duration_s, complexity),
    }


def bits_for_latent(
    model: QualityModel,
    resolution: int,
    chunk_duration_s: float,
    complexity: float,
    latent: float,
) -> float:
    check_in_range(latent, "latent", 1e-6, 1.0 - 1e-6)
    pixels_per_chunk = RESOLUTION_PIXELS[resolution] * model.frames_per_second * chunk_duration_s
    ceiling = hardness_ceiling(model, complexity)
    logistic_target = min(latent / ceiling, 0.95)
    x = np.log(logistic_target / (1.0 - logistic_target))
    log2_bpp = x * model.logistic_width + np.log2(model.half_quality_bpp)
    demand = complexity_bit_demand(complexity, model.demand_exponent)
    return float(2.0**log2_bpp * demand * pixels_per_chunk)


# ----------------------------------------------------------------------
# Scene timeline: one drift draw per chunk
# ----------------------------------------------------------------------


def synthesize_scene_timeline(
    rng: np.random.Generator, genre: str, duration_s: float, chunk_duration_s: float
) -> SceneTimeline:
    profile = GENRE_PROFILES[genre]
    durations = _scene_durations(rng, profile, duration_s)
    scene_complexities = rng.beta(profile.complexity_alpha, profile.complexity_beta, size=len(durations))

    num_chunks = int(round(duration_s / chunk_duration_s))
    complexity = np.empty(num_chunks, dtype=float)
    scene_ids = np.empty(num_chunks, dtype=int)

    boundaries = np.cumsum(durations)
    scene_index = 0
    drift = 0.0
    for chunk in range(num_chunks):
        midpoint = (chunk + 0.5) * chunk_duration_s
        while scene_index < len(boundaries) - 1 and midpoint > boundaries[scene_index]:
            scene_index += 1
            drift = 0.0
        drift = 0.6 * drift + rng.normal(0.0, 0.035)
        complexity[chunk] = np.clip(scene_complexities[scene_index] + drift, 0.0, 1.0)
        scene_ids[chunk] = scene_index

    si, ti = _si_ti_from_complexity(rng, complexity, profile)
    texture = rng.lognormal(0.0, 0.10, size=num_chunks)
    return SceneTimeline(
        complexity=complexity,
        si=si,
        ti=ti,
        scene_ids=scene_ids,
        chunk_duration_s=chunk_duration_s,
        genre=genre,
        texture=texture,
    )


# ----------------------------------------------------------------------
# Encoder: per-chunk CRF pass and quality evaluation
# ----------------------------------------------------------------------


def ideal_bits(
    timeline: SceneTimeline, resolution: int, config: EncoderConfig, quality_model: QualityModel
) -> np.ndarray:
    exponent = _resolution_demand_exponent(resolution, quality_model.demand_exponent)
    track_model = replace(quality_model, demand_exponent=exponent)
    return timeline.texture * np.array(
        [
            bits_for_latent(
                track_model, resolution, timeline.chunk_duration_s, c, config.target_latent
            )
            for c in timeline.complexity
        ]
    )


def evaluate_qualities(
    quality_model: QualityModel,
    resolution: int,
    effective_bits: np.ndarray,
    duration: float,
    complexity: np.ndarray,
) -> Dict[str, np.ndarray]:
    metrics: Dict[str, List[float]] = {"vmaf_tv": [], "vmaf_phone": [], "psnr": [], "ssim": []}
    for bits, c in zip(effective_bits, complexity):
        values = all_metrics(quality_model, resolution, float(bits), duration, float(c))
        for name, value in values.items():
            metrics[name].append(value)
    return {name: np.array(values) for name, values in metrics.items()}


def _track(level, resolution, bits, duration, qualities) -> Track:
    return Track(
        level=level,
        resolution=resolution,
        chunk_sizes_bits=bits,
        chunk_duration_s=duration,
        declared_avg_bitrate_bps=float(np.mean(bits)) / duration,
        qualities=qualities,
    )


def encode_track_vbr(rng, timeline, resolution, level, config, quality_model) -> Track:
    duration = timeline.chunk_duration_s
    ideal = ideal_bits(timeline, resolution, config, quality_model)
    total_bits = float(np.sum(ideal)) * config.codec_efficiency
    weights = (ideal / np.mean(ideal)) ** config.allocation_efficiency
    bits = total_bits * weights / np.sum(weights)
    bits = apply_bitrate_cap(bits, config.cap_ratio)
    if config.encoder_noise_sigma > 0:
        bits = bits * rng.lognormal(0.0, config.encoder_noise_sigma, size=bits.size)
    qualities = evaluate_qualities(
        quality_model, resolution, bits / config.codec_efficiency, duration, timeline.complexity
    )
    return _track(level, resolution, bits, duration, qualities)


def encode_track_cbr(rng, timeline, resolution, level, config, quality_model) -> Track:
    duration = timeline.chunk_duration_s
    ideal = ideal_bits(timeline, resolution, config, quality_model)
    total_bits = float(np.sum(ideal)) * config.codec_efficiency
    bits = np.full(timeline.num_chunks, total_bits / timeline.num_chunks)
    if config.encoder_noise_sigma > 0:
        bits = bits * rng.lognormal(0.0, config.encoder_noise_sigma / 2.0, size=bits.size)
    qualities = evaluate_qualities(
        quality_model, resolution, bits / config.codec_efficiency, duration, timeline.complexity
    )
    return _track(level, resolution, bits, duration, qualities)


def build_video(
    spec: VideoSpec,
    seed: int = 0,
    encoding: str = "vbr",
    quality_model: QualityModel = DEFAULT_QUALITY_MODEL,
) -> VideoAsset:
    """``repro.video.dataset.build_video`` over the per-chunk pieces."""
    rng = derive_rng(seed, "scene", spec.title, f"{spec.chunk_duration_s:g}")
    timeline = synthesize_scene_timeline(rng, spec.genre, spec.duration_s, spec.chunk_duration_s)
    config = EncoderConfig(codec=spec.codec, cap_ratio=spec.cap_ratio)
    encoder_rng = derive_rng(seed, "encode", spec.name, encoding)
    encode = encode_track_vbr if encoding == "vbr" else encode_track_cbr
    tracks = [
        encode(encoder_rng, timeline, resolution, level, config, quality_model)
        for level, resolution in enumerate(sorted(DEFAULT_LADDER))
    ]
    return VideoAsset(
        name=spec.name,
        genre=spec.genre,
        codec=spec.codec,
        source=spec.source,
        tracks=tracks,
        complexity=timeline.complexity,
        si=timeline.si,
        ti=timeline.ti,
        cap_ratio=spec.cap_ratio,
        encoding=encoding,
    )
