"""Characterization analyses of §3, reusable by tests and examples."""

from repro.analysis.characterization import (
    CharacterizationSummary,
    bitrate_variability_profile,
    characterize,
    quartile_quality_profile,
    quartile_siti_separation,
    scene_quality_consistency,
    size_complexity_correlation,
)

__all__ = [
    "CharacterizationSummary",
    "bitrate_variability_profile",
    "characterize",
    "quartile_quality_profile",
    "quartile_siti_separation",
    "size_complexity_correlation",
    "scene_quality_consistency",
]
