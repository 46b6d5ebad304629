"""Scene-complexity synthesis: the simulated "raw footage".

The paper's dataset is built from real raw videos (Xiph) plus YouTube
downloads; we cannot ship those, so this module generates the *statistical
ground truth* that the encoder model (:mod:`repro.video.synthesis`) and the
characterization analyses (§3) consume:

- a per-chunk **complexity** series in [0, 1]: videos are piecewise
  scenes (cuts every few seconds, lognormal durations) whose complexity is
  drawn from a genre-specific Beta distribution, with small within-scene
  drift — this is what makes VBR chunk sizes bursty at multiple timescales;
- per-chunk **SI/TI** values (ITU-T P.910 spatial/temporal information),
  generated as noisy monotone functions of complexity. The noise level is
  calibrated against Fig. 2: roughly 75–80% of Q4 chunks exceed
  (SI > 25, TI > 7) while only ~5–15% of Q1/Q2 chunks do.

Complexity is the single latent variable tying together bit demand
(complex scenes need more bits) and achievable quality (complex scenes are
harder to encode), which is exactly the coupling the paper characterizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.util.validation import check_in_range, check_positive

__all__ = ["GenreProfile", "GENRE_PROFILES", "SceneTimeline", "synthesize_scene_timeline"]


@dataclass(frozen=True)
class GenreProfile:
    """Genre-level knobs for scene synthesis.

    Attributes
    ----------
    complexity_alpha, complexity_beta:
        Beta-distribution shape for per-scene complexity. Sports/action
        content skews complex; nature documentaries skew simple with
        occasional bursts.
    mean_scene_s:
        Mean scene (shot) duration in seconds; action content cuts faster.
    scene_sigma:
        Lognormal sigma of scene durations.
    motion_weight:
        How strongly complexity expresses as temporal (TI) vs spatial (SI)
        information; high-motion genres have higher TI for the same
        complexity.
    """

    complexity_alpha: float
    complexity_beta: float
    mean_scene_s: float
    scene_sigma: float
    motion_weight: float

    def __post_init__(self) -> None:
        check_positive(self.complexity_alpha, "complexity_alpha")
        check_positive(self.complexity_beta, "complexity_beta")
        check_positive(self.mean_scene_s, "mean_scene_s")
        check_positive(self.scene_sigma, "scene_sigma")
        check_in_range(self.motion_weight, "motion_weight", 0.0, 2.0)


#: Genres appearing in the paper's dataset (§2): four Xiph titles
#: (animation / science fiction) plus YouTube sports, animal, nature and
#: action-movie content.
GENRE_PROFILES: Dict[str, GenreProfile] = {
    "animation": GenreProfile(2.2, 2.6, 7.0, 0.65, 0.9),
    "scifi": GenreProfile(2.4, 2.4, 6.0, 0.70, 1.0),
    "sports": GenreProfile(3.4, 1.7, 5.0, 0.60, 1.4),
    "animal": GenreProfile(2.0, 2.8, 9.0, 0.55, 0.8),
    "nature": GenreProfile(1.8, 3.0, 10.0, 0.55, 0.7),
    "action": GenreProfile(3.0, 1.9, 4.0, 0.75, 1.3),
}


@dataclass
class SceneTimeline:
    """Per-chunk ground truth produced by scene synthesis.

    Attributes
    ----------
    complexity:
        Per-chunk scene complexity in [0, 1].
    si, ti:
        Per-chunk spatial / temporal information values, on the usual
        P.910-ish scales (SI roughly 5–95, TI roughly 0–60).
    scene_ids:
        Which scene each chunk belongs to, for scene-level analyses.
    chunk_duration_s:
        Duration used to map scenes to chunks.
    """

    complexity: np.ndarray
    si: np.ndarray
    ti: np.ndarray
    scene_ids: np.ndarray
    chunk_duration_s: float
    genre: str = "animation"
    texture: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.texture is None:
            self.texture = np.ones_like(self.complexity)

    @property
    def num_chunks(self) -> int:
        """Number of chunks covered by the timeline."""
        return int(self.complexity.size)

    @property
    def num_scenes(self) -> int:
        """Number of distinct scenes."""
        return int(self.scene_ids.max()) + 1 if self.scene_ids.size else 0


def _scene_durations(rng: np.random.Generator, profile: GenreProfile, total_s: float) -> List[float]:
    """Draw lognormal scene durations until they cover ``total_s`` seconds."""
    durations: List[float] = []
    covered = 0.0
    # Lognormal parameterized so the mean matches profile.mean_scene_s.
    mu = np.log(profile.mean_scene_s) - 0.5 * profile.scene_sigma**2
    while covered < total_s:
        d = float(rng.lognormal(mu, profile.scene_sigma))
        d = max(1.0, min(d, total_s))  # scenes of at least one second
        durations.append(d)
        covered += d
    durations[-1] -= covered - total_s
    if durations[-1] <= 0:
        durations.pop()
    return durations


def _si_ti_from_complexity(
    rng: np.random.Generator, complexity: np.ndarray, profile: GenreProfile
) -> Tuple[np.ndarray, np.ndarray]:
    """Map complexity to noisy SI/TI observations.

    Calibration targets (Fig. 2, thresholds SI > 25 and TI > 7): the top
    size quartile should clear both thresholds ~75–80% of the time; the
    bottom quartile only ~5–15%.
    """
    n = complexity.size
    si = 6.0 + 45.0 * complexity + rng.normal(0.0, 9.0, size=n)
    ti = -0.5 + 15.5 * complexity * profile.motion_weight + rng.normal(0.0, 3.5, size=n)
    return np.clip(si, 0.0, 100.0), np.clip(ti, 0.0, 70.0)


def synthesize_scene_timeline(
    rng: np.random.Generator,
    genre: str,
    duration_s: float,
    chunk_duration_s: float,
) -> SceneTimeline:
    """Generate the per-chunk complexity / SI / TI ground truth for a video.

    Parameters
    ----------
    rng:
        Seeded generator (see :mod:`repro.util.rng`).
    genre:
        One of :data:`GENRE_PROFILES`.
    duration_s:
        Total video duration; the paper's clips are ~10 minutes.
    chunk_duration_s:
        Chunk length used to discretize scenes into per-chunk values
        (2 s for the FFmpeg encodes, 5 s for YouTube).
    """
    try:
        profile = GENRE_PROFILES[genre]
    except KeyError:
        raise ValueError(f"unknown genre {genre!r}; known: {sorted(GENRE_PROFILES)}") from None
    check_positive(duration_s, "duration_s")
    check_positive(chunk_duration_s, "chunk_duration_s")
    if chunk_duration_s > duration_s:
        raise ValueError("chunk_duration_s cannot exceed duration_s")

    durations = _scene_durations(rng, profile, duration_s)
    scene_complexities = rng.beta(profile.complexity_alpha, profile.complexity_beta, size=len(durations))

    num_chunks = int(round(duration_s / chunk_duration_s))
    # All drift noise in one draw: the loop below draws nothing else, so
    # the generator ends in the same state as one draw per chunk.
    noise = rng.normal(0.0, 0.035, size=num_chunks).tolist()
    boundaries = np.cumsum(durations).tolist()
    levels = scene_complexities.tolist()
    clipped: List[float] = []
    ids: List[int] = []
    scene_index = 0
    # Small AR(1) drift inside a scene: panning, gradual motion changes.
    # A plain-float loop: the recursion is sequential, and clipping by
    # comparison gives np.clip's result without a call per chunk.
    drift = 0.0
    for chunk in range(num_chunks):
        midpoint = (chunk + 0.5) * chunk_duration_s
        while scene_index < len(boundaries) - 1 and midpoint > boundaries[scene_index]:
            scene_index += 1
            drift = 0.0
        drift = 0.6 * drift + noise[chunk]
        value = levels[scene_index] + drift
        clipped.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
        ids.append(scene_index)

    complexity = np.array(clipped)
    si, ti = _si_ti_from_complexity(rng, complexity, profile)
    # Per-chunk "texture" factor: content-specific encodability quirks
    # (film grain, smoke, water) that move a chunk's bit cost the same way
    # in every track — this is what keeps quartile categories consistent
    # across tracks (§3.1.1 Property 2) while still being noisy.
    texture = rng.lognormal(0.0, 0.10, size=num_chunks)
    return SceneTimeline(
        complexity=complexity,
        si=si,
        ti=ti,
        scene_ids=np.array(ids, dtype=int),
        chunk_duration_s=chunk_duration_s,
        genre=genre,
        texture=texture,
    )
