"""VBR video substrate: scene synthesis, encoder models, quality surfaces,
chunk classification, and the paper's 16-video dataset analogue (§2–§3)."""

from repro.video.classify import (
    ChunkClassifier,
    classify_sizes,
    classify_sizes_quantiles,
    cross_track_category_correlation,
    reference_level,
)
from repro.video.dataset import (
    FFMPEG_SPECS,
    YOUTUBE_SPECS,
    VideoSpec,
    build_cbr_counterpart,
    build_dataset,
    build_standard_dataset,
    build_video,
    fourx_spec,
    standard_dataset_specs,
)
from repro.video.model import QUALITY_METRICS, Manifest, Track, VideoAsset
from repro.video.quality import (
    DEFAULT_QUALITY_MODEL,
    RESOLUTION_PIXELS,
    QualityModel,
    complexity_bit_demand,
)
from repro.video.manifest_io import (
    manifest_from_hls,
    manifest_from_mpd,
    manifest_to_hls,
    manifest_to_mpd,
)
from repro.video.scene import (
    GENRE_PROFILES,
    GenreProfile,
    SceneTimeline,
    synthesize_scene_timeline,
)
from repro.video.synthesis import (
    CODEC_EFFICIENCY,
    DEFAULT_LADDER,
    EncoderConfig,
    apply_bitrate_cap,
    encode_ladder,
    encode_track_cbr,
    encode_track_vbr,
)

__all__ = [
    "ChunkClassifier",
    "classify_sizes",
    "classify_sizes_quantiles",
    "cross_track_category_correlation",
    "reference_level",
    "FFMPEG_SPECS",
    "YOUTUBE_SPECS",
    "VideoSpec",
    "build_cbr_counterpart",
    "build_dataset",
    "build_standard_dataset",
    "build_video",
    "fourx_spec",
    "standard_dataset_specs",
    "manifest_from_hls",
    "manifest_from_mpd",
    "manifest_to_hls",
    "manifest_to_mpd",
    "QUALITY_METRICS",
    "Manifest",
    "Track",
    "VideoAsset",
    "DEFAULT_QUALITY_MODEL",
    "RESOLUTION_PIXELS",
    "QualityModel",
    "complexity_bit_demand",
    "GENRE_PROFILES",
    "GenreProfile",
    "SceneTimeline",
    "synthesize_scene_timeline",
    "CODEC_EFFICIENCY",
    "DEFAULT_LADDER",
    "EncoderConfig",
    "apply_bitrate_cap",
    "encode_ladder",
    "encode_track_cbr",
    "encode_track_vbr",
]
