"""Core data model for ABR videos: chunks, tracks, videos, and manifests.

The model mirrors the entities in DASH/HLS streaming as the paper uses them:

- a **video** is encoded into several independent **tracks** (the paper uses
  six, 144p through 1080p), each holding the same content at a different
  bitrate/quality;
- each track is segmented into fixed-duration **chunks** (2 s for the
  FFmpeg encodes, ~5 s for the YouTube encodes);
- the **manifest** is the client-visible view: per-chunk sizes for every
  track (available in DASH manifests and recent HLS), declared average and
  peak bitrates, and chunk durations — but *not* scene complexity or
  per-chunk quality, which commercial ABR pipelines do not expose (§3.2).

Sizes are stored in bits and rates in bits/second (see
:mod:`repro.util.units`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.stats import coefficient_of_variation
from repro.util.validation import check_positive

__all__ = [
    "QUALITY_METRICS",
    "Track",
    "VideoAsset",
    "Manifest",
]

#: Quality metrics attached to every encoded chunk, matching §3.1.2.
QUALITY_METRICS = ("vmaf_tv", "vmaf_phone", "psnr", "ssim")


@dataclass
class Track:
    """One encoded rendition (track/level) of a video.

    Attributes
    ----------
    level:
        Zero-based index in the ladder; higher means higher quality.
    resolution:
        Vertical resolution in pixels (144, 240, ... 1080).
    chunk_sizes_bits:
        Size of each chunk in bits, in playback order.
    chunk_duration_s:
        Playback duration of every chunk in seconds.
    declared_avg_bitrate_bps:
        The average bitrate advertised in the manifest.
    qualities:
        Mapping from metric name (see :data:`QUALITY_METRICS`) to a
        per-chunk array of quality scores.
    """

    level: int
    resolution: int
    chunk_sizes_bits: np.ndarray
    chunk_duration_s: float
    declared_avg_bitrate_bps: float
    qualities: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.chunk_sizes_bits = np.asarray(self.chunk_sizes_bits, dtype=float)
        if self.chunk_sizes_bits.ndim != 1 or self.chunk_sizes_bits.size == 0:
            raise ValueError("chunk_sizes_bits must be a non-empty 1-D array")
        if np.any(self.chunk_sizes_bits <= 0):
            raise ValueError("all chunk sizes must be positive")
        check_positive(self.chunk_duration_s, "chunk_duration_s")
        check_positive(self.declared_avg_bitrate_bps, "declared_avg_bitrate_bps")
        for metric, values in self.qualities.items():
            values = np.asarray(values, dtype=float)
            if values.shape != self.chunk_sizes_bits.shape:
                raise ValueError(
                    f"quality array {metric!r} has shape {values.shape}, "
                    f"expected {self.chunk_sizes_bits.shape}"
                )
            self.qualities[metric] = values

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the track."""
        return int(self.chunk_sizes_bits.size)

    @property
    def duration_s(self) -> float:
        """Total playback duration of the track in seconds."""
        return self.num_chunks * self.chunk_duration_s

    def chunk_bitrate_bps(self, index: int) -> float:
        """Instantaneous bitrate of chunk ``index`` (size / duration)."""
        return float(self.chunk_sizes_bits[index]) / self.chunk_duration_s

    @property
    def bitrates_bps(self) -> np.ndarray:
        """Per-chunk bitrates in bits/second."""
        return self.chunk_sizes_bits / self.chunk_duration_s

    @property
    def average_bitrate_bps(self) -> float:
        """Actual average bitrate over the whole track."""
        return float(np.mean(self.bitrates_bps))

    @property
    def peak_bitrate_bps(self) -> float:
        """Maximum per-chunk bitrate, the value HLS calls PEAK-BANDWIDTH."""
        return float(np.max(self.bitrates_bps))

    @property
    def peak_to_average_ratio(self) -> float:
        """Peak bitrate over average bitrate; §2 reports 1.1–2.4 for 2x cap."""
        return self.peak_bitrate_bps / self.average_bitrate_bps

    @property
    def bitrate_cov(self) -> float:
        """Coefficient of variation of per-chunk bitrate; §2 reports 0.3–0.6."""
        return coefficient_of_variation(self.bitrates_bps)

    def quality(self, metric: str, index: int) -> float:
        """Quality score of chunk ``index`` under ``metric``."""
        try:
            values = self.qualities[metric]
        except KeyError:
            raise KeyError(
                f"track has no quality metric {metric!r}; "
                f"available: {sorted(self.qualities)}"
            ) from None
        return float(values[index])


@dataclass
class VideoAsset:
    """A fully encoded VBR (or CBR) video with its encoding ground truth.

    Besides the client-visible tracks, the asset retains the synthesis
    ground truth used by the characterization analyses of §3: per-chunk
    scene complexity and the SI/TI values of the underlying (simulated)
    raw footage.
    """

    name: str
    genre: str
    codec: str
    source: str
    tracks: List[Track]
    complexity: np.ndarray
    si: np.ndarray
    ti: np.ndarray
    cap_ratio: float
    encoding: str = "vbr"

    def __post_init__(self) -> None:
        if not self.tracks:
            raise ValueError("a video needs at least one track")
        self.complexity = np.asarray(self.complexity, dtype=float)
        self.si = np.asarray(self.si, dtype=float)
        self.ti = np.asarray(self.ti, dtype=float)
        n = self.tracks[0].num_chunks
        for track in self.tracks:
            if track.num_chunks != n:
                raise ValueError("all tracks must have the same chunk count")
        for label, arr in (("complexity", self.complexity), ("si", self.si), ("ti", self.ti)):
            if arr.shape != (n,):
                raise ValueError(f"{label} must have one entry per chunk")
        levels = [track.level for track in self.tracks]
        if levels != sorted(set(levels)):
            raise ValueError("track levels must be unique and ascending")
        if self.encoding not in ("vbr", "cbr"):
            raise ValueError(f"encoding must be 'vbr' or 'cbr', got {self.encoding!r}")
        # Stacked quality tables per metric, built lazily (not a dataclass
        # field, so equality and repr stay defined by the asset data alone).
        self._quality_tables: Dict[str, np.ndarray] = {}

    @property
    def num_tracks(self) -> int:
        """Number of renditions in the ladder."""
        return len(self.tracks)

    @property
    def num_chunks(self) -> int:
        """Number of chunks per track."""
        return self.tracks[0].num_chunks

    @property
    def chunk_duration_s(self) -> float:
        """Chunk playback duration in seconds (uniform across tracks)."""
        return self.tracks[0].chunk_duration_s

    @property
    def duration_s(self) -> float:
        """Total video duration in seconds."""
        return self.tracks[0].duration_s

    def track(self, level: int) -> Track:
        """Return the track at ladder position ``level`` (0-based)."""
        if not 0 <= level < self.num_tracks:
            raise IndexError(f"level {level} out of range [0, {self.num_tracks})")
        return self.tracks[level]

    def chunk_size_bits(self, level: int, index: int) -> float:
        """Size in bits of chunk ``index`` at ``level``."""
        return float(self.track(level).chunk_sizes_bits[index])

    def quality(self, metric: str, level: int, index: int) -> float:
        """Quality of chunk ``index`` at ``level`` under ``metric``."""
        return self.track(level).quality(metric, index)

    def quality_table(self, metric: str) -> np.ndarray:
        """The ``(num_tracks, num_chunks)`` quality table under ``metric``.

        Stacked once per metric and shared by every caller, so it is
        read-only; ``table[levels, np.arange(num_chunks)]`` joins a
        session's chosen levels with the ground truth.
        """
        table = self._quality_tables.get(metric)
        if table is None:
            table = np.stack([track.qualities[metric] for track in self.tracks])
            table.flags.writeable = False
            self._quality_tables[metric] = table
        return table

    def manifest(self, include_quality: bool = False) -> "Manifest":
        """Build the client-visible manifest.

        Parameters
        ----------
        include_quality:
            When True, per-chunk VMAF values are attached. This models the
            extra server-side support PANDA/CQ requires (§6.1); standard
            DASH/HLS manifests carry sizes only, so the default is False.
        """
        quality = None
        if include_quality:
            quality = {
                metric: self.quality_table(metric)
                for metric in self.tracks[0].qualities
            }
        return Manifest(
            video_name=self.name,
            chunk_duration_s=self.chunk_duration_s,
            chunk_sizes_bits=np.stack([track.chunk_sizes_bits for track in self.tracks]),
            declared_avg_bitrates_bps=np.array(
                [track.declared_avg_bitrate_bps for track in self.tracks]
            ),
            declared_peak_bitrates_bps=np.array(
                [track.peak_bitrate_bps for track in self.tracks]
            ),
            resolutions=tuple(track.resolution for track in self.tracks),
            quality=quality,
        )

    def describe(self) -> str:
        """Human-readable one-paragraph summary used by examples and reports."""
        lines = [
            f"{self.name} ({self.genre}, {self.codec}, {self.source}, "
            f"{self.encoding.upper()}, cap {self.cap_ratio:g}x): "
            f"{self.num_chunks} chunks x {self.chunk_duration_s:g}s, "
            f"{self.num_tracks} tracks"
        ]
        for track in self.tracks:
            lines.append(
                f"  L{track.level} {track.resolution:>4}p  "
                f"avg {track.average_bitrate_bps / 1e6:6.3f} Mbps  "
                f"peak/avg {track.peak_to_average_ratio:4.2f}  "
                f"CoV {track.bitrate_cov:4.2f}"
            )
        return "\n".join(lines)


@dataclass
class Manifest:
    """Client-visible description of a video, as delivered by DASH/HLS.

    ``chunk_sizes_bits`` is an ``(num_tracks, num_chunks)`` array: the
    per-chunk size information that DASH exposes in the MPD (and that HLS
    recently added), which §4 argues every VBR-aware scheme must use.
    """

    video_name: str
    chunk_duration_s: float
    chunk_sizes_bits: np.ndarray
    declared_avg_bitrates_bps: np.ndarray
    declared_peak_bitrates_bps: np.ndarray
    resolutions: Tuple[int, ...]
    quality: Optional[Dict[str, np.ndarray]] = None

    def __post_init__(self) -> None:
        self.chunk_sizes_bits = np.asarray(self.chunk_sizes_bits, dtype=float)
        if self.chunk_sizes_bits.ndim != 2:
            raise ValueError("chunk_sizes_bits must be (num_tracks, num_chunks)")
        check_positive(self.chunk_duration_s, "chunk_duration_s")
        self.declared_avg_bitrates_bps = np.asarray(self.declared_avg_bitrates_bps, dtype=float)
        self.declared_peak_bitrates_bps = np.asarray(self.declared_peak_bitrates_bps, dtype=float)
        n_tracks = self.chunk_sizes_bits.shape[0]
        if self.declared_avg_bitrates_bps.shape != (n_tracks,):
            raise ValueError("declared_avg_bitrates_bps must have one entry per track")
        if self.declared_peak_bitrates_bps.shape != (n_tracks,):
            raise ValueError("declared_peak_bitrates_bps must have one entry per track")
        if len(self.resolutions) != n_tracks:
            raise ValueError("resolutions must have one entry per track")
        # Hot-path lookup table, built lazily (not a dataclass field, so
        # equality and repr stay defined by the manifest data alone).
        self._size_rows: Optional[Tuple[Tuple[float, ...], ...]] = None

    @property
    def size_rows(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-track chunk-size rows as nested tuples of Python floats.

        ``size_rows[level][index]`` equals :meth:`chunk_size_bits` bit for
        bit (``ndarray.tolist`` preserves the doubles) but costs two tuple
        lookups instead of a 2-D ndarray index plus a numpy-scalar
        conversion — the difference matters in the per-chunk session loop
        and in the schemes whose decisions scan the ladder from these rows
        (RBA, BBA-1).
        """
        rows = self._size_rows
        if rows is None:
            rows = tuple(tuple(row) for row in self.chunk_sizes_bits.tolist())
            self._size_rows = rows
        return rows

    @property
    def num_tracks(self) -> int:
        """Number of tracks in the ladder."""
        return int(self.chunk_sizes_bits.shape[0])

    @property
    def num_chunks(self) -> int:
        """Number of chunks per track."""
        return int(self.chunk_sizes_bits.shape[1])

    @property
    def has_quality(self) -> bool:
        """Whether per-chunk quality values were attached (PANDA/CQ only)."""
        return self.quality is not None

    def chunk_size_bits(self, level: int, index: int) -> float:
        """Size in bits of chunk ``index`` at track ``level``."""
        return float(self.chunk_sizes_bits[level, index])

    def chunk_bitrate_bps(self, level: int, index: int) -> float:
        """Instantaneous bitrate of chunk ``index`` at track ``level``."""
        return self.chunk_size_bits(level, index) / self.chunk_duration_s

    def track_bitrates_bps(self, level: int) -> np.ndarray:
        """Per-chunk bitrates of track ``level``."""
        return self.chunk_sizes_bits[level] / self.chunk_duration_s

    def quality_value(self, metric: str, level: int, index: int) -> float:
        """Per-chunk quality (only when built with ``include_quality=True``)."""
        if self.quality is None:
            raise ValueError(
                "this manifest carries no quality information; build it with "
                "include_quality=True (models PANDA/CQ-style server support)"
            )
        return float(self.quality[metric][level, index])
