"""Manifest serialization: DASH MPD (XML) and HLS playlists (m3u8).

The paper's whole premise for deployability (§3.2, footnote 1) is that
per-chunk size information reaches the client through the manifest:
DASH MPDs carry it (SegmentList / sidx), and HLS added it recently.
This module round-trips our :class:`~repro.video.model.Manifest`
through both formats so the synthetic dataset can be served to, or
loaded from, external tooling.

Conventions:

- **MPD**: one ``AdaptationSet`` with one ``Representation`` per track;
  segments are listed in a ``SegmentList`` whose ``SegmentURL`` elements
  carry the exact size in a ``repro:sizeBits`` attribute (real pipelines
  get sizes from the segment index; an explicit attribute keeps the file
  self-contained and byte-exact).
- **HLS**: a master playlist with ``AVERAGE-BANDWIDTH``/``BANDWIDTH``
  (peak) per variant — the two values BOLA-E (avg)/(peak) read — plus
  one media playlist per track whose segments are annotated with the
  draft ``#EXT-X-SIZE`` tag HLS introduced for byte sizes (§1, [46]).
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Tuple

import numpy as np

from repro.video.model import Manifest, VideoAsset

__all__ = [
    "manifest_to_mpd",
    "manifest_from_mpd",
    "manifest_to_hls",
    "manifest_from_hls",
    "video_digest",
]

_MPD_NS = "urn:mpeg:dash:schema:mpd:2011"
_REPRO_NS = "urn:repro:vbr:2018"


def _iso_duration(seconds: float) -> str:
    """Seconds to an ISO-8601 duration (PT...S)."""
    return f"PT{seconds:g}S"


def _parse_iso_duration(text: str) -> float:
    match = re.fullmatch(r"PT([0-9.]+)S", text)
    if not match:
        raise ValueError(f"unsupported ISO duration: {text!r}")
    return float(match.group(1))


# ----------------------------------------------------------------------
# DASH MPD
# ----------------------------------------------------------------------
def manifest_to_mpd(manifest: Manifest) -> str:
    """Serialize a manifest as a DASH MPD document (static/VoD profile)."""
    ET.register_namespace("", _MPD_NS)
    ET.register_namespace("repro", _REPRO_NS)
    mpd = ET.Element(
        f"{{{_MPD_NS}}}MPD",
        {
            "type": "static",
            "mediaPresentationDuration": _iso_duration(
                manifest.num_chunks * manifest.chunk_duration_s
            ),
            "minBufferTime": _iso_duration(manifest.chunk_duration_s),
            f"{{{_REPRO_NS}}}videoName": manifest.video_name,
        },
    )
    period = ET.SubElement(mpd, f"{{{_MPD_NS}}}Period", {"start": "PT0S"})
    adaptation = ET.SubElement(
        period,
        f"{{{_MPD_NS}}}AdaptationSet",
        {"contentType": "video", "segmentAlignment": "true"},
    )
    for level in range(manifest.num_tracks):
        representation = ET.SubElement(
            adaptation,
            f"{{{_MPD_NS}}}Representation",
            {
                "id": f"track{level}",
                "bandwidth": str(int(round(manifest.declared_avg_bitrates_bps[level]))),
                "height": str(manifest.resolutions[level]),
                f"{{{_REPRO_NS}}}peakBandwidth": str(
                    int(round(manifest.declared_peak_bitrates_bps[level]))
                ),
            },
        )
        segment_list = ET.SubElement(
            representation,
            f"{{{_MPD_NS}}}SegmentList",
            {
                "duration": str(int(round(manifest.chunk_duration_s * 1000))),
                "timescale": "1000",
            },
        )
        for index in range(manifest.num_chunks):
            ET.SubElement(
                segment_list,
                f"{{{_MPD_NS}}}SegmentURL",
                {
                    "media": f"track{level}/seg{index:05d}.m4s",
                    f"{{{_REPRO_NS}}}sizeBits": f"{manifest.chunk_sizes_bits[level, index]:.3f}",
                },
            )
    ET.indent(mpd)
    return ET.tostring(mpd, encoding="unicode", xml_declaration=True)


def manifest_from_mpd(document: str) -> Manifest:
    """Parse an MPD produced by :func:`manifest_to_mpd` back to a manifest."""
    root = ET.fromstring(document)
    if root.tag != f"{{{_MPD_NS}}}MPD":
        raise ValueError(f"not an MPD document (root {root.tag})")
    video_name = root.get(f"{{{_REPRO_NS}}}videoName", "unnamed")

    representations = root.findall(
        f"{{{_MPD_NS}}}Period/{{{_MPD_NS}}}AdaptationSet/{{{_MPD_NS}}}Representation"
    )
    if not representations:
        raise ValueError("MPD contains no representations")

    sizes: List[np.ndarray] = []
    averages: List[float] = []
    peaks: List[float] = []
    resolutions: List[int] = []
    chunk_duration_s = None
    for representation in representations:
        averages.append(float(representation.get("bandwidth")))
        peaks.append(float(representation.get(f"{{{_REPRO_NS}}}peakBandwidth")))
        resolutions.append(int(representation.get("height")))
        segment_list = representation.find(f"{{{_MPD_NS}}}SegmentList")
        if segment_list is None:
            raise ValueError("representation lacks a SegmentList")
        duration = float(segment_list.get("duration")) / float(segment_list.get("timescale"))
        if chunk_duration_s is None:
            chunk_duration_s = duration
        elif abs(duration - chunk_duration_s) > 1e-9:
            raise ValueError("tracks disagree on segment duration")
        sizes.append(
            np.array(
                [
                    float(url.get(f"{{{_REPRO_NS}}}sizeBits"))
                    for url in segment_list.findall(f"{{{_MPD_NS}}}SegmentURL")
                ]
            )
        )
    lengths = {arr.size for arr in sizes}
    if len(lengths) != 1:
        raise ValueError(f"tracks disagree on segment count: {sorted(lengths)}")
    return Manifest(
        video_name=video_name,
        chunk_duration_s=float(chunk_duration_s),
        chunk_sizes_bits=np.stack(sizes),
        declared_avg_bitrates_bps=np.array(averages),
        declared_peak_bitrates_bps=np.array(peaks),
        resolutions=tuple(resolutions),
    )


# ----------------------------------------------------------------------
# HLS playlists
# ----------------------------------------------------------------------
def manifest_to_hls(manifest: Manifest) -> Dict[str, str]:
    """Serialize as HLS: returns ``{filename: contents}``.

    ``master.m3u8`` lists the variants; ``trackN.m3u8`` holds each
    track's segment list with per-segment sizes.
    """
    files: Dict[str, str] = {}
    master = ["#EXTM3U", "#EXT-X-VERSION:7", f"# video: {manifest.video_name}"]
    for level in range(manifest.num_tracks):
        avg = int(round(manifest.declared_avg_bitrates_bps[level]))
        peak = int(round(manifest.declared_peak_bitrates_bps[level]))
        height = manifest.resolutions[level]
        master.append(
            "#EXT-X-STREAM-INF:"
            f"BANDWIDTH={peak},AVERAGE-BANDWIDTH={avg},RESOLUTION={_width_for(height)}x{height}"
        )
        master.append(f"track{level}.m3u8")
        media = [
            "#EXTM3U",
            "#EXT-X-VERSION:7",
            f"#EXT-X-TARGETDURATION:{int(np.ceil(manifest.chunk_duration_s))}",
            "#EXT-X-PLAYLIST-TYPE:VOD",
        ]
        for index in range(manifest.num_chunks):
            media.append(f"#EXTINF:{manifest.chunk_duration_s:.3f},")
            media.append(f"#EXT-X-SIZE:{manifest.chunk_sizes_bits[level, index]:.3f}")
            media.append(f"track{level}/seg{index:05d}.ts")
        media.append("#EXT-X-ENDLIST")
        files[f"track{level}.m3u8"] = "\n".join(media) + "\n"
    files["master.m3u8"] = "\n".join(master) + "\n"
    return files


def _width_for(height: int) -> int:
    """16:9 width for a ladder height (what the encodes use)."""
    widths = {144: 256, 240: 426, 360: 640, 480: 854, 720: 1280, 1080: 1920, 2160: 3840}
    return widths.get(height, int(round(height * 16 / 9)))


def manifest_from_hls(files: Dict[str, str]) -> Manifest:
    """Parse playlists produced by :func:`manifest_to_hls`."""
    try:
        master = files["master.m3u8"]
    except KeyError:
        raise ValueError("missing master.m3u8") from None

    video_name = "unnamed"
    variants: List[Tuple[float, float, int, str]] = []  # (avg, peak, height, uri)
    pending = None
    for line in master.splitlines():
        line = line.strip()
        if line.startswith("# video: "):
            video_name = line[len("# video: "):]
        elif line.startswith("#EXT-X-STREAM-INF:"):
            attrs = dict(
                part.split("=", 1) for part in line.split(":", 1)[1].split(",") if "=" in part
            )
            height = int(attrs["RESOLUTION"].split("x")[1])
            pending = (float(attrs["AVERAGE-BANDWIDTH"]), float(attrs["BANDWIDTH"]), height)
        elif pending is not None and line and not line.startswith("#"):
            variants.append((*pending, line))
            pending = None
    if not variants:
        raise ValueError("master playlist lists no variants")

    sizes: List[np.ndarray] = []
    durations: List[float] = []
    for avg, peak, height, uri in variants:
        try:
            media = files[uri]
        except KeyError:
            raise ValueError(f"missing media playlist {uri!r}") from None
        track_sizes: List[float] = []
        duration = None
        for line in media.splitlines():
            line = line.strip()
            if line.startswith("#EXTINF:"):
                duration = float(line.split(":", 1)[1].rstrip(","))
            elif line.startswith("#EXT-X-SIZE:"):
                track_sizes.append(float(line.split(":", 1)[1]))
        if duration is None or not track_sizes:
            raise ValueError(f"media playlist {uri!r} has no segments")
        sizes.append(np.array(track_sizes))
        durations.append(duration)
    if len({arr.size for arr in sizes}) != 1:
        raise ValueError("tracks disagree on segment count")
    return Manifest(
        video_name=video_name,
        chunk_duration_s=durations[0],
        chunk_sizes_bits=np.stack(sizes),
        declared_avg_bitrates_bps=np.array([v[0] for v in variants]),
        declared_peak_bitrates_bps=np.array([v[1] for v in variants]),
        resolutions=tuple(v[2] for v in variants),
    )


# ----------------------------------------------------------------------
# Stable content digests + buffer-backed construction
# ----------------------------------------------------------------------
# The session store keys results by *content*: two manifests (or videos)
# must digest equally iff every byte of client-visible data matches, and
# the digest must be identical across processes and fork/spawn start
# methods. BLAKE2 over explicit bytes gives that (``hash()`` is salted
# per process; ``id()`` is an address).


def _hash_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    contiguous = np.ascontiguousarray(array, dtype=np.float64)
    hasher.update(contiguous.dtype.str.encode("ascii"))
    hasher.update(repr(contiguous.shape).encode("ascii"))
    hasher.update(contiguous.tobytes())


def _hash_text(hasher: "hashlib._Hash", *parts: object) -> None:
    for part in parts:
        hasher.update(str(part).encode("utf-8"))
        hasher.update(b"\x00")


def video_digest(video: VideoAsset) -> str:
    """Stable content digest (hex) of a full video asset.

    Covers everything a session can observe: the manifest data, per-chunk
    quality arrays, and the synthesis ground truth (complexity/SI/TI)
    that the chunk classifier and the quality summaries read.
    """
    hasher = hashlib.blake2b(digest_size=16)
    _hash_text(
        hasher,
        video.name,
        video.genre,
        video.codec,
        video.source,
        video.encoding,
        float(video.cap_ratio).hex(),
    )
    for track in video.tracks:
        _hash_text(
            hasher,
            track.level,
            track.resolution,
            float(track.chunk_duration_s).hex(),
            float(track.declared_avg_bitrate_bps).hex(),
        )
        _hash_array(hasher, track.chunk_sizes_bits)
        for metric in sorted(track.qualities):
            _hash_text(hasher, metric)
            _hash_array(hasher, track.qualities[metric])
    _hash_array(hasher, video.complexity)
    _hash_array(hasher, video.si)
    _hash_array(hasher, video.ti)
    return hasher.hexdigest()
