"""Zero-copy worker data plane: shared-memory publication of sweep assets.

Before this module, every pool worker received its own pickled copy of
every video asset and every (possibly fault-perturbed) trace through the
pool initializer — megabytes per worker under ``spawn`` — and each worker
then recomputed every trace's cumulative-bits table. The data plane
replaces that with one `multiprocessing.shared_memory` block:

- the **parent** packs every numeric table into a single block — each
  trace's float64 timeline *and* its cumulative-bits table (computed once
  via :func:`repro.network.link.cumulative_bits_table`), plus each
  video's stacked ``(num_tracks, num_chunks)`` size table, per-metric
  quality stacks, and classifier ground truth — and ships only a small
  picklable :class:`PlaneManifest` (the block name plus a table of
  contents) through the initializer;
- each **worker** attaches to the block by name and rebuilds
  :class:`~repro.video.model.VideoAsset` / :class:`~repro.network.traces.NetworkTrace`
  objects whose arrays are read-only *views* into the shared buffer — no
  per-worker copy, no per-task pickling, and
  :class:`~repro.network.link.TraceLink` construction reuses the
  published cumulative table instead of recomputing it.

Lifecycle (documented in docs/architecture.md): the parent creates the
block, keeps it alive for the duration of the pool (including a
respawn), and unlinks it in a ``finally`` — with an ``atexit`` hook as a
crash net, so an aborted sweep cannot leak ``/dev/shm`` segments.
Workers attach and close their mapping at process exit; they never
unlink or touch tracker registration (pool workers share the parent's
resource tracker on Linux, so the parent's single registration covers
everyone and its ``unlink`` retires it exactly once).

Observability: both sides of the plane are timed from outside this
module. The parent wraps :meth:`SharedDataPlane.publish` in a
``shm.publish`` span plus a ``repro_sweep_shm_publish_seconds`` timer;
each worker's initializer pre-measures :func:`attach_plane` and the
worker's first traced ``unit.run`` span carries it as ``shm_attach_s``
meta — so the whole data-plane cost is visible in a ``--profile``
Chrome trace while this module keeps zero telemetry dependencies.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.network.link import cumulative_bits_table
from repro.network.traces import NetworkTrace
from repro.video.model import Track, VideoAsset

__all__ = [
    "ArraySpec",
    "TrackMeta",
    "VideoMeta",
    "TraceMeta",
    "PlaneManifest",
    "SharedDataPlane",
    "attach_plane",
    "try_publish",
]


@dataclass(frozen=True)
class ArraySpec:
    """Location of one float64 array inside the shared block."""

    offset: int
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class TrackMeta:
    """Scalar track fields; the arrays live in the shared block."""

    level: int
    resolution: int
    declared_avg_bitrate_bps: float


@dataclass(frozen=True)
class VideoMeta:
    """Scalar video fields; keyed arrays live in the shared block."""

    name: str
    genre: str
    codec: str
    source: str
    encoding: str
    cap_ratio: float
    chunk_duration_s: float
    tracks: Tuple[TrackMeta, ...]
    quality_metrics: Tuple[str, ...]


@dataclass(frozen=True)
class TraceMeta:
    """Scalar trace fields; timeline + cumulative table are shared."""

    name: str
    interval_s: float


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a worker needs to attach: block name + table of contents.

    Pickles in a few kilobytes regardless of how many megabytes of trace
    and video tables the block holds — this is the only asset payload the
    pool initializer ships per worker.
    """

    shm_name: str
    arrays: Mapping[str, ArraySpec]
    videos: Mapping[str, VideoMeta]
    # One entry per fault plan in play (None = unperturbed), aligned with
    # the engine's traces_by_plan mapping. Plans are small frozen
    # dataclasses and pickle by value.
    trace_sets: Tuple[Tuple[Optional[FaultPlan], Tuple[TraceMeta, ...]], ...]


def _video_array_items(videos: Mapping[str, VideoAsset]):
    """Yield (key, array) pairs for every table a video contributes."""
    for video_key, video in videos.items():
        yield f"v\x00{video_key}\x00sizes", np.stack(
            [track.chunk_sizes_bits for track in video.tracks]
        )
        for metric in sorted(video.tracks[0].qualities):
            yield f"v\x00{video_key}\x00q\x00{metric}", np.stack(
                [track.qualities[metric] for track in video.tracks]
            )
        yield f"v\x00{video_key}\x00complexity", video.complexity
        yield f"v\x00{video_key}\x00si", video.si
        yield f"v\x00{video_key}\x00ti", video.ti


def _trace_array_items(
    trace_sets: Sequence[Tuple[Optional[FaultPlan], Sequence[NetworkTrace]]],
):
    for plan_idx, (_plan, traces) in enumerate(trace_sets):
        for trace_idx, trace in enumerate(traces):
            yield f"t\x00{plan_idx}\x00{trace_idx}\x00thr", trace.throughputs_bps
            yield (
                f"t\x00{plan_idx}\x00{trace_idx}\x00cum",
                cumulative_bits_table(trace),
            )


class SharedDataPlane:
    """Parent-side owner of the published shared-memory block."""

    def __init__(self, shm: shared_memory.SharedMemory, manifest: PlaneManifest):
        self.shm = shm
        self.manifest = manifest
        self._unlinked = False
        # Crash net: if the sweep dies before its finally-block runs,
        # interpreter exit still unlinks the segment.
        atexit.register(self.close_and_unlink)

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes."""
        return self.shm.size

    @classmethod
    def publish(
        cls,
        videos: Mapping[str, VideoAsset],
        traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
    ) -> "SharedDataPlane":
        """Pack every sweep asset table into one fresh shared block.

        Raises ``OSError`` when shared memory is unavailable (no
        ``/dev/shm``, exhausted quota); the engine falls back to inline
        pickling in that case.
        """
        trace_sets = tuple(
            (plan, tuple(traces)) for plan, traces in traces_by_plan.items()
        )
        pending: List[Tuple[str, np.ndarray]] = []
        for key, array in _video_array_items(videos):
            pending.append((key, np.ascontiguousarray(array, dtype=np.float64)))
        for key, array in _trace_array_items(trace_sets):
            pending.append((key, np.ascontiguousarray(array, dtype=np.float64)))

        arrays: Dict[str, ArraySpec] = {}
        offset = 0
        for key, array in pending:
            arrays[key] = ArraySpec(offset=offset, shape=array.shape)
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            for key, array in pending:
                spec = arrays[key]
                dest = np.ndarray(
                    spec.shape, dtype=np.float64, buffer=shm.buf, offset=spec.offset
                )
                dest[...] = array
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        manifest = PlaneManifest(
            shm_name=shm.name,
            arrays=arrays,
            videos={
                key: VideoMeta(
                    name=video.name,
                    genre=video.genre,
                    codec=video.codec,
                    source=video.source,
                    encoding=video.encoding,
                    cap_ratio=video.cap_ratio,
                    chunk_duration_s=video.chunk_duration_s,
                    tracks=tuple(
                        TrackMeta(
                            level=track.level,
                            resolution=track.resolution,
                            declared_avg_bitrate_bps=track.declared_avg_bitrate_bps,
                        )
                        for track in video.tracks
                    ),
                    quality_metrics=tuple(sorted(video.tracks[0].qualities)),
                )
                for key, video in videos.items()
            },
            trace_sets=tuple(
                (plan, tuple(TraceMeta(t.name, t.interval_s) for t in traces))
                for plan, traces in trace_sets
            ),
        )
        return cls(shm, manifest)

    def close_and_unlink(self) -> None:
        """Release the block (idempotent; used as finally and atexit)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass
        try:
            self.shm.unlink()
        except (OSError, FileNotFoundError):
            pass
        try:
            atexit.unregister(self.close_and_unlink)
        except Exception:
            pass


def try_publish(
    videos: Mapping[str, VideoAsset],
    traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
) -> Optional["SharedDataPlane"]:
    """Publish a data plane, or ``None`` when shared memory is unavailable.

    The graceful-degradation wrapper every executor backend shares: an
    ``OSError`` from :meth:`SharedDataPlane.publish` (no ``/dev/shm``,
    exhausted quota) means "fall back to inline initializer pickling",
    never "fail the sweep". Results are identical on either path.
    """
    try:
        return SharedDataPlane.publish(videos, traces_by_plan)
    except OSError:
        return None


def _attach_block(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the resource tracker again
    # (CPython registers on attach as well as create). Pool workers on
    # Linux share the *parent's* tracker — fork inherits its fd, spawn
    # passes it through popen_spawn_posix — so that re-registration is
    # an idempotent set-add of a name the parent already registered, and
    # the parent's unlink() deregisters the single entry. Crucially the
    # workers must NOT call resource_tracker.unregister() themselves:
    # with a shared tracker that would strip the parent's registration
    # (the well-known double-cleanup pitfall, inverted) and make later
    # unregisters warn about a missing name.
    return shared_memory.SharedMemory(name=name)


def attach_plane(
    manifest: PlaneManifest,
) -> Tuple[
    Dict[str, VideoAsset],
    Dict[Optional[FaultPlan], List[NetworkTrace]],
    shared_memory.SharedMemory,
]:
    """Worker-side attach: rebuild assets as views into the shared block.

    Returns ``(videos, traces_by_plan, shm)``. The caller must keep
    ``shm`` referenced for as long as any returned object is in use (the
    arrays alias its buffer) and ``close()`` it at process exit. Every
    view is marked read-only, so a worker cannot corrupt its siblings'
    data.
    """
    shm = _attach_block(manifest.shm_name)

    def view(key: str) -> np.ndarray:
        spec = manifest.arrays[key]
        array = np.ndarray(
            spec.shape, dtype=np.float64, buffer=shm.buf, offset=spec.offset
        )
        array.flags.writeable = False
        return array

    videos: Dict[str, VideoAsset] = {}
    for video_key, meta in manifest.videos.items():
        sizes = view(f"v\x00{video_key}\x00sizes")
        quality_stacks = {
            metric: view(f"v\x00{video_key}\x00q\x00{metric}")
            for metric in meta.quality_metrics
        }
        tracks = [
            Track(
                level=track_meta.level,
                resolution=track_meta.resolution,
                chunk_sizes_bits=sizes[level],
                chunk_duration_s=meta.chunk_duration_s,
                declared_avg_bitrate_bps=track_meta.declared_avg_bitrate_bps,
                qualities={
                    metric: stack[level] for metric, stack in quality_stacks.items()
                },
            )
            for level, track_meta in enumerate(meta.tracks)
        ]
        videos[video_key] = VideoAsset(
            name=meta.name,
            genre=meta.genre,
            codec=meta.codec,
            source=meta.source,
            tracks=tracks,
            complexity=view(f"v\x00{video_key}\x00complexity"),
            si=view(f"v\x00{video_key}\x00si"),
            ti=view(f"v\x00{video_key}\x00ti"),
            cap_ratio=meta.cap_ratio,
            encoding=meta.encoding,
        )

    traces_by_plan: Dict[Optional[FaultPlan], List[NetworkTrace]] = {}
    for plan_idx, (plan, trace_metas) in enumerate(manifest.trace_sets):
        traces: List[NetworkTrace] = []
        for trace_idx, trace_meta in enumerate(trace_metas):
            trace = NetworkTrace(
                name=trace_meta.name,
                interval_s=trace_meta.interval_s,
                throughputs_bps=view(f"t\x00{plan_idx}\x00{trace_idx}\x00thr"),
            )
            # TraceLink picks this up and skips its per-process cumsum;
            # the parent computed the table with the same expression, so
            # link behaviour is bit-identical to a local build.
            trace.shared_cumulative_bits = view(
                f"t\x00{plan_idx}\x00{trace_idx}\x00cum"
            )
            traces.append(trace)
        traces_by_plan[plan] = traces
    return videos, traces_by_plan, shm
