"""Trace-driven streaming sessions: the §6.1 evaluation harness.

One session = one (video, ABR scheme, network trace) triple replayed
under identical, repeatable conditions. :class:`StreamingSession` drives
a :class:`~repro.player.core.VodSessionCore` — the one implementation of
the §6.1 player steps — against the caller's private link through
:func:`drive_over_link`, the driver loop it shares with
:class:`~repro.player.live.LiveStreamingSession`: it advances the clock
through the core's waits and downloads each requested chunk.
:func:`run_lockstep_sessions` is the batch accelerator: it replays the
same core arithmetic for N sessions of one (scheme, video) pair with
numpy lanes and returns its per-chunk record as one
:class:`LockstepRecord` of ``(chunks, lanes)`` matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.abr.base import ABRAlgorithm, BatchDecider, BatchDecisionContext
from repro.network.estimator import BandwidthEstimator, BatchHarmonicMeanEstimator
from repro.network.link import MIN_DOWNLOAD_DURATION_S, StackedLinks, TraceLink
from repro.player.core import DONE, WAIT, SessionConfig, SessionResult, VodSessionCore
from repro.video.model import Manifest, VideoAsset

if TYPE_CHECKING:  # annotation-only imports (telemetry is an optional layer)
    from repro.player.core import LiveSessionCore, LiveSessionResult
    from repro.telemetry.spans import StageTimer
    from repro.telemetry.tracer import Tracer

__all__ = [
    "SessionConfig",
    "SessionResult",
    "LockstepRecord",
    "StreamingSession",
    "drive_over_link",
    "run_session",
    "run_lockstep_sessions",
]


class StreamingSession:
    """Runs one (algorithm, manifest, link) session; reusable."""

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
    ) -> None:
        # None sentinel: a default instance would be evaluated once at
        # class-definition time and shared between every session.
        self.config = SessionConfig() if config is None else config

    def run(
        self,
        algorithm: ABRAlgorithm,
        manifest: Manifest,
        link: TraceLink,
        estimator: Optional[BandwidthEstimator] = None,
        tracer: Optional[Tracer] = None,
    ) -> SessionResult:
        """Stream every chunk of ``manifest`` over ``link``.

        A fresh :class:`HarmonicMeanEstimator` is used when none is given
        (the paper's common estimator, §6.1). A caller-provided estimator
        is reset before use.

        ``tracer`` captures a per-chunk telemetry record (see
        :mod:`repro.telemetry.tracer`); ``None`` disables tracing
        entirely — the loop takes one pointer comparison per chunk and
        produces bit-identical results either way.
        """
        algorithm.bind_tracer(tracer)
        if tracer is not None:
            tracer.on_session_start(
                algorithm.name, manifest.video_name, link.trace.name, manifest.num_chunks
            )
        core = VodSessionCore(
            algorithm, manifest, self.config, estimator, record_arrays=True
        )
        result = drive_over_link(core, link, tracer)
        if tracer is not None:
            tracer.on_session_end(core.startup_delay_s)
        return result


def drive_over_link(
    core: Union[VodSessionCore, LiveSessionCore],
    link: TraceLink,
    tracer: Optional[Tracer] = None,
) -> Union[SessionResult, LiveSessionResult]:
    """Step a recording session core to its end over the private ``link``.

    The one driver loop of both private-link sessions: it advances the
    clock through the core's waits, downloads each requested chunk, and
    returns ``core.result``. ``tracer`` (VoD only) receives one
    :class:`~repro.telemetry.tracer.ChunkRecord` per chunk; ``None``
    costs one pointer comparison per chunk.
    """
    # The core rewrites this one context object for every decision;
    # while a fetch is pending it holds that chunk's decision inputs.
    decision = core._ctx
    now = 0.0
    action = core.begin(now)
    while action[0] != DONE:
        if action[0] == WAIT:
            now += action[1]
            action = core.on_wait_done(now)
            continue
        download = link.download(action[1], now)
        now = download.finish_s
        if tracer is None:
            action = core.on_fetch_done(now, download.start_s)
        else:
            buffer_before_s = decision.buffer_s
            estimate_bps = decision.bandwidth_bps
            action = core.on_fetch_done(now, download.start_s)
            tracer.on_chunk(
                _chunk_record(core, download, buffer_before_s, estimate_bps)
            )
    return core.result(link.trace.name)


def _chunk_record(core: VodSessionCore, download, buffer_before_s, estimate_bps):
    """The telemetry record of the chunk ``core`` just completed."""
    # Deferred import: repro.telemetry depends on the player, so the
    # reverse edge must not exist at module import time.
    from repro.telemetry.tracer import ChunkRecord

    size = core._sizes[-1]
    download_s = download.finish_s - download.start_s
    # Plain floats, not numpy scalars: records must JSON-dump.
    return ChunkRecord(
        chunk_index=core.chunk - 1,
        level=core._levels[-1],
        size_bits=float(size),
        buffer_before_s=float(buffer_before_s),
        buffer_after_s=float(core._buffers[-1]),
        requested_idle_s=float(core._waits[-1]),
        cap_idle_s=float(core._cap_waits[-1]),
        stall_s=float(core._stalls[-1]),
        download_start_s=float(download.start_s),
        download_finish_s=float(download.finish_s),
        estimated_bandwidth_bps=float(estimate_bps),
        realized_bandwidth_bps=float(size / max(download_s, MIN_DOWNLOAD_DURATION_S)),
    )


@dataclass(frozen=True)
class LockstepRecord:
    """The per-chunk record of one lockstep slice, one column per lane.

    Column ``j`` of each ``(chunks, lanes)`` matrix is the array the
    :class:`SessionResult` of lane ``j`` holds in the field of the same
    name; ``startup_delay_s`` is the ``(lanes,)`` vector of startup
    delays. The sweep reduces metrics straight from the matrices
    (:func:`repro.player.metrics.summarize_lockstep`); no per-lane
    :class:`SessionResult` is built (``tests/experiments/reference.py``
    expands a record into them for the batch/scalar equality tests).
    Batchable schemes never request idle time, so the only idle is the
    buffer cap's.
    """

    scheme: str
    video_name: str
    trace_names: Sequence[str]
    levels: np.ndarray
    sizes_bits: np.ndarray
    download_start_s: np.ndarray
    download_finish_s: np.ndarray
    stall_s: np.ndarray
    buffer_after_s: np.ndarray
    cap_idle_s: np.ndarray
    startup_delay_s: np.ndarray

    @property
    def num_chunks(self) -> int:
        """Chunks streamed by every lane."""
        return int(self.levels.shape[0])


def run_lockstep_sessions(
    scheme: str,
    manifest: Manifest,
    decider: BatchDecider,
    links: StackedLinks,
    config: Optional[SessionConfig] = None,
    estimator: Optional[BatchHarmonicMeanEstimator] = None,
    stage_timer: Optional[StageTimer] = None,
) -> LockstepRecord:
    """Advance N sessions of one (scheme, video) pair in lockstep.

    Every lane streams the same manifest over its own trace, so all
    lanes share the chunk index, chunk duration, and decision schedule;
    per-lane divergence (clock, buffer, level history) lives in
    ``(lanes,)`` arrays updated with masked numpy ops; playback starts
    after the same chunk on every lane, so its state is one flag. This is
    an accelerator, not a second player model: the arithmetic replays
    :class:`~repro.player.core.VodSessionCore` branch for branch, so
    each lane of the returned :class:`LockstepRecord` is bit-identical
    to the :class:`StreamingSession` run of that (scheme, video, trace)
    triple, which the golden-snapshot tests pin.

    The engine only supports deciders whose scalar twin never requests
    idle time (``requested_idle_s`` returning 0.0 keeps the core's
    idle branch inert); :func:`repro.experiments.batch.batch_capability`
    enforces that before a decider is ever built.

    ``stage_timer`` (an optional
    :class:`~repro.telemetry.spans.StageTimer`) accumulates per-stage
    wall/CPU totals for the loop's estimate / decide / advance phases.
    The disabled path costs one boolean test per stage per chunk — no
    allocation, no clock reads — and results are identical either way.
    """
    if config is None:
        config = SessionConfig()
    lanes = links.lanes
    n = manifest.num_chunks
    num_tracks = manifest.num_tracks
    delta = manifest.chunk_duration_s
    # One contiguous row of per-level sizes per chunk: ``take`` on it is
    # cheaper than a 2-D fancy gather.
    sizes_by_chunk = np.ascontiguousarray(manifest.chunk_sizes_bits.T)
    max_buffer_s = config.max_buffer_s
    startup_latency_s = config.startup_latency_s

    if estimator is None:
        estimator = BatchHarmonicMeanEstimator(lanes)
    estimator.reset()

    now = np.zeros(lanes)
    buffer = np.zeros(lanes)
    # No lane drains its buffer before playback starts, so until then
    # every lane's buffer is the same sum 0.0 + delta + delta + ...: all
    # lanes reach the startup target at the same chunk, and one flag
    # holds the slice's playback state. The cap and the drain below
    # apply to playing lanes only, so they wait for it too.
    playing = False
    startup = now
    last_levels: Optional[np.ndarray] = None
    # One context per slice, rewritten before every decision.
    ctx = BatchDecisionContext(
        0, now, buffer, None, None, np.zeros(lanes, dtype=bool)
    )

    rec_levels = np.empty((n, lanes), dtype=int)
    rec_sizes = np.empty((n, lanes))
    rec_starts = np.empty((n, lanes))
    rec_finishes = np.empty((n, lanes))
    rec_buffers = np.empty((n, lanes))
    # Rows stay zero before playback starts (no lane stalls) and unless
    # the buffer cap binds for some lane.
    rec_stalls = np.zeros((n, lanes))
    rec_cap_idles = np.zeros((n, lanes))

    timed = stage_timer is not None
    for i in range(n):
        if timed:
            w0 = time.perf_counter()
            c0 = time.process_time()
        # 1. decision. Batchable schemes never request idle time, so the
        #    core's pre-decision idle branch contributes exactly 0.0.
        ctx.chunk_index = i
        ctx.now_s = now
        ctx.buffer_s = buffer
        ctx.last_levels = last_levels
        ctx.bandwidth_bps = estimator.predict_bps()
        if timed:
            w1 = time.perf_counter()
            c1 = time.process_time()
            stage_timer.add("batch.estimate", w1 - w0, c1 - c0)
        levels = decider.select_levels(ctx)
        lo = int(levels[levels.argmin()])
        hi = int(levels[levels.argmax()])
        if lo < 0 or hi >= num_tracks:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"{scheme} selected invalid level {bad} "
                f"for chunk {i} (valid: 0..{num_tracks - 1})"
            )
        if timed:
            w2 = time.perf_counter()
            c2 = time.process_time()
            stage_timer.add("batch.decide", w2 - w1, c2 - c1)

        # 2. respect the buffer cap: idle until one chunk fits. Adding
        #    the zero idle of unaffected lanes is exact (their clocks and
        #    buffers are non-negative doubles). A cap below one chunk
        #    asks for more idle than the buffer holds; like the core's
        #    PlaybackBuffer.drain, the buffer then empties to zero.
        #    Rounding is monotone, so some lane binds exactly when the
        #    fullest buffer plus one chunk exceeds the cap.
        if playing and float(buffer[buffer.argmax()]) + delta > max_buffer_s:
            filled = buffer + delta
            cap_idle = np.where(filled > max_buffer_s, filled - max_buffer_s, 0.0)
            buffer = np.maximum(buffer - cap_idle, 0.0)
            now = now + cap_idle
            rec_cap_idles[i] = cap_idle

        # 3. download; a playing buffer drains (and may stall) meanwhile
        size = sizes_by_chunk[i].take(levels, out=rec_sizes[i])
        start = now
        now = links.download_finish(size, start)
        download_s = now - start
        if playing:
            # The stall is the download time the buffer does not cover,
            # and the buffer drains to max(buffer - d, 0). Clamping the
            # signed difference d - buffer at zero gives the stall (a - b
            # < 0 iff a < b), and stall - (d - buffer) gives the drained
            # buffer exactly: +0.0 when the stall is positive or zero,
            # the exact negation buffer - d otherwise.
            short = download_s - buffer
            stall = np.maximum(short, 0.0, out=rec_stalls[i])
            buffer = np.subtract(stall, short, out=short)
        buffer = np.add(buffer, delta, out=rec_buffers[i])

        # 4. learn from the observation (duration floored exactly like
        #    the core, although StackedLinks never returns zero)
        estimator.observe(size, np.maximum(download_s, MIN_DOWNLOAD_DURATION_S))
        decider.notify_downloads(i, levels, size, download_s, buffer, now)

        rec_levels[i] = levels
        rec_starts[i] = start
        rec_finishes[i] = now
        last_levels = levels

        # 5. startup: playback begins once the initial target is met
        #    (every lane holds the same buffer until then)
        if not playing and buffer[0] >= startup_latency_s:
            playing = True
            startup = now
            ctx.playing = np.ones(lanes, dtype=bool)
        if timed:
            stage_timer.add(
                "batch.advance",
                time.perf_counter() - w2,
                time.process_time() - c2,
            )

    # Very short video: lanes that never reached the startup target
    # begin playback when the final download completes.
    if not playing:
        startup = now

    return LockstepRecord(
        scheme=scheme,
        video_name=manifest.video_name,
        trace_names=links.trace_names,
        levels=rec_levels,
        sizes_bits=rec_sizes,
        download_start_s=rec_starts,
        download_finish_s=rec_finishes,
        stall_s=rec_stalls,
        buffer_after_s=rec_buffers,
        cap_idle_s=rec_cap_idles,
        startup_delay_s=startup,
    )


def run_session(
    algorithm: ABRAlgorithm,
    video: VideoAsset,
    link: TraceLink,
    config: Optional[SessionConfig] = None,
    estimator: Optional[BandwidthEstimator] = None,
    include_quality: bool = False,
    tracer: Optional[Tracer] = None,
) -> SessionResult:
    """Convenience wrapper: build the manifest and run one session.

    ``include_quality`` must be True for PANDA/CQ, which consumes
    per-chunk quality values (§6.1); every other scheme streams from a
    standard size-only manifest.
    """
    manifest = video.manifest(include_quality=include_quality)
    return StreamingSession(config).run(algorithm, manifest, link, estimator, tracer)
