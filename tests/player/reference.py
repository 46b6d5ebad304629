"""Reference §6.1 player loops: the oracle the session cores answer to.

Written for reading, not speed: no hoisted names, no fast paths, no
inlined collaborators, and a frozen :class:`DecisionContext` built for
every decision. Each step is the paper's player model in order; the
tests in ``test_core.py`` require :class:`VodSessionCore` and
:class:`LiveSessionCore` (and the ``StreamingSession`` /
``LiveStreamingSession`` drivers built on them) to reproduce these
loops bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.network.estimator import BandwidthEstimator, HarmonicMeanEstimator
from repro.network.link import MIN_DOWNLOAD_DURATION_S
from repro.player.buffer import PlaybackBuffer
from repro.player.live import LiveSessionConfig, LiveSessionResult
from repro.player.session import SessionConfig, SessionResult
from repro.video.model import Manifest


def _select(algorithm: ABRAlgorithm, manifest: Manifest, ctx: DecisionContext) -> int:
    level = int(algorithm.select_level(ctx))
    if not 0 <= level < manifest.num_tracks:
        raise ValueError(
            f"{algorithm.name} selected invalid level {level} "
            f"for chunk {ctx.chunk_index} (valid: 0..{manifest.num_tracks - 1})"
        )
    return level


def reference_vod_session(
    algorithm: ABRAlgorithm,
    manifest: Manifest,
    link,
    config: Optional[SessionConfig] = None,
    estimator: Optional[BandwidthEstimator] = None,
) -> SessionResult:
    """Stream every chunk of ``manifest`` over the private ``link``."""
    config = SessionConfig() if config is None else config
    estimator = HarmonicMeanEstimator() if estimator is None else estimator
    estimator.reset()
    algorithm.prepare(manifest)
    delta = manifest.chunk_duration_s
    buffer = PlaybackBuffer()
    now = 0.0
    playing = False
    startup_delay = 0.0
    last_level = None
    records = []

    for i in range(manifest.num_chunks):
        # 1. Decide, after an optional algorithm-requested idle that
        #    never drains the buffer below one chunk. The clock moves
        #    during the idle, so the context is built again after it.
        ctx = DecisionContext(
            chunk_index=i,
            now_s=now,
            buffer_s=buffer.level_s,
            last_level=last_level,
            bandwidth_bps=estimator.predict_bps(now),
            playing=playing,
        )
        requested_idle = 0.0
        if playing:
            requested_idle = max(0.0, float(algorithm.requested_idle_s(ctx)))
            requested_idle = min(requested_idle, buffer.time_until_level(delta))
            if requested_idle > 0:
                buffer.drain(requested_idle)
                now += requested_idle
                ctx = DecisionContext(
                    chunk_index=i,
                    now_s=now,
                    buffer_s=buffer.level_s,
                    last_level=last_level,
                    bandwidth_bps=estimator.predict_bps(now),
                    playing=playing,
                )
        level = _select(algorithm, manifest, ctx)

        # 2. Respect the buffer cap: idle until one chunk fits.
        cap_idle = 0.0
        if playing and buffer.level_s + delta > config.max_buffer_s:
            cap_idle = buffer.level_s + delta - config.max_buffer_s
            buffer.drain(cap_idle)
            now += cap_idle

        # 3. Download; the buffer drains (and may stall) meanwhile.
        size = manifest.chunk_size_bits(level, i)
        download = link.download(size, now)
        download_s = download.finish_s - download.start_s
        stall = 0.0
        if playing:
            stall = buffer.drain(download_s)
        now = download.finish_s
        buffer.fill(delta)

        # 4. Learn from the observation.
        estimator.observe(size, max(download_s, MIN_DOWNLOAD_DURATION_S), now)
        algorithm.notify_download(i, level, size, download_s, buffer.level_s, now)
        records.append(
            (
                level,
                size,
                download.start_s,
                now,
                stall,
                buffer.level_s,
                requested_idle + cap_idle,
                requested_idle,
                cap_idle,
            )
        )
        last_level = level

        # 5. Playback starts once the startup target is buffered.
        if not playing and buffer.level_s >= config.startup_latency_s:
            playing = True
            startup_delay = now

    if not playing:
        # The target was never reached: playback starts when the last
        # download completes.
        startup_delay = now
    columns = list(zip(*records)) if records else [()] * 9
    return SessionResult(
        scheme=algorithm.name,
        video_name=manifest.video_name,
        trace_name=link.trace.name,
        levels=np.asarray(columns[0], dtype=int),
        sizes_bits=np.asarray(columns[1], dtype=float),
        download_start_s=np.asarray(columns[2], dtype=float),
        download_finish_s=np.asarray(columns[3], dtype=float),
        stall_s=np.asarray(columns[4], dtype=float),
        buffer_after_s=np.asarray(columns[5], dtype=float),
        idle_s=np.asarray(columns[6], dtype=float),
        startup_delay_s=startup_delay,
        requested_idle_s=np.asarray(columns[7], dtype=float),
        cap_idle_s=np.asarray(columns[8], dtype=float),
    )


def reference_live_session(
    algorithm: ABRAlgorithm,
    manifest: Manifest,
    link,
    config: Optional[LiveSessionConfig] = None,
    estimator: Optional[BandwidthEstimator] = None,
    stall_terms: Optional[list] = None,
) -> LiveSessionResult:
    """Watch the broadcast of ``manifest`` from its start over ``link``.

    Chunk ``i`` is produced at ``i * delta``; the player joins at time 0.
    A chunk's ``stall_s`` entry sums two terms, the stall while waiting
    at the live edge and the stall while downloading; ``stall_terms``,
    when given, receives every term in the order the player incurs it,
    as ``(chunk index, term)`` pairs.
    """
    config = LiveSessionConfig() if config is None else config
    estimator = HarmonicMeanEstimator() if estimator is None else estimator
    estimator.reset()
    algorithm.prepare(manifest)
    n = manifest.num_chunks
    delta = manifest.chunk_duration_s
    buffer = PlaybackBuffer()
    now = 0.0
    playing = False
    startup_delay = 0.0
    last_level = None
    records = []

    for i in range(n):
        # Wait for the chunk to exist at the live edge.
        wait = max(0.0, i * delta - now)
        stall = 0.0
        if wait > 0:
            if playing:
                term = buffer.drain(wait)
                stall += term
                if stall_terms is not None:
                    stall_terms.append((i, term))
            now += wait

        # Keep the backlog inside the latency budget.
        if playing and buffer.level_s + delta > config.latency_budget_s:
            drain_for = buffer.level_s + delta - config.latency_budget_s
            buffer.drain(drain_for)
            now += drain_for

        ctx = DecisionContext(
            chunk_index=i,
            now_s=now,
            buffer_s=buffer.level_s,
            last_level=last_level,
            bandwidth_bps=estimator.predict_bps(now),
            playing=playing,
        )
        level = _select(algorithm, manifest, ctx)

        size = manifest.chunk_size_bits(level, i)
        download = link.download(size, now)
        download_s = download.finish_s - download.start_s
        if playing:
            term = buffer.drain(download_s)
            stall += term
            if stall_terms is not None:
                stall_terms.append((i, term))
        now = download.finish_s
        buffer.fill(delta)
        estimator.observe(size, download_s, now)
        algorithm.notify_download(i, level, size, download_s, buffer.level_s, now)
        last_level = level

        if not playing and buffer.level_s >= config.startup_chunks * delta:
            playing = True
            startup_delay = now

        # Live latency: content time at the live edge minus the
        # playback position (downloaded minus buffered).
        played_s = (i + 1) * delta - buffer.level_s
        latency = max(0.0, min(now, n * delta) - played_s)
        records.append(
            (level, size, download.start_s, now, stall, buffer.level_s, wait, latency)
        )

    if not playing:
        startup_delay = now
    columns = list(zip(*records)) if records else [()] * 8
    return LiveSessionResult(
        scheme=algorithm.name,
        video_name=manifest.video_name,
        trace_name=link.trace.name,
        levels=np.asarray(columns[0], dtype=int),
        sizes_bits=np.asarray(columns[1], dtype=float),
        download_start_s=np.asarray(columns[2], dtype=float),
        download_finish_s=np.asarray(columns[3], dtype=float),
        stall_s=np.asarray(columns[4], dtype=float),
        buffer_after_s=np.asarray(columns[5], dtype=float),
        availability_wait_s=np.asarray(columns[6], dtype=float),
        latency_s=np.asarray(columns[7], dtype=float),
        startup_delay_s=startup_delay,
    )
