"""Live ABR streaming: the paper's §8 future-work direction, built out.

In the VoD setting (§6) the whole manifest is known and every chunk is
downloadable immediately. Live streaming changes two things:

1. **availability** — chunk ``i`` only exists once the encoder has
   produced it, at ``i * chunk_duration`` on the wall clock (the player
   joins at the live edge of an ongoing broadcast); a player that drains
   its backlog must idle at the live edge until the next chunk appears;
2. **bounded lookahead** — a live manifest only announces the sizes of a
   short horizon of upcoming chunks, so CAVA's statistical filters (and
   any scheme's planning) must clamp their windows to what is announced
   (:func:`repro.core.cava.cava_live` builds such a clamped CAVA).

In the player, only the steps between chunks and the latency
accounting differ from VoD: the :class:`~repro.player.core.LiveSessionCore`
waits for availability and drains to the latency budget where the VoD
core idles on request and at its buffer cap; it shares every other
step, and the driver loop (:func:`repro.player.session.drive_over_link`),
with the VoD player.

The live loop also surfaces the metric that matters in live systems:
**end-to-end latency** — how far playback trails the live edge. Latency
grows with every stall and with conservative buffering, which is exactly
the tension CAVA's target-buffer machinery has to renegotiate in the
live setting (a 60 s target is obviously not live-compatible; the
``latency_budget_s`` knob bounds how much backlog the player may hold).
"""

from __future__ import annotations

from typing import Optional

from repro.abr.base import ABRAlgorithm
from repro.network.estimator import BandwidthEstimator
from repro.network.link import TraceLink
from repro.player.core import LiveSessionConfig, LiveSessionCore, LiveSessionResult
from repro.player.session import drive_over_link
from repro.video.model import Manifest, VideoAsset

__all__ = ["LiveSessionConfig", "LiveSessionResult", "LiveStreamingSession", "run_live_session"]


class LiveStreamingSession:
    """Trace-driven live session: chunks appear at the live edge."""

    def __init__(self, config: Optional[LiveSessionConfig] = None) -> None:
        # None sentinel, not a default instance: a dataclass default
        # argument is evaluated once at class-definition time, so every
        # session would share (and alias) the same config object.
        self.config = LiveSessionConfig() if config is None else config

    def run(
        self,
        algorithm: ABRAlgorithm,
        manifest: Manifest,
        link: TraceLink,
        estimator: Optional[BandwidthEstimator] = None,
    ) -> LiveSessionResult:
        """Stream the broadcast described by ``manifest`` over ``link``.

        The broadcast starts producing at wall-clock 0 and emits chunk
        ``i`` at ``i * delta``; the player joins at time 0 and therefore
        watches the whole program at some latency behind the live edge.
        The session steps a :class:`~repro.player.core.LiveSessionCore`,
        advancing the clock through its waits and downloading each
        requested chunk over ``link``.
        """
        core = LiveSessionCore(
            algorithm, manifest, self.config, estimator, record_arrays=True
        )
        return drive_over_link(core, link)


def run_live_session(
    algorithm: ABRAlgorithm,
    video: VideoAsset,
    link: TraceLink,
    config: Optional[LiveSessionConfig] = None,
    estimator: Optional[BandwidthEstimator] = None,
    include_quality: bool = False,
) -> LiveSessionResult:
    """Convenience wrapper mirroring :func:`repro.player.session.run_session`."""
    manifest = video.manifest(include_quality=include_quality)
    return LiveStreamingSession(config).run(algorithm, manifest, link, estimator)
