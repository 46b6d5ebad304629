"""ABR algorithm interface shared by every scheme (baselines and CAVA).

An algorithm sees exactly what a deployable DASH/HLS client sees (§3.2):

- the manifest (per-chunk sizes for all tracks, declared bitrates) at
  session start, via :meth:`ABRAlgorithm.prepare`;
- before each chunk, a :class:`DecisionContext` — current buffer level,
  bandwidth estimate, playback clock, previous level;
- after each download, a completion notification (for schemes that track
  their own statistics, e.g. RobustMPC's prediction-error history).

PANDA/CQ additionally requires per-chunk quality values; it receives a
manifest built with ``include_quality=True``, modelling the extra server
support that scheme assumes (§6.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.video.model import Manifest

if TYPE_CHECKING:  # annotation-only imports; no runtime dependency
    import numpy as np

    from repro.telemetry.tracer import Tracer

__all__ = ["DecisionContext", "BatchDecisionContext", "ABRAlgorithm", "BatchDecider"]


class DecisionContext:
    """Everything the player knows when it must pick the next chunk's track.

    The session cores build one context each and rewrite its fields for
    every decision (a fleet run makes millions), so a context is valid
    only during the ``select_level`` / ``requested_idle_s`` call that
    receives it: algorithms copy the fields they keep, never the object.

    Attributes
    ----------
    chunk_index:
        Index of the chunk about to be requested (0-based).
    now_s:
        Wall-clock time since the session started.
    buffer_s:
        Seconds of video currently buffered.
    last_level:
        Track chosen for the previous chunk, or None for the first chunk.
    bandwidth_bps:
        The estimator's current bandwidth prediction.
    playing:
        False during startup (before the initial buffering target is met).
    """

    __slots__ = (
        "chunk_index",
        "now_s",
        "buffer_s",
        "last_level",
        "bandwidth_bps",
        "playing",
    )

    def __init__(
        self,
        chunk_index: int,
        now_s: float,
        buffer_s: float,
        last_level: Optional[int],
        bandwidth_bps: float,
        playing: bool,
    ) -> None:
        self.chunk_index = chunk_index
        self.now_s = now_s
        self.buffer_s = buffer_s
        self.last_level = last_level
        self.bandwidth_bps = bandwidth_bps
        self.playing = playing


class BatchDecisionContext:
    """:class:`DecisionContext` for N lockstep sessions at one chunk.

    The chunk index is shared (lockstep advances every lane through the
    same chunk); the player state is per-lane ``(lanes,)`` arrays.
    ``last_levels`` is None only at chunk 0 — every lane has streamed the
    same number of chunks, so "no previous level" is uniform too.

    Like a scalar :class:`DecisionContext`, it is built once (per
    lockstep slice) and its fields are rewritten before every
    :meth:`BatchDecider.select_levels` call, so a context is valid only
    during that call: deciders keep the arrays they need, never the
    object, and never write into them.
    """

    __slots__ = (
        "chunk_index",
        "now_s",
        "buffer_s",
        "last_levels",
        "bandwidth_bps",
        "playing",
    )

    def __init__(
        self,
        chunk_index: int,
        now_s: np.ndarray,
        buffer_s: np.ndarray,
        last_levels: Optional[np.ndarray],
        bandwidth_bps: np.ndarray,
        playing: np.ndarray,
    ) -> None:
        self.chunk_index = chunk_index
        self.now_s = now_s
        self.buffer_s = buffer_s
        self.last_levels = last_levels
        self.bandwidth_bps = bandwidth_bps
        self.playing = playing


class BatchDecider:
    """Vectorized decision core for one batch of lockstep sessions.

    A decider is the batch twin of a prepared :class:`ABRAlgorithm`:
    :meth:`ABRAlgorithm.batch_decider` builds a fresh one per batch
    (holding any per-session controller state widened to per-lane
    arrays), and the lockstep engine calls :meth:`select_levels` /
    :meth:`notify_downloads` once per chunk instead of once per session.
    Lane ``j`` of every result must be the exact value the scalar
    ``select_level`` / ``notify_download`` pair would produce for
    session ``j`` — bit-identical, not approximately equal.
    """

    def select_levels(self, ctx: BatchDecisionContext) -> np.ndarray:
        """Per-lane level choices for chunk ``ctx.chunk_index``, (lanes,) ints."""
        raise NotImplementedError

    def notify_downloads(
        self,
        chunk_index: int,
        levels: np.ndarray,
        sizes_bits: np.ndarray,
        download_s: np.ndarray,
        buffer_s: np.ndarray,
        now_s: np.ndarray,
    ) -> None:
        """Per-lane download-completion hook (default: no-op)."""


class ABRAlgorithm:
    """Base class for rate-adaptation schemes.

    Subclasses must implement :meth:`select_level`; :meth:`prepare` and
    :meth:`notify_download` are optional hooks. Instances are reusable
    across sessions — :meth:`prepare` is called once per session and must
    reset any per-session state.
    """

    #: Human-readable scheme name used in reports and figures.
    name: str = "abr"

    #: Telemetry sink for the current session, or None (tracing off).
    #: Algorithms with controller internals worth inspecting (CAVA) emit
    #: :class:`~repro.telemetry.tracer.ControllerStep` records through it.
    tracer: Optional[Tracer] = None

    def bind_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with None) the session's telemetry sink.

        Called by :class:`~repro.player.session.StreamingSession` before
        :meth:`prepare`; passing None every untraced session keeps a
        reused algorithm instance from leaking records into a stale
        tracer.
        """
        self.tracer = tracer

    def prepare(self, manifest: Manifest) -> None:
        """Start a new session on ``manifest``; reset per-session state."""
        self.manifest = manifest

    def select_level(self, ctx: DecisionContext) -> int:
        """Return the track level (0-based) for chunk ``ctx.chunk_index``."""
        raise NotImplementedError

    def requested_idle_s(self, ctx: DecisionContext) -> float:
        """Seconds the player should idle before requesting the next chunk.

        Most schemes download back-to-back (0.0). BOLA-style schemes pause
        when their utility says the buffer is comfortably high — one reason
        BOLA-E's data usage runs lower (§6.8). The session drains the
        buffer during the idle and re-queries the algorithm afterwards.
        """
        return 0.0

    def notify_download(
        self,
        chunk_index: int,
        level: int,
        size_bits: float,
        download_s: float,
        buffer_s: float,
        now_s: float,
    ) -> None:
        """Hook called after each chunk download completes."""

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        """A fresh :class:`BatchDecider` for ``lanes`` lockstep sessions.

        The default — None — marks the scheme non-batchable; the sweep
        engine then falls back to per-session scalar runs. Overrides
        must check ``type(self)`` exactly (a subclass altering scalar
        behaviour silently inherits this hook otherwise) and prepare the
        returned decider fully: the engine never calls :meth:`prepare`
        on the batch path.
        """
        return None

    def _clamp_level(self, level: int) -> int:
        """Clamp a tentative level into the manifest's valid range."""
        return max(0, min(int(level), self.manifest.num_tracks - 1))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
