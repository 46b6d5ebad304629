"""The §6.1 player model, written once: configs, results and the
event-driven session cores.

A session is one (video, ABR scheme, network) triple replayed under
repeatable conditions. Per chunk, the player

1. asks the ABR algorithm for the next chunk's track, after an optional
   algorithm-requested idle (BOLA-E pausing on a high buffer) that never
   drains the buffer below one chunk;
2. if the buffer is within one chunk of its cap, idles until there is
   room (the client "does not download the next chunk when the maximum
   buffer size is reached", §6.1);
3. downloads the chunk; while downloading, the buffer drains in real
   time — if it empties, the remainder is a stall;
4. feeds the observed throughput to the bandwidth estimator and notifies
   the algorithm;
5. starts playback once ``startup_latency_s`` seconds are buffered (10 s
   in §6.1, i.e. two 5-second chunks).

The live variant (§8 future work, :mod:`repro.player.live`) replaces the
buffer cap with chunk availability at the live edge and a latency
budget, and tracks how far playback trails the live edge.

Each step is written once. :class:`VodSessionCore` and
:class:`LiveSessionCore` are thin mode classes over one base that owns
the shared steps: landing a chunk (steps 3-5: drain/stall, fill,
observe, notify, the summary fold, the startup check), the decision
(steps 1-2: context, bandwidth prediction, the algorithm-requested
idle, level choice, the buffer-cap idle, the fetch), and the action
protocol below. What differs between the modes is data where it can
be: the startup threshold, the floor on the observed download duration
(VoD floors it at ``MIN_DOWNLOAD_DURATION_S``; live observes it raw),
the buffer cap (unbounded live) and whether the algorithm may request
an idle (never live). Between chunks the VoD core only decides; the
live core first waits for availability at the live edge and drains to
its latency budget, and it adds the live latency accounting.

A core never owns the clock: it emits one action at a time and resumes
when its driver calls back with the time the action completed:

- ``("fetch", size_bits)`` — download a chunk; the driver calls
  :meth:`on_fetch_done` with the finish time (and the time the transfer
  actually started, when a fault delayed it);
- ``("wait", seconds)`` — idle (algorithm-requested pause, buffer-cap
  drain, live availability or latency-budget wait); the driver calls
  :meth:`on_wait_done` when the timer fires. A waiting session holds no
  link capacity;
- ``("done",)`` — the session finished (or abandoned at its watch
  limit); read the summary attributes.

Two kinds of driver step the cores. ``StreamingSession.run`` and
``LiveStreamingSession.run`` replay one session against a private link
through one loop (:func:`repro.player.session.drive_over_link`), and
the fleet simulator (:mod:`repro.fleet.sim`) interleaves thousands
of cores on shared bottlenecks. Cores speak session-relative time to the
ABR logic (the estimator and the decision context see a clock that
starts at 0) while drivers pass absolute time into every callback; the
core anchors itself at :meth:`begin` and converts.
:func:`repro.player.session.run_lockstep_sessions` is a vectorized
accelerator that replays :class:`VodSessionCore` for N sessions at once.

Memory: a fleet run holds tens of thousands of concurrent cores, so by
default a core accumulates only scalar summary fields (bits, stalls,
level churn, quality sums against an optional per-video quality table).
``record_arrays=True`` keeps the full per-chunk arrays and lets
``result()`` build a :class:`SessionResult` / :class:`LiveSessionResult`
— what the private-link drivers return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.abr.rba import RateBasedAlgorithm
from repro.network.estimator import (
    _MAX_SAMPLE_BPS,
    _MIN_SAMPLE_BPS,
    BandwidthEstimator,
    HarmonicMeanEstimator,
)
from repro.network.link import MIN_DOWNLOAD_DURATION_S
from repro.util.validation import check_non_negative, check_positive
from repro.player.buffer import PlaybackBuffer
from repro.video.model import Manifest

__all__ = [
    "FETCH",
    "WAIT",
    "DONE",
    "SessionConfig",
    "SessionResult",
    "LiveSessionConfig",
    "LiveSessionResult",
    "VodSessionCore",
    "LiveSessionCore",
]

#: Action tags (first element of every emitted action tuple).
FETCH = "fetch"
WAIT = "wait"
DONE = "done"

#: VMAF floor below which a chunk counts as low quality. Kept literal
#: (mirroring metrics.LOW_QUALITY_VMAF): no import edge from the player
#: core to the metrics layer.
_LOW_QUALITY_VMAF = 40.0

_INF = math.inf


@dataclass(frozen=True)
class SessionConfig:
    """Player-level knobs, defaulted to the paper's §6.1 settings."""

    startup_latency_s: float = 10.0
    max_buffer_s: float = 100.0

    def __post_init__(self) -> None:
        check_positive(self.startup_latency_s, "startup_latency_s")
        check_positive(self.max_buffer_s, "max_buffer_s")
        if self.startup_latency_s > self.max_buffer_s:
            raise ValueError("startup_latency_s cannot exceed max_buffer_s")


@dataclass
class SessionResult:
    """Complete record of one streaming session.

    All per-chunk arrays are indexed by playback position. Quality values
    are *not* stored here — they are joined against the video's ground
    truth by :mod:`repro.player.metrics`, keeping the session itself
    restricted to client-observable state.
    """

    scheme: str
    video_name: str
    trace_name: str
    levels: np.ndarray
    sizes_bits: np.ndarray
    download_start_s: np.ndarray
    download_finish_s: np.ndarray
    stall_s: np.ndarray
    buffer_after_s: np.ndarray
    idle_s: np.ndarray
    startup_delay_s: float
    #: Idle attribution: seconds the *algorithm* asked to pause vs.
    #: seconds forced by the buffer cap. ``idle_s`` is their sum. None on
    #: records predating the split (e.g. archived JSON); events fall back
    #: to the merged ``idle`` kind then.
    requested_idle_s: Optional[np.ndarray] = None
    cap_idle_s: Optional[np.ndarray] = None

    #: Array fields, in declaration order, with their dtypes — shared by
    #: the JSON round-trip below.
    _ARRAY_FIELDS = (
        ("levels", int),
        ("sizes_bits", float),
        ("download_start_s", float),
        ("download_finish_s", float),
        ("stall_s", float),
        ("buffer_after_s", float),
        ("idle_s", float),
        ("requested_idle_s", float),
        ("cap_idle_s", float),
    )

    @property
    def num_chunks(self) -> int:
        """Number of chunks streamed."""
        return int(self.levels.size)

    @property
    def total_stall_s(self) -> float:
        """Total rebuffering time after startup (§6.1 metric iii)."""
        return float(np.sum(self.stall_s))

    @property
    def data_usage_bits(self) -> float:
        """Total bits downloaded (§6.1 metric v)."""
        return float(np.sum(self.sizes_bits))

    @property
    def download_throughputs_bps(self) -> np.ndarray:
        """Realized per-chunk download throughput."""
        durations = self.download_finish_s - self.download_start_s
        return self.sizes_bits / np.maximum(durations, MIN_DOWNLOAD_DURATION_S)

    @property
    def session_duration_s(self) -> float:
        """Wall-clock time from first request to last byte."""
        return float(self.download_finish_s[-1])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict: arrays become lists, floats stay exact.

        ``json.dumps(result.to_dict())`` round-trips bit-exactly through
        :meth:`from_dict` (Python's JSON float formatting is shortest
        round-trip), so session records can be archived and replayed into
        the event/trace tooling.
        """
        out: Dict[str, Any] = {
            "scheme": self.scheme,
            "video_name": self.video_name,
            "trace_name": self.trace_name,
            "startup_delay_s": float(self.startup_delay_s),
        }
        for name, _ in self._ARRAY_FIELDS:
            value = getattr(self, name)
            out[name] = None if value is None else [v.item() for v in value]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON)."""
        kwargs: Dict[str, Any] = {
            "scheme": data["scheme"],
            "video_name": data["video_name"],
            "trace_name": data["trace_name"],
            "startup_delay_s": float(data["startup_delay_s"]),
        }
        for name, dtype in cls._ARRAY_FIELDS:
            value = data.get(name)
            kwargs[name] = None if value is None else np.asarray(value, dtype=dtype)
        return cls(**kwargs)


@dataclass(frozen=True)
class LiveSessionConfig:
    """Knobs of the live player.

    Attributes
    ----------
    startup_chunks:
        Chunks buffered before playback starts (live players start after
        2–3 chunks, not a 10 s VoD-style target).
    latency_budget_s:
        Maximum backlog the player may hold; the buffer can never exceed
        the distance to the live edge anyway, and a latency-conscious
        player keeps it below this budget.
    lookahead_chunks:
        How many upcoming chunks the live manifest announces (sizes
        visible to the ABR logic). 0 means only the next chunk.
    """

    startup_chunks: int = 2
    latency_budget_s: float = 30.0
    lookahead_chunks: int = 10

    def __post_init__(self) -> None:
        if self.startup_chunks < 1:
            raise ValueError(f"startup_chunks must be >= 1, got {self.startup_chunks}")
        check_positive(self.latency_budget_s, "latency_budget_s")
        if self.lookahead_chunks < 0:
            raise ValueError(f"lookahead_chunks must be >= 0, got {self.lookahead_chunks}")


@dataclass
class LiveSessionResult:
    """Record of one live session (per-chunk arrays plus live metrics)."""

    scheme: str
    video_name: str
    trace_name: str
    levels: np.ndarray
    sizes_bits: np.ndarray
    download_start_s: np.ndarray
    download_finish_s: np.ndarray
    stall_s: np.ndarray
    buffer_after_s: np.ndarray
    availability_wait_s: np.ndarray
    latency_s: np.ndarray
    startup_delay_s: float

    @property
    def num_chunks(self) -> int:
        """Number of chunks streamed."""
        return int(self.levels.size)

    @property
    def total_stall_s(self) -> float:
        """Total mid-playback rebuffering."""
        return float(np.sum(self.stall_s))

    @property
    def mean_latency_s(self) -> float:
        """Mean distance between playback position and the live edge.

        A zero-chunk session has no latency samples; defined as 0.0
        (rather than NaN) so aggregations over session populations never
        poison their sums.
        """
        if self.latency_s.size == 0:
            return 0.0
        return float(np.mean(self.latency_s))

    @property
    def peak_latency_s(self) -> float:
        """Worst-case live latency over the session (0.0 when no chunks
        were streamed — same convention as :attr:`mean_latency_s`)."""
        if self.latency_s.size == 0:
            return 0.0
        return float(np.max(self.latency_s))

    @property
    def data_usage_bits(self) -> float:
        """Total bits downloaded."""
        return float(np.sum(self.sizes_bits))


class _CoreBase:
    """The §6.1 steps both modes share: landing a chunk, deciding, the
    action protocol and the scalar summary.

    A mode class supplies its config, its startup threshold, buffer cap
    and floor on the observed download duration, and
    ``_next(rel_now, resumed)``: its steps from a landed chunk (or the
    session start) to the next fetch, re-entered with ``resumed=True``
    when the first wait of those steps fires.
    """

    __slots__ = (
        "algorithm",
        "manifest",
        "config",
        "estimator",
        "origin_s",
        "buffer",
        "chunk",
        "watch_chunks",
        "playing",
        "startup_delay_s",
        "last_level",
        "finished",
        "total_stall_s",
        "total_bits",
        "level_switches",
        "sum_quality",
        "sum_abs_quality_delta",
        "low_quality_chunks",
        "end_s",
        "_quality_rows",
        "_last_quality",
        "_ctx",
        "_startup_s",
        "_cap_s",
        "_chunk_duration_s",
        "_num_tracks",
        "_num_chunks",
        "_size_rows",
        "_fast_est",
        "_notify",
        "_has_idle",
        "_fast_rba",
        "_fetch_on_wake",
        "_pending_level",
        "_pending_size",
        "_pending_wait_s",
        "_pending_cap_s",
        "_pending_stall_s",
        "_fetch_emit_s",
        "_record",
        "_levels",
        "_sizes",
        "_starts",
        "_finishes",
        "_stalls",
        "_buffers",
        "_waits",
        "_cap_waits",
    )

    #: Floor on the download duration the estimator observes: the VoD
    #: player floors it, the live player observes the raw duration (so a
    #: non-positive one is rejected by the estimator's validation).
    _duration_floor_s = -math.inf

    #: Mode hook run after a chunk lands, ``(chunk, rel_now, buffer_s)``:
    #: the live latency accounting. None skips the call (VoD).
    _after_landing = None

    def __init__(
        self,
        algorithm: ABRAlgorithm,
        manifest: Manifest,
        config: Union[SessionConfig, LiveSessionConfig],
        startup_s: float,
        cap_s: float,
        estimator: Optional[BandwidthEstimator],
        watch_chunks: Optional[int],
        quality_rows: Optional[np.ndarray],
        record_arrays: bool,
    ) -> None:
        self.manifest = manifest
        self.config = config
        self._startup_s = startup_s
        self._cap_s = cap_s
        self.estimator = estimator if estimator is not None else HarmonicMeanEstimator()
        self._quality_rows = quality_rows
        self._record = record_arrays
        # One context per core, rewritten for every decision (algorithms
        # never keep the object; see DecisionContext).
        self._ctx = DecisionContext(0, 0.0, 0.0, None, 0.0, False)
        self._chunk_duration_s = manifest.chunk_duration_s
        self._num_tracks = manifest.num_tracks
        self._num_chunks = manifest.num_chunks
        self._size_rows = manifest.size_rows
        # Hot-path gate (see on_fetch_done and _decide): the default
        # harmonic estimator's observe/predict arithmetic is inlined.
        est = self.estimator
        self._fast_est = (
            est if type(est) is HarmonicMeanEstimator and est.window < 8 else None
        )
        self.buffer = PlaybackBuffer()
        self._arm(algorithm, watch_chunks)
        if record_arrays:
            self._levels: list = []
            self._sizes: list = []
            self._starts: list = []
            self._finishes: list = []
            self._stalls: list = []
            self._buffers: list = []
            self._waits: list = []
            self._cap_waits: list = []

    def reset_for(self, algorithm: ABRAlgorithm, watch_chunks: Optional[int]) -> None:
        """Re-arm a pooled core for a new session.

        The fleet recycles cores per (scheme, video, live) key, so the
        immutable collaborators — manifest, config, quality rows, the
        estimator instance (``begin`` clears its history) — are already
        right; only the algorithm binding and the per-session state need
        rewriting. ``__init__`` arms a new core through the same
        :meth:`_arm`, so a recycled core is state-identical to a new
        one. Recording cores are never pooled (their per-chunk arrays
        would need clearing).
        """
        if self._record:
            raise ValueError("recording cores cannot be pooled")
        self._arm(algorithm, watch_chunks)

    def _arm(self, algorithm: ABRAlgorithm, watch_chunks: Optional[int]) -> None:
        """Bind ``algorithm`` and zero every per-session field."""
        self.algorithm = algorithm
        # Hot-path gates: the no-op ABR hooks are skipped on the
        # per-chunk path. Each gate reads the hook off the *class*, so
        # any override takes the faithful path; a duck-typed wrapper
        # whose class lacks the method (it forwards per instance) counts
        # as overriding it.
        cls = type(algorithm)
        notify = getattr(cls, "notify_download", None)
        self._notify = (
            None if notify is ABRAlgorithm.notify_download else algorithm.notify_download
        )
        idle = getattr(cls, "requested_idle_s", None)
        self._has_idle = idle is not ABRAlgorithm.requested_idle_s
        # Exact-class gate (a subclass may override select_level): the
        # decision step inlines RBA's descending feasibility scan to skip
        # the call frame on the fleet's hottest dispatch.
        self._fast_rba = algorithm if cls is RateBasedAlgorithm else None
        n = self._num_chunks
        self.watch_chunks = n if watch_chunks is None else min(int(watch_chunks), n)
        if self.watch_chunks < 0:
            raise ValueError(f"watch_chunks must be >= 0, got {watch_chunks}")
        buffer = self.buffer
        buffer.level_s = 0.0
        buffer.total_stall_s = 0.0
        self.origin_s = 0.0
        self.chunk = 0
        self.playing = False
        self.startup_delay_s = 0.0
        self.last_level: Optional[int] = None
        self.finished = False
        self.total_stall_s = 0.0
        self.total_bits = 0.0
        self.level_switches = 0
        self.sum_quality = 0.0
        self.sum_abs_quality_delta = 0.0
        self.low_quality_chunks = 0
        self.end_s = 0.0
        self._last_quality = 0.0
        self._fetch_on_wake = False
        self._pending_level = 0
        self._pending_size = 0.0
        # The pending chunk's first wait (VoD requested idle, live
        # availability wait), its cap wait (VoD buffer cap, live latency
        # budget) and the stall they caused (only a live availability
        # wait can stall); read and cleared only when recording.
        self._pending_wait_s = 0.0
        self._pending_cap_s = 0.0
        self._pending_stall_s = 0.0
        self._fetch_emit_s = 0.0

    # -- scheduler-facing API -------------------------------------------

    def begin(self, now_s: float):
        """Anchor the session clock at ``now_s`` and emit the first action."""
        self.origin_s = now_s
        self.estimator.reset()
        self.algorithm.prepare(self.manifest)
        if self.watch_chunks == 0:
            return self._finish(0.0)
        return self._next(0.0)

    def on_wait_done(self, now_s: float):
        """A ``("wait", ...)`` timer fired; resume the interrupted phase."""
        if self._fetch_on_wake:
            return self._emit_fetch(now_s)
        return self._next(now_s - self.origin_s, True)

    def on_fetch_done(self, now_s: float, transfer_start_s: Optional[float] = None):
        """The pending chunk finished downloading at absolute ``now_s``.

        ``transfer_start_s`` is when the link actually began serving the
        request (later than the fetch emission when a latency fault
        delayed it); the download duration the player measures — and
        drains/observes against — excludes that delay.
        """
        # Landing a chunk — buffer drain/fill, estimator observe, summary
        # accounting — is one frame with the collaborators' arithmetic
        # inlined branch-for-branch (PlaybackBuffer.drain/fill,
        # HarmonicMeanEstimator.observe). A fleet run enters here once
        # per chunk, ~10M times on the default spec, and the call/dispatch
        # overhead of the method chain dominated the fleet profile. Every
        # float operation keeps the collaborators' operand order, so the
        # results are bit-identical — pinned by the reference-loop tests
        # and the fleet golden fingerprints.
        rel_now = now_s - self.origin_s
        start_abs = self._fetch_emit_s if transfer_start_s is None else transfer_start_s
        download_s = now_s - start_abs
        i = self.chunk
        level = self._pending_level
        size = self._pending_size
        buffer = self.buffer
        delta = self._chunk_duration_s
        playing = self.playing
        buf_level = buffer.level_s
        # PlaybackBuffer.drain(download_s) if playing, then fill(delta)
        # (delta is the manifest's chunk duration, validated positive
        # and finite when the manifest was built).
        if playing:
            if not 0.0 <= download_s < _INF:
                check_non_negative(download_s, "wall_clock_s")
            if download_s <= buf_level:
                buf_level -= download_s
                stall = 0.0
            else:
                stall = download_s - buf_level
                buf_level = 0.0
                buffer.total_stall_s += stall
        else:
            stall = 0.0
        buf_level += delta
        buffer.level_s = buf_level
        # HarmonicMeanEstimator.observe(size, max(download_s, floor)).
        floor = self._duration_floor_s
        dur = floor if download_s < floor else download_s
        est = self._fast_est
        if est is not None:
            if not 0.0 < size < _INF:
                check_positive(size, "size_bits")
            if not 0.0 < dur < _INF:
                check_positive(dur, "duration_s")
            sample = size / dur
            if not _MIN_SAMPLE_BPS <= sample <= _MAX_SAMPLE_BPS:
                sample = min(max(sample, _MIN_SAMPLE_BPS), _MAX_SAMPLE_BPS)
            est._samples.append(sample)
            est._inverses.append(1.0 / sample)
        else:
            self.estimator.observe(size, dur, rel_now)
        notify = self._notify
        if notify is not None:
            notify(i, level, size, download_s, buf_level, rel_now)
        # Fold the chunk into the scalar summary.
        self.total_stall_s += stall
        self.total_bits += size
        last = self.last_level
        if last is not None and level != last:
            self.level_switches += 1
        rows = self._quality_rows
        if rows is not None:
            # Row-then-item indexing keeps plain Python floats when the
            # caller passes nested tuples (the fleet does); a 2-D
            # ndarray still works through the same expression.
            quality = rows[level][i]
            self.sum_quality += quality
            if quality < _LOW_QUALITY_VMAF:
                self.low_quality_chunks += 1
            if i > 0:
                # abs() without the builtin call: -d flips the sign bit,
                # exactly abs for the finite deltas quality rows produce.
                d = quality - self._last_quality
                self.sum_abs_quality_delta += d if d >= 0.0 else -d
            self._last_quality = quality
        self.last_level = level
        if not playing and buf_level >= self._startup_s:
            self.playing = True
            self.startup_delay_s = rel_now
        after_landing = self._after_landing
        if after_landing is not None:
            after_landing(i, rel_now, buf_level)
        if self._record:
            self._levels.append(level)
            self._sizes.append(size)
            self._starts.append(start_abs - self.origin_s)
            self._finishes.append(rel_now)
            self._stalls.append(self._pending_stall_s + stall)
            self._buffers.append(buf_level)
            self._waits.append(self._pending_wait_s)
            self._cap_waits.append(self._pending_cap_s)
            self._pending_wait_s = self._pending_cap_s = self._pending_stall_s = 0.0
        i += 1
        self.chunk = i
        if i >= self.watch_chunks:
            return self._finish(rel_now)
        return self._next(rel_now)

    # -- shared steps ---------------------------------------------------

    def _decide(self, rel_now: float, resumed: bool = False):
        """Decide the pending chunk at ``rel_now`` and emit its fetch.

        Rewrites the decision context; lets a playing player's algorithm
        request a pause, capped so it never drains the buffer below one
        chunk (not when ``resumed`` from that pause, and never live:
        live cores clear ``_has_idle``); chooses the level; and idles
        until the chunk fits under the buffer cap ``_cap_s`` (VoD's
        ``max_buffer_s``; unbounded live). A pause or a cap idle is
        returned as a wait; the pause re-enters here, the cap idle ends
        in the fetch.
        """
        i = self.chunk
        playing = self.playing
        buffer = self.buffer
        buf_level = buffer.level_s
        delta = self._chunk_duration_s
        ctx = self._ctx
        ctx.chunk_index = i
        ctx.now_s = rel_now
        ctx.buffer_s = buf_level
        ctx.last_level = self.last_level
        # HarmonicMeanEstimator.predict_bps inlined (scalar fast path).
        est = self._fast_est
        if est is not None:
            n = len(est._samples)
            if n == 0:
                bw = est.initial_estimate_bps
            else:
                # sum() over the precomputed inverses is the same
                # sequential left fold of the same doubles (see
                # HarmonicMeanEstimator).
                bw = n / sum(est._inverses)
                if not 0.0 < bw < _INF:
                    bw = est.initial_estimate_bps
        else:
            bw = self.estimator.predict_bps(rel_now)
        ctx.bandwidth_bps = bw
        ctx.playing = playing
        # _has_idle gates a pure no-op: the base requested_idle_s returns
        # 0.0, so skipping the query leaves identical state.
        if playing and self._has_idle and not resumed:
            requested = max(0.0, float(self.algorithm.requested_idle_s(ctx)))
            requested = min(requested, buffer.time_until_level(delta))
            if requested > 0.0:
                buffer.drain(requested)
                self._pending_wait_s = requested
                self._fetch_on_wake = False
                return (WAIT, requested)
        rba = self._fast_rba
        if rba is not None:
            # RateBasedAlgorithm.select_level inlined: same descending
            # scan over the same doubles (ctx carries these exact
            # locals), minus the call frame.
            srows = rba._size_rows
            reserve_s = rba._reserve_s
            level = 0
            for lv in range(rba._top, -1, -1):
                if buf_level - srows[lv][i] / bw >= reserve_s:
                    level = lv
                    break
        else:
            level = int(self.algorithm.select_level(ctx))
        if level < 0 or level >= self._num_tracks:
            self._validate_level(level)  # cold: raises the standard message
        self._pending_level = level
        # size_rows[level][chunk] equals chunk_size_bits(level, chunk)
        # bit for bit, without the 2-D ndarray index + float() per call.
        self._pending_size = size = self._size_rows[level][i]
        cap_s = self._cap_s
        if playing and buf_level + delta > cap_s:
            cap_idle = buf_level + delta - cap_s
            buffer.drain(cap_idle)  # cannot stall: draining from above cap
            self._pending_cap_s = cap_idle
            self._fetch_on_wake = True
            return (WAIT, cap_idle)
        self._fetch_emit_s = self.origin_s + rel_now
        return (FETCH, size)

    def _emit_fetch(self, now_s: float):
        self._fetch_emit_s = now_s
        return (FETCH, self._pending_size)

    def _finish(self, rel_now: float):
        if not self.playing:
            # Very short watch: startup target never reached; playback
            # starts when the last download completes.
            self.startup_delay_s = rel_now
            self.playing = True
        self.end_s = rel_now
        self.finished = True
        return (DONE,)

    def _validate_level(self, level: int) -> None:
        if not 0 <= level < self.manifest.num_tracks:
            raise ValueError(
                f"{self.algorithm.name} selected invalid level {level} "
                f"for chunk {self.chunk} "
                f"(valid: 0..{self.manifest.num_tracks - 1})"
            )

    # -- summary ----------------------------------------------------------

    @property
    def mean_quality(self) -> float:
        """Mean per-chunk quality (0 if no chunks or no quality table)."""
        return self.sum_quality / self.chunk if self.chunk else 0.0

    @property
    def quality_change_per_chunk(self) -> float:
        """Mean |Δquality| between consecutive chunks (0 if < 2 chunks)."""
        if self.chunk < 2:
            return 0.0
        return self.sum_abs_quality_delta / (self.chunk - 1)

    def _recorded(self, trace_name: str) -> Dict[str, Any]:
        """The result fields both modes record, as constructor keywords."""
        if not self._record:
            raise ValueError("construct the core with record_arrays=True")
        return {
            "scheme": self.algorithm.name,
            "video_name": self.manifest.video_name,
            "trace_name": trace_name,
            "levels": np.asarray(self._levels, dtype=int),
            "sizes_bits": np.asarray(self._sizes, dtype=float),
            "download_start_s": np.asarray(self._starts, dtype=float),
            "download_finish_s": np.asarray(self._finishes, dtype=float),
            "stall_s": np.asarray(self._stalls, dtype=float),
            "buffer_after_s": np.asarray(self._buffers, dtype=float),
            "startup_delay_s": self.startup_delay_s,
        }


class VodSessionCore(_CoreBase):
    """Resumable stepper for one VoD session (the §6.1 steps above).

    Between chunks: an optional algorithm-requested idle capped at one
    buffered chunk (after which the context is rebuilt), the decision,
    then the buffer-cap idle at ``max_buffer_s`` — all three the shared
    decision step. Waits never stall.
    """

    __slots__ = ()

    _duration_floor_s = MIN_DOWNLOAD_DURATION_S

    def __init__(
        self,
        algorithm: ABRAlgorithm,
        manifest: Manifest,
        config: Optional[SessionConfig] = None,
        estimator: Optional[BandwidthEstimator] = None,
        watch_chunks: Optional[int] = None,
        quality_rows: Optional[np.ndarray] = None,
        record_arrays: bool = False,
    ) -> None:
        config = SessionConfig() if config is None else config
        super().__init__(
            algorithm,
            manifest,
            config,
            config.startup_latency_s,
            config.max_buffer_s,
            estimator,
            watch_chunks,
            quality_rows,
            record_arrays,
        )

    #: Between chunks the VoD player only decides: its algorithm-requested
    #: pause and its buffer-cap idle are the decision step's two waits.
    _next = _CoreBase._decide

    def result(self, trace_name: str = "") -> SessionResult:
        """Per-chunk :class:`SessionResult` (requires ``record_arrays``)."""
        fields = self._recorded(trace_name)
        requested_idle_s = np.asarray(self._waits, dtype=float)
        cap_idle_s = np.asarray(self._cap_waits, dtype=float)
        return SessionResult(
            idle_s=requested_idle_s + cap_idle_s,
            requested_idle_s=requested_idle_s,
            cap_idle_s=cap_idle_s,
            **fields,
        )


class LiveSessionCore(_CoreBase):
    """Resumable stepper for one live session.

    The broadcast's chunk ``i`` becomes available ``i * delta`` seconds
    after the session joins (each fleet session watches its own program
    from its own live edge). Between chunks: the availability wait at
    the live edge (which stalls a playing buffer that runs dry), the
    latency-budget drain, then the decision. Live latency accumulates
    into :attr:`sum_latency_s` / :attr:`peak_latency_s` (and, with
    ``record_arrays``, into the per-chunk ``latency_s`` array).
    """

    __slots__ = ("sum_latency_s", "peak_latency_s", "_latencies")

    def __init__(
        self,
        algorithm: ABRAlgorithm,
        manifest: Manifest,
        config: Optional[LiveSessionConfig] = None,
        estimator: Optional[BandwidthEstimator] = None,
        watch_chunks: Optional[int] = None,
        quality_rows: Optional[np.ndarray] = None,
        record_arrays: bool = False,
    ) -> None:
        config = LiveSessionConfig() if config is None else config
        super().__init__(
            algorithm,
            manifest,
            config,
            config.startup_chunks * manifest.chunk_duration_s,
            _INF,  # no buffer cap: the latency budget bounds the backlog
            estimator,
            watch_chunks,
            quality_rows,
            record_arrays,
        )
        if record_arrays:
            self._latencies: list = []

    def _arm(self, algorithm: ABRAlgorithm, watch_chunks: Optional[int]) -> None:
        super()._arm(algorithm, watch_chunks)
        self._has_idle = False  # a live player never pauses on request
        self.sum_latency_s = 0.0
        self.peak_latency_s = 0.0

    def _next(self, rel_now: float, resumed: bool = False):
        buffer = self.buffer
        delta = self._chunk_duration_s
        if not resumed:
            # Wait for the chunk to exist at the live edge.
            wait = self.chunk * delta - rel_now
            if wait > 0:
                if self.playing:
                    stall = buffer.drain(wait)
                    self.total_stall_s += stall
                    self._pending_stall_s = stall
                self._pending_wait_s = wait
                self._fetch_on_wake = False
                return (WAIT, wait)
        # Keep the backlog inside the latency budget: if the buffer is
        # at the budget, let it drain first; the decision sees the
        # drained buffer at the time the drain ends.
        budget_s = self.config.latency_budget_s
        if self.playing and buffer.level_s + delta > budget_s:
            drain_for = buffer.level_s + delta - budget_s
            buffer.drain(drain_for)  # cannot stall: draining from above
            self._pending_cap_s = drain_for
            self._decide(rel_now + drain_for)  # fetched when the drain ends
            self._fetch_on_wake = True
            return (WAIT, drain_for)
        return self._decide(rel_now)

    def _after_landing(self, i: int, rel_now: float, buf_level: float) -> None:
        # Live latency: content time at the live edge minus the player's
        # playback position (downloaded minus buffered).
        delta = self._chunk_duration_s
        position_s = (i + 1) * delta - buf_level
        live_edge_s = min(rel_now, self._num_chunks * delta)
        latency = max(0.0, live_edge_s - position_s)
        self.sum_latency_s += latency
        if latency > self.peak_latency_s:
            self.peak_latency_s = latency
        if self._record:
            self._latencies.append(latency)

    def result(self, trace_name: str = "") -> LiveSessionResult:
        """Per-chunk :class:`LiveSessionResult` (requires ``record_arrays``)."""
        fields = self._recorded(trace_name)
        return LiveSessionResult(
            availability_wait_s=np.asarray(self._waits, dtype=float),
            latency_s=np.asarray(self._latencies, dtype=float),
            **fields,
        )
