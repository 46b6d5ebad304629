"""Per-edge discrete-event simulation of a contending session population.

One :func:`simulate_edge` call owns one bottleneck: a
:class:`~repro.network.shared.SharedLink` over the edge's capacity
trace, the session events (arrivals, idle wake-ups, latency-delayed
transfer starts, playback departures), and the event-driven session
cores of :mod:`repro.player.core`. The loop interleaves the event
sources deterministically — at equal times a download completion is
processed before a timer, and timers break ties by insertion order — so
an edge's result is a pure function of ``(spec, edge_index, videos,
trace)`` and the fleet can shard edges across any number of workers
without changing a bit of the output.

**Hot path.** The loop runs once per event (~5M events on the default
fleet), so the event plumbing is built from three merged streams
instead of one heap:

- *arrivals* are pre-sorted by construction, so they live in a plain
  list walked by a cursor — no heap push/pop for the whole population;
- *timers* (wake/xfer/depart) keep the binary heap, ordered by
  ``(time, seq)``;
- the *link completion* is the earliest flow on the
  :class:`~repro.network.shared.SharedLink` heap, its finish time found
  by the inverse-cumulative search through a memoized interval hint,
  all inlined in :meth:`_EdgeSimulator._loop`.

The deterministic merge preserves the original single-heap order
exactly: completions beat timers at equal times, and arrivals beat
runtime timers at equal times because every arrival predates every
runtime timer in insertion order.

Aggregates are folded into fixed-width time buckets as the clock
advances (concurrency and active-download time integrals, delivered
bits, stalls, arrivals, finishes, per-session QoE at departure), plus
whole-edge scalars. The three integrals fed by every clock advance
accumulate into plain-float partials for the *current* bucket and are
flushed into the preallocated numpy accumulators only at bucket
boundaries — the same additions in the same left-to-right order as a
per-event ``values[idx] += x``, starting from the bucket's zero, so the
folded totals are bit-identical while the per-event cost drops to a few
local float adds. Per-session state is discarded at departure: a
100k-session fleet keeps only its ~20k concurrent cores alive (and
recycles the per-viewer envelopes through a free pool).

A session occupies the edge from arrival until *playback* ends: after
the last watched chunk downloads, the viewer keeps watching the buffer
out (a ``depart`` timer), contributing to concurrency but not to link
contention — the distinction between "viewers online" and "transfers
in flight" that capacity planning cares about.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.core.cava import cava_live
from repro.faults.plan import FaultedLink
from repro.fleet.arrivals import edge_arrival_times
from repro.fleet.spec import FleetSpec
from repro.network.link import MIN_DOWNLOAD_DURATION_S, TraceLink
from repro.network.shared import _MIN_COMPACT_SIZE, SharedLink
from repro.network.traces import NetworkTrace
from repro.player.core import DONE, FETCH, WAIT, LiveSessionCore, VodSessionCore
from repro.player.live import LiveSessionConfig
from repro.player.metrics import QoeWeights
from repro.player.session import SessionConfig
from repro.telemetry.spans import StageTimer
from repro.util.rng import derive_rng
from repro.video.model import VideoAsset

__all__ = ["EdgeResult", "simulate_edge", "bucket_index"]

# Timer-event kinds (heap entries are (time, seq, kind, session)).
_EV_WAKE = 1
_EV_XFER = 2  # latency-fault delay elapsed; start the transfer
_EV_DEPART = 3  # buffer played out; viewer leaves

_INF = math.inf

#: Live CAVA lookahead (chunks) — matches the §8 live adaptation tests.
_LIVE_LOOKAHEAD_CHUNKS = 10

#: Stage names of the loop's optional timing (match the observability
#: plane's ``fleet.*`` span vocabulary; see telemetry.pipeline).
STAGE_COMPLETION = "fleet.completion_query"
STAGE_ADVANCE = "fleet.advance"
STAGE_DISPATCH = "fleet.dispatch"
STAGE_BUCKET_FOLD = "fleet.bucket_fold"


def bucket_index(t: float, width: float) -> int:
    """Index of the ``[k * width, (k + 1) * width)`` bucket holding ``t``.

    ``int(t / width)`` alone mis-buckets times within an ulp of a
    boundary: the division can round up (``t`` just below ``k * width``
    lands in bucket ``k``) or down (``t`` exactly at ``k * width`` with
    an inexact quotient lands in ``k - 1``). The correction compares
    against the boundary product itself, so every caller — the
    accumulators and the advance loop's boundary splitting alike —
    agrees on one flooring.
    """
    index = int(t / width)
    if t < index * width:
        index -= 1
    elif t >= (index + 1) * width:
        index += 1
    return index


@dataclass
class EdgeResult:
    """Picklable summary of one edge's simulation.

    Bucket arrays all share one length (``n_buckets``); integrals are
    in their natural units (viewer-seconds, flow-seconds, bits).
    """

    edge_index: int
    bucket_s: float
    # -- bucketed series -------------------------------------------------
    delivered_bits: np.ndarray
    capacity_bits: np.ndarray
    concurrency_s: np.ndarray  # viewer-seconds in system
    download_s: np.ndarray  # active-transfer-seconds at the link
    stall_s: np.ndarray
    arrivals: np.ndarray
    finishes: np.ndarray
    qoe_sum: np.ndarray
    qoe_count: np.ndarray
    # -- whole-edge scalars ----------------------------------------------
    sessions: int
    live_sessions: int
    chunks: int
    bits: float
    stall_total_s: float
    startup_sum_s: float
    qoe_total: float
    sum_mean_quality: float
    low_quality_chunks: int
    level_switches: int
    sum_live_latency_s: float
    peak_concurrency: int
    peak_downloads: int
    end_s: float  # sim time when the last viewer departed
    events: int
    started_at: float  # wall-clock, for span stitching
    wall_s: float
    cpu_s: float
    #: Per-stage wall/count breakdown when the edge's loop was timed
    #: (``simulate_edge(..., stage_timer=...)``); None otherwise.
    stages: Optional[Dict[str, Dict[str, float]]] = field(default=None)

    @property
    def n_buckets(self) -> int:
        return int(self.delivered_bits.size)


class _Buckets:
    """Preallocated numpy accumulator over fixed-width time buckets.

    The backing array doubles on demand (drain overruns the arrival
    horizon by an unknown amount); ``hi`` tracks the high-water bucket
    count so :meth:`array` knows how much is live. Scalar adds land via
    :func:`bucket_index`; :meth:`add_window` folds a multi-bucket span
    with one vectorized slice add for the interior buckets — each
    interior bucket still receives exactly one addition of the same
    double, so the fold is bit-identical to the per-bucket loop it
    replaces.
    """

    __slots__ = ("width", "values", "hi")

    def __init__(self, width: float, capacity: int = 64) -> None:
        self.width = width
        self.values = np.zeros(max(int(capacity), 1), dtype=np.float64)
        self.hi = 0  # buckets in use (max touched index + 1)

    def _ensure(self, index: int) -> None:
        values = self.values
        if index >= values.size:
            grown = np.zeros(max(values.size * 2, index + 1), dtype=np.float64)
            grown[: values.size] = values
            self.values = grown
        if index >= self.hi:
            self.hi = index + 1

    def add_at(self, t: float, amount: float) -> None:
        index = bucket_index(t, self.width)
        self._ensure(index)
        self.values[index] += amount

    def add_dense(self, index: int, amount: float) -> None:
        """Add at a precomputed bucket index (the advance-loop flush)."""
        self._ensure(index)
        self.values[index] += amount

    def add_window(self, t0: float, t1: float, amount: float) -> None:
        """Spread ``amount`` uniformly over ``[t0, t1]``."""
        if t1 <= t0:
            return
        density = amount / (t1 - t0)
        width = self.width
        lo = bucket_index(t0, width)
        hi = bucket_index(t1, width)
        self._ensure(hi)
        values = self.values
        if lo == hi:
            values[lo] += amount
            return
        values[lo] += density * ((lo + 1) * width - t0)
        if hi > lo + 1:
            values[lo + 1 : hi] += density * width
        values[hi] += density * (t1 - hi * width)

    def array(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.float64)
        m = self.hi if self.hi < n else n
        out[:m] = self.values[:m]
        return out


class _Session:
    """Per-viewer envelope around an event-driven core (pooled)."""

    __slots__ = ("core", "live", "pool_key", "pending_bits", "stall_seen")

    def __init__(self, core, live: bool, pool_key) -> None:
        self.core = core
        self.live = live
        self.pool_key = pool_key
        self.pending_bits = 0.0
        self.stall_seen = 0.0


class _EdgeSimulator:
    def __init__(
        self,
        spec: FleetSpec,
        edge_index: int,
        videos: Mapping[str, VideoAsset],
        trace: NetworkTrace,
    ) -> None:
        self.spec = spec
        self.edge_index = edge_index
        self.trace = trace
        self.link = SharedLink(TraceLink(trace))
        wrapped = (
            spec.fault_plan.wrap_link(self.link.link)
            if spec.fault_plan is not None
            else self.link.link
        )
        # Only the stateless spike lookup is used; transfers themselves
        # go through the shared discipline.
        self.delay_at = (
            wrapped.delay_at if isinstance(wrapped, FaultedLink) else None
        )

        self.video_list = [videos[name] for name in spec.videos]
        self.session_config = SessionConfig(
            startup_latency_s=spec.startup_latency_s,
            max_buffer_s=spec.max_buffer_s,
        )
        self.live_config = LiveSessionConfig(
            latency_budget_s=spec.live_latency_budget_s
        )
        self.qoe_weights = QoeWeights()
        # Manifests and quality tables per (video index, quality manifest).
        self._manifests: Dict[Tuple[int, bool], object] = {}
        self._quality_rows: Dict[int, tuple] = {}
        # Retired algorithm instances, reusable after `prepare`:
        # key (scheme index, video index, live).
        self._algorithm_pool: Dict[Tuple[int, int, bool], list] = {}
        # Retired session cores, re-armed via ``reset_for`` (same key
        # space: every collaborator a core holds is key-constant).
        self._core_pool: Dict[Tuple[int, int, bool], list] = {}
        # Retired per-viewer envelopes (the 5-slot wrapper is recycled).
        self._session_pool: List[_Session] = []

        self.heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self.in_system = 0

        width = spec.bucket_s
        self.width = width
        capacity = int(spec.duration_s / width) + 4
        self.b_delivered = _Buckets(width, capacity)
        self.b_concurrency = _Buckets(width, capacity)
        self.b_download = _Buckets(width, capacity)
        self.b_stall = _Buckets(width, capacity)
        self.b_arrivals = _Buckets(width, capacity)
        self.b_finishes = _Buckets(width, capacity)
        self.b_qoe_sum = _Buckets(width, capacity)
        self.b_qoe_count = _Buckets(width, capacity)
        # Current-bucket partial sums for the advance-time integrals
        # (flushed by _flush_bucket whenever the clock leaves the bucket).
        self._bucket_idx = 0
        self._bucket_end = width
        self._part_delivered = 0.0
        self._part_concurrency = 0.0
        self._part_download = 0.0

        self.sessions = 0
        self.live_sessions = 0
        self.chunks = 0
        self.bits = 0.0
        self.stall_total_s = 0.0
        self.startup_sum_s = 0.0
        self.qoe_total = 0.0
        self.sum_mean_quality = 0.0
        self.low_quality_chunks = 0
        self.level_switches = 0
        self.sum_live_latency_s = 0.0
        self.peak_concurrency = 0
        self.peak_downloads = 0
        self.events = 0

    # -- deterministic session attributes --------------------------------

    def _draw_population(self) -> None:
        spec = self.spec
        times = edge_arrival_times(spec, self.edge_index)
        n = times.size
        rng = derive_rng(spec.seed, "fleet", "population", str(self.edge_index))
        # Fixed draw order — part of the determinism contract.
        self.attr_video = rng.integers(0, len(spec.videos), size=n).tolist()
        self.attr_scheme = rng.integers(0, len(spec.schemes), size=n).tolist()
        self.attr_live = (rng.random(n) < spec.live_fraction).tolist()
        self.attr_watch = rng.geometric(1.0 / spec.mean_watch_chunks, size=n).tolist()
        # Arrival times are non-decreasing by construction (cumulative
        # Poisson thinning), so they feed the merge as a cursor-walked
        # list instead of heap entries. The +inf sentinel lets the merge
        # read `arrivals[ai]` unconditionally — an exhausted stream just
        # never wins the merge.
        self._arrivals: List[float] = times.tolist()
        self._arrivals.append(_INF)

    # -- plumbing ---------------------------------------------------------

    def _push(self, t: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, payload))

    def _manifest(self, video_index: int, with_quality: bool):
        key = (video_index, with_quality)
        manifest = self._manifests.get(key)
        if manifest is None:
            manifest = self.video_list[video_index].manifest(
                include_quality=with_quality
            )
            self._manifests[key] = manifest
        return manifest

    def _quality_table(self, video_index: int) -> tuple:
        rows = self._quality_rows.get(video_index)
        if rows is None:
            # Nested tuples of Python floats: ndarray.tolist() preserves
            # the doubles exactly, and plain-float row indexing keeps
            # numpy scalar churn out of the per-chunk accounting.
            rows = tuple(
                tuple(track.qualities[self.spec.metric].tolist())
                for track in self.video_list[video_index].tracks
            )
            self._quality_rows[video_index] = rows
        return rows

    def _acquire_algorithm(self, scheme_index: int, video_index: int, live: bool):
        key = (scheme_index, video_index, live)
        pool = self._algorithm_pool.get(key)
        if pool:
            return pool.pop()
        name = self.spec.schemes[scheme_index]
        if live and name == "CAVA":
            manifest = self._manifest(video_index, False)
            return cava_live(
                _LIVE_LOOKAHEAD_CHUNKS,
                manifest.chunk_duration_s,
                self.spec.live_latency_budget_s,
            )
        return make_scheme(name, metric=self.spec.metric)

    def _release_algorithm(self, session: _Session) -> None:
        self._algorithm_pool.setdefault(session.pool_key, []).append(
            session.core.algorithm
        )

    # -- clock ------------------------------------------------------------

    def _flush_bucket(self, now: float) -> None:
        """Flush the current bucket's partials; re-anchor at ``now``."""
        idx = self._bucket_idx
        part = self._part_delivered
        if part:
            self.b_delivered.add_dense(idx, part)
            self._part_delivered = 0.0
        part = self._part_concurrency
        if part:
            self.b_concurrency.add_dense(idx, part)
            self._part_concurrency = 0.0
        part = self._part_download
        if part:
            self.b_download.add_dense(idx, part)
            self._part_download = 0.0
        idx = bucket_index(now, self.width)
        self._bucket_idx = idx
        self._bucket_end = (idx + 1) * self.width

    def _advance_slow(self, t: float, now: float) -> None:
        """Window crosses bucket boundaries: split per bucket.

        The per-sub-window ``advance_to`` sequence is load-bearing —
        ``virtual_bits`` integrates ``bits / n`` per sub-window, so the
        calls cannot be fused without moving floats.
        """
        link = self.link
        active = link.n_active
        n_sys = self.in_system
        bucket_end = self._bucket_end
        while now < t:
            step = t if t < bucket_end else bucket_end
            bits = link.advance_to(step)
            dt = step - now
            if bits:
                self._part_delivered += bits
            if n_sys:
                self._part_concurrency += n_sys * dt
            if active:
                self._part_download += active * dt
            now = step
            if now >= bucket_end:
                self._flush_bucket(now)
                bucket_end = self._bucket_end

    # -- event handlers ----------------------------------------------------

    def _arrive(self, t: float, index: int) -> None:
        spec = self.spec
        video_index = self.attr_video[index]
        scheme_index = self.attr_scheme[index]
        live = self.attr_live[index]
        watch = self.attr_watch[index]
        algorithm = self._acquire_algorithm(scheme_index, video_index, live)
        pool_key = (scheme_index, video_index, live)
        cpool = self._core_pool.get(pool_key)
        if cpool:
            core = cpool.pop()
            core.reset_for(algorithm, watch)
        else:
            with_quality = needs_quality_manifest(spec.schemes[scheme_index])
            manifest = self._manifest(video_index, with_quality)
            quality_rows = self._quality_table(video_index)
            if live:
                core = LiveSessionCore(
                    algorithm,
                    manifest,
                    config=self.live_config,
                    watch_chunks=watch,
                    quality_rows=quality_rows,
                )
            else:
                core = VodSessionCore(
                    algorithm,
                    manifest,
                    config=self.session_config,
                    watch_chunks=watch,
                    quality_rows=quality_rows,
                )
        if live:
            self.live_sessions += 1
        pool = self._session_pool
        if pool:
            session = pool.pop()
            session.core = core
            session.live = live
            session.pool_key = pool_key
            session.pending_bits = 0.0
            session.stall_seen = 0.0
        else:
            session = _Session(core, live, pool_key)
        self.sessions += 1
        self.in_system += 1
        if self.in_system > self.peak_concurrency:
            self.peak_concurrency = self.in_system
        self.b_arrivals.add_at(t, 1.0)
        self._dispatch(session, core.begin(t), t)

    def _start_transfer(self, session: _Session, t: float) -> None:
        link = self.link
        link.start(session, session.pending_bits)
        if link.n_active > self.peak_downloads:
            self.peak_downloads = link.n_active

    def _finalize(self, session: _Session, t: float) -> float:
        """The last watched chunk downloaded; the viewer drains the buffer.

        Returns the departure time (buffer played out); the caller
        schedules the ``_EV_DEPART`` timer (:meth:`_dispatch` via
        :meth:`_push`, the fused loop with its loop-local sequence
        counter).
        """
        core = session.core
        self.chunks += core.chunk
        self.bits += core.total_bits
        self.stall_total_s += core.total_stall_s
        self.startup_sum_s += core.startup_delay_s
        self.sum_mean_quality += core.mean_quality
        self.low_quality_chunks += core.low_quality_chunks
        self.level_switches += core.level_switches
        if session.live:
            self.sum_live_latency_s += core.sum_latency_s
        weights = self.qoe_weights
        qoe = (
            core.mean_quality
            - weights.rebuffer_per_s * core.total_stall_s
            - weights.quality_change * core.quality_change_per_chunk
            - weights.startup_per_s * core.startup_delay_s
        )
        self.qoe_total += qoe
        self.b_qoe_sum.add_at(t, qoe)
        self.b_qoe_count.add_at(t, 1.0)
        self._release_algorithm(session)
        # Viewer stays (watching the buffer out) without touching the link.
        return t + core.buffer.level_s

    def _dispatch(self, session: _Session, action, t: float) -> None:
        core = session.core
        stall = core.total_stall_s
        if stall > session.stall_seen:
            self.b_stall.add_at(t, stall - session.stall_seen)
            session.stall_seen = stall
        kind = action[0]
        if kind == FETCH:
            session.pending_bits = action[1]
            delay = self.delay_at(t) if self.delay_at is not None else 0.0
            if delay > 0.0:
                # The spike holds the request off the wire; the player
                # still measures the elongated fetch (download time is
                # anchored at the emit, as with a FaultedLink).
                self._push(t + delay, _EV_XFER, session)
            else:
                self._start_transfer(session, t)
        elif kind == WAIT:
            self._push(t + action[1], _EV_WAKE, session)
        else:
            assert kind == DONE
            self._push(self._finalize(session, t), _EV_DEPART, session)

    # -- main loop ---------------------------------------------------------

    def run(self, stage_timer: Optional[StageTimer] = None) -> EdgeResult:
        started_at = time.time()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        self._draw_population()
        # The loop allocates millions of short-lived tuples (heap entries,
        # actions) and no reference cycles — every object dies by
        # refcount — so the cyclic collector's generational passes are
        # pure overhead (~20% of the loop). Suspend it for the run,
        # honoring whatever state the caller had.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._loop(stage_timer)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._result(started_at, wall0, cpu0, stage_timer)

    def _loop(self, timer: Optional[StageTimer] = None) -> None:
        """Three-stream deterministic merge, fully fused (see module docs).

        Order contract (identical to the former single-heap loop): the
        link completion wins ties against every timer; an arrival wins
        ties against wake/xfer/depart timers (arrivals predate all
        runtime timers in insertion order); runtime timers break ties
        among themselves by insertion seq via the heap tuple.

        **Fusion contract.** The per-event work — the completion query
        (``next_completion`` + ``finish_time``), the clock advance
        (``SharedLink.advance_to`` + ``TraceLink._cumulative_at`` + the
        bucket partials), flow admission (``SharedLink.start``) and
        retirement (``complete``) and the action dispatch
        (:meth:`_dispatch`) — is inlined here with all state in loop
        locals, expression-for-expression identical to the methods it
        replicates (same operand order, same branch structure), so every
        float it produces is the exact double the method path produces.
        The per-call completion query and retirement live in
        ``tests/network/reference.py``; ``tests/fleet/reference.py``
        builds the method-path edge loop from them, and
        ``tests/fleet/test_method_path.py`` holds this loop to it, as
        the fingerprint pins hold it to the golden bytes. Cold handlers
        (arrivals, latency-delayed transfer starts, the per-bucket slow
        advance) stay out of line; loop-local state is written back
        around those calls and on exit.

        **Stage timing.** With a ``timer``, clock reads bracket the
        three regions of each iteration — the completion query, the
        merge + advance, and the handle + dispatch — and fold them into
        ``STAGE_COMPLETION``/``STAGE_ADVANCE``/``STAGE_DISPATCH``. The
        dispatch region is closed by the next iteration's first clock
        read, so the cold handlers' ``continue``s need no bracket of
        their own. Without a timer each region costs one branch; the
        event sequence is the same either way.
        """
        # -- trace constants (TraceLink internals, read-only; the list
        #    tables were built by SharedLink's first _cumulative_at) ----
        link = self.link
        tl = link.link
        period_s = tl._period_s
        interval_s = tl._interval
        bits_per_period = tl._bits_per_period
        cum_list = tl._cumulative_list
        rates_list = tl._rates_list
        num_intervals = tl._num_intervals
        min_download_s = MIN_DOWNLOAD_DURATION_S
        nextafter = math.nextafter
        # -- shared-link state, localized --------------------------------
        flows = link._flows
        n_active = len(flows)
        lheap = link._heap
        lseq = link._seq
        virtual = link.virtual_bits
        delivered = link.delivered_bits
        now = link.now_s
        cum_now = link._cum_now
        finish_hint = tl._finish_hint
        # -- merge streams ----------------------------------------------
        arrivals = self._arrivals  # +inf-terminated (see _draw_population)
        ai = 0
        heap = self.heap
        tseq = self._seq
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapify = heapq.heapify
        # -- accounting state, localized ---------------------------------
        in_system = self.in_system
        peak_downloads = self.peak_downloads
        width = self.width
        bucket_idx = self._bucket_idx
        bucket_end = self._bucket_end
        part_delivered = self._part_delivered
        part_concurrency = self._part_concurrency
        part_download = self._part_download
        b_delivered_add = self.b_delivered.add_dense
        b_concurrency_add = self.b_concurrency.add_dense
        b_download_add = self.b_download.add_dense
        b_stall_add = self.b_stall.add_at
        b_finishes_add = self.b_finishes.add_at
        pool_append = self._session_pool.append
        core_pools = self._core_pool
        core_pool_get = core_pools.get
        delay_at = self.delay_at
        timed = timer is not None
        if timed:
            perf = time.perf_counter
            cpu = time.process_time
            timer_add = timer.add
        events = 0

        while True:
            if timed:
                w0 = perf()
                c0 = cpu()
                if events:
                    # Close the previous event's handle + dispatch.
                    timer_add(STAGE_DISPATCH, w0 - w2, c0 - c2)
            arr_t = arrivals[ai]
            timer_t = heap[0][0] if heap else _INF
            earliest = arr_t if arr_t <= timer_t else timer_t

            # -- completion query: next_completion() + finish_time() ----
            comp_session = None
            comp_t = _INF
            while lheap:
                top = lheap[0]
                entry = top[3]
                if not entry[3]:
                    heappop(lheap)  # stale: completed or re-enqueued
                    continue
                admit = entry[0]
                # No service credited since admission: full size, so an
                # uncontended flow reuses the private-link expression.
                per_flow = entry[1] if virtual == admit else (admit + entry[1]) - virtual
                remaining = per_flow * n_active
                if remaining <= 0.0:
                    # Float snap: due immediately.
                    comp_t = now
                    comp_session = top[2]
                else:
                    target = cum_now + remaining
                    # divmod fast path: for 0 <= x < y, divmod(x, y) is
                    # exactly (0.0, x) — fmod returns x unchanged — so
                    # the common sub-period case skips the C call (fleet
                    # traces span the whole sim, so nearly every event
                    # lands in period 0).
                    if target < bits_per_period:
                        periods = 0.0
                        within = target
                    else:
                        periods, within = divmod(target, bits_per_period)
                    index = finish_hint
                    if not (
                        (index == 0 or cum_list[index] < within)
                        and cum_list[index + 1] >= within
                    ):
                        index = bisect_left(cum_list, within) - 1
                        if index < 0:
                            index = 0
                        elif index >= num_intervals:
                            index = num_intervals - 1
                        finish_hint = index
                    already = cum_list[index]
                    rate = rates_list[index]
                    if within <= already:
                        offset = index * interval_s
                    elif rate <= 0:
                        offset = (index + 1) * interval_s
                    else:
                        offset = index * interval_s + (within - already) / rate
                    finish = periods * period_s + offset
                    if finish <= now:
                        floor = remaining / (rate if rate >= 1.0 else 1.0)
                        if floor < min_download_s:
                            floor = min_download_s
                        finish = now + floor
                        if finish <= now:  # addition underflow
                            finish = nextafter(now, _INF)
                    comp_t = finish
                    comp_session = top[2]
                break
            if timed:
                w1 = perf()
                c1 = cpu()
                timer_add(STAGE_COMPLETION, w1 - w0, c1 - c0)

            # -- deterministic merge ------------------------------------
            if comp_session is not None and comp_t <= earliest:
                t = comp_t
                session = comp_session
                kind = 0  # link completion
            elif earliest != _INF:
                if arr_t <= timer_t:
                    ai += 1
                    t = arr_t
                    kind = -1  # arrival
                else:
                    item = heappop(heap)
                    t = item[0]
                    kind = item[2]
                    session = item[3]
            else:
                break

            # -- advance(t): advance_to + _cumulative_at + partials -----
            if t > now:
                if now >= bucket_end:
                    # Clock entered the next bucket: flush the partials.
                    if part_delivered:
                        b_delivered_add(bucket_idx, part_delivered)
                        part_delivered = 0.0
                    if part_concurrency:
                        b_concurrency_add(bucket_idx, part_concurrency)
                        part_concurrency = 0.0
                    if part_download:
                        b_download_add(bucket_idx, part_download)
                        part_download = 0.0
                    bucket_idx = bucket_index(now, width)
                    bucket_end = (bucket_idx + 1) * width
                if t <= bucket_end:
                    # Same divmod fast path as the completion query: a
                    # sub-period clock needs no wrap handling.
                    if t < period_s:
                        periods = 0.0
                        remainder = t
                    else:
                        periods, remainder = divmod(t, period_s)
                        if remainder >= period_s:
                            periods += 1.0
                            remainder = 0.0
                    index = remainder / interval_s
                    whole = int(index)
                    if whole >= num_intervals:
                        whole = num_intervals - 1
                    frac = index - whole
                    partial = cum_list[whole]
                    if frac > 0:
                        partial += rates_list[whole] * frac * interval_s
                    cum_t = periods * bits_per_period + partial
                    dt = t - now
                    if n_active:
                        bits = cum_t - cum_now
                        virtual += bits / n_active
                        delivered += bits
                        if bits:
                            part_delivered += bits
                        part_download += n_active * dt
                    if in_system:
                        part_concurrency += in_system * dt
                    now = t
                    cum_now = cum_t
                else:
                    # Rare: the window crosses a bucket boundary. Sync
                    # the localized state and take the method path.
                    link.virtual_bits = virtual
                    link.delivered_bits = delivered
                    link.now_s = now
                    link._cum_now = cum_now
                    self._part_delivered = part_delivered
                    self._part_concurrency = part_concurrency
                    self._part_download = part_download
                    self._bucket_idx = bucket_idx
                    self._bucket_end = bucket_end
                    self.in_system = in_system
                    self._advance_slow(t, now)
                    virtual = link.virtual_bits
                    delivered = link.delivered_bits
                    now = link.now_s
                    cum_now = link._cum_now
                    part_delivered = self._part_delivered
                    part_concurrency = self._part_concurrency
                    part_download = self._part_download
                    bucket_idx = self._bucket_idx
                    bucket_end = self._bucket_end
            if timed:
                w2 = perf()
                c2 = cpu()
                timer_add(STAGE_ADVANCE, w2 - w1, c2 - c1)

            # -- handle the event ---------------------------------------
            if kind == 0:  # completion: retire the flow, resume the core
                flows.pop(session)[3] = False
                n_active -= 1
                action = session.core.on_fetch_done(t)
            elif kind == _EV_WAKE:
                action = session.core.on_wait_done(t)
            elif kind == -1:  # arrival (cold: session construction)
                link.virtual_bits = virtual
                link.delivered_bits = delivered
                link.now_s = now
                link._cum_now = cum_now
                link._seq = lseq
                self._seq = tseq
                self.in_system = in_system
                self.peak_downloads = peak_downloads
                self._arrive(t, ai - 1)
                lheap = link._heap  # start() may have compacted
                lseq = link._seq
                n_active = len(flows)
                tseq = self._seq
                in_system = self.in_system
                peak_downloads = self.peak_downloads
                events += 1
                continue
            elif kind == _EV_XFER:  # cold: latency-fault delayed start
                link.virtual_bits = virtual
                link._seq = lseq
                self.peak_downloads = peak_downloads
                self._start_transfer(session, t)
                lheap = link._heap
                lseq = link._seq
                n_active = len(flows)
                peak_downloads = self.peak_downloads
                events += 1
                continue
            else:  # _EV_DEPART (cold-ish: one per session)
                in_system -= 1
                b_finishes_add(t, 1.0)
                cpool = core_pool_get(session.pool_key)
                if cpool is None:
                    core_pools[session.pool_key] = [session.core]
                else:
                    cpool.append(session.core)
                session.core = None
                pool_append(session)
                events += 1
                continue

            # -- dispatch(session, action, t) ---------------------------
            core = session.core
            stall = core.total_stall_s
            if stall > session.stall_seen:
                b_stall_add(t, stall - session.stall_seen)
                session.stall_seen = stall
            a0 = action[0]
            if a0 == FETCH:
                size = action[1]
                session.pending_bits = size
                if delay_at is not None:
                    delay = delay_at(t)
                    if delay > 0.0:
                        # The spike holds the request off the wire; the
                        # player still measures the elongated fetch.
                        tseq += 1
                        heappush(heap, (t + delay, tseq, _EV_XFER, session))
                        events += 1
                        continue
                # inline SharedLink.start(session, size)
                if size <= 0:
                    raise ValueError(f"size_bits must be > 0, got {size}")
                if session in flows:
                    raise ValueError(f"flow {session!r} already active")
                lseq += 1
                fentry = [virtual, size, lseq, True]
                flows[session] = fentry
                heappush(lheap, (virtual + size, lseq, session, fentry))
                n_active += 1
                lheap_len = len(lheap)
                if lheap_len > _MIN_COMPACT_SIZE and lheap_len > 2 * n_active:
                    live = [e for e in lheap if e[3][3]]
                    heapify(live)
                    lheap = live
                    link._heap = live
                if n_active > peak_downloads:
                    peak_downloads = n_active
            elif a0 == WAIT:
                tseq += 1
                heappush(heap, (t + action[1], tseq, _EV_WAKE, session))
            else:  # DONE
                tseq += 1
                heappush(
                    heap, (self._finalize(session, t), tseq, _EV_DEPART, session)
                )
            events += 1

        # -- write the localized state back ------------------------------
        link.virtual_bits = virtual
        link.delivered_bits = delivered
        link.now_s = now
        link._cum_now = cum_now
        link._seq = lseq
        tl._finish_hint = finish_hint
        self._seq = tseq
        self.in_system = in_system
        self.peak_downloads = peak_downloads
        self._part_delivered = part_delivered
        self._part_concurrency = part_concurrency
        self._part_download = part_download
        self._bucket_idx = bucket_idx
        self._bucket_end = bucket_end
        self.events = events

    def _result(
        self,
        started_at: float,
        wall0: float,
        cpu0: float,
        stage_timer: Optional[StageTimer] = None,
    ) -> EdgeResult:
        fold0 = time.perf_counter()
        fold_cpu0 = time.process_time()
        # Flush the in-flight partials before reading the accumulators.
        self._flush_bucket(self.link.now_s)
        width = self.width
        n = max(
            self.b_delivered.hi,
            self.b_concurrency.hi,
            self.b_download.hi,
            self.b_stall.hi,
            self.b_arrivals.hi,
            self.b_finishes.hi,
            self.b_qoe_sum.hi,
            1,
        )
        probe = TraceLink(self.trace)
        # One vectorized cumulative-table query replaces the former
        # per-bucket bits_in_window loop; _cumulative_at_array is the
        # scalar path's bit-identical numpy twin, and the window edges
        # are built from the same ``i * width`` products.
        capacity = probe.bits_in_windows(
            np.arange(n) * width, np.arange(1, n + 1) * width
        )
        result = EdgeResult(
            edge_index=self.edge_index,
            bucket_s=width,
            delivered_bits=self.b_delivered.array(n),
            capacity_bits=capacity,
            concurrency_s=self.b_concurrency.array(n),
            download_s=self.b_download.array(n),
            stall_s=self.b_stall.array(n),
            arrivals=self.b_arrivals.array(n),
            finishes=self.b_finishes.array(n),
            qoe_sum=self.b_qoe_sum.array(n),
            qoe_count=self.b_qoe_count.array(n),
            sessions=self.sessions,
            live_sessions=self.live_sessions,
            chunks=self.chunks,
            bits=self.bits,
            stall_total_s=self.stall_total_s,
            startup_sum_s=self.startup_sum_s,
            qoe_total=self.qoe_total,
            sum_mean_quality=self.sum_mean_quality,
            low_quality_chunks=self.low_quality_chunks,
            level_switches=self.level_switches,
            sum_live_latency_s=self.sum_live_latency_s,
            peak_concurrency=self.peak_concurrency,
            peak_downloads=self.peak_downloads,
            end_s=self.link.now_s,
            events=self.events,
            started_at=started_at,
            wall_s=time.perf_counter() - wall0,
            cpu_s=time.process_time() - cpu0,
        )
        if stage_timer is not None:
            stage_timer.add(
                STAGE_BUCKET_FOLD,
                time.perf_counter() - fold0,
                time.process_time() - fold_cpu0,
            )
            result.stages = stage_timer.as_dict()
        return result


def simulate_edge(
    spec: FleetSpec,
    edge_index: int,
    videos: Mapping[str, VideoAsset],
    trace: NetworkTrace,
    stage_timer: Optional[StageTimer] = None,
) -> EdgeResult:
    """Simulate one edge's population to completion (see module docs).

    Passing a :class:`~repro.telemetry.spans.StageTimer` brackets the
    loop's stages with wall-clock and CPU reads (same event sequence,
    same results) and attaches the breakdown to ``EdgeResult.stages``.
    """
    return _EdgeSimulator(spec, edge_index, videos, trace).run(stage_timer)
