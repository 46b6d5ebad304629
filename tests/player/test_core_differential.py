"""Both session cores vs the reference §6.1 loops, over random sessions.

``test_core.py`` pins every scheme on one fixed (video, trace) pair.
This module draws the session instead: mode (VoD or live), a scheme for
each of the cores' decision paths (RBA's inlined scan, CAVA through
``select_level``, BOLA-E's requested idle) plain or behind the
duck-typed ``Forwarding`` wrapper, the default estimator (inlined) or a
10-sample window (the ``observe``/``predict_bps`` method path), player
settings down to a buffer cap or latency budget below one chunk, a
watch limit, random traces with zero-rate runs, and latency faults.

A recording core must reproduce the reference's per-chunk arrays bit
for bit (truncated at the watch limit), and the scalar summary a fleet
core keeps must equal left-to-right folds of those arrays, for a fresh
core and for a core recycled through ``reset_for`` after a different
session.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abr.registry import make_scheme
from repro.faults.plan import FaultedLink, LatencyFault
from repro.network.estimator import HarmonicMeanEstimator
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from repro.player.core import LiveSessionCore, VodSessionCore
from repro.player.live import LiveSessionConfig
from repro.player.session import SessionConfig
from repro.video.dataset import VideoSpec, build_video
from tests.player.reference import reference_live_session, reference_vod_session
from tests.player.test_core import Forwarding, drive

#: One scheme per decision path of the cores.
SCHEMES = ["RBA", "CAVA", "BOLA-E (peak)"]
QUALITY_METRIC = "vmaf_phone"

_VIDEOS = {}


def short_video(num_chunks, chunk_duration_s):
    key = (num_chunks, chunk_duration_s)
    if key not in _VIDEOS:
        spec = VideoSpec(
            name=f"core-{num_chunks}x{chunk_duration_s:g}",
            title="Short",
            genre="animation",
            source="ffmpeg",
            codec="h264",
            chunk_duration_s=chunk_duration_s,
            cap_ratio=2.0,
            duration_s=num_chunks * chunk_duration_s,
        )
        video = build_video(spec, seed=num_chunks)
        # Nested tuples of plain floats, the table the fleet hands a core.
        rows = tuple(
            tuple(float(q) for q in track.qualities[QUALITY_METRIC])
            for track in video.tracks
        )
        _VIDEOS[key] = (video, rows)
    return _VIDEOS[key]


_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=2e5, max_value=2e7, allow_nan=False, allow_infinity=False),
)
_trace_rates = st.lists(_rate, min_size=1, max_size=60).filter(
    lambda rates: any(r > 0 for r in rates)
)


@st.composite
def _vod_configs(draw):
    startup = draw(st.sampled_from([1.0, 2.0, 4.0, 10.0]))
    # 1.0 and 3.0 cap the buffer below one 2 s or 4 s chunk.
    cap = draw(st.sampled_from([1.0, 3.0, 8.0, 20.0, 100.0]))
    return SessionConfig(startup_latency_s=startup, max_buffer_s=max(startup, cap))


_live_configs = st.builds(
    LiveSessionConfig,
    startup_chunks=st.integers(min_value=1, max_value=3),
    # 1.0 and 3.0 are budgets below one 2 s or 4 s chunk.
    latency_budget_s=st.sampled_from([1.0, 3.0, 8.0, 24.0]),
)

_faults = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([0.3, 1.0]),
        st.sampled_from([0.25, 2.0]),
        st.integers(min_value=0, max_value=7),
    ),
)


class Recording(Forwarding):
    """The duck-typed wrapper, logging every decision context it sees."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []
        for name in ("select_level", "requested_idle_s"):
            setattr(self, name, self._logged(name, getattr(inner, name)))

    def _logged(self, name, method):
        def call(ctx):
            self.log.append(
                (
                    name,
                    ctx.chunk_index,
                    ctx.now_s,
                    ctx.buffer_s,
                    ctx.last_level,
                    ctx.bandwidth_bps,
                    ctx.playing,
                )
            )
            return method(ctx)

        return call


def _algorithm(scheme, wrapped):
    algorithm = make_scheme(scheme)
    return Recording(algorithm) if wrapped else algorithm


def _estimator(windowed):
    return HarmonicMeanEstimator(window=10) if windowed else None


def _expected_summary(expected, rows, k, live, stall_terms, threshold):
    """The scalar summary of the first ``k`` reference chunks, as folds."""
    levels = expected.levels[:k].tolist()
    summary = {
        "chunk": k,
        "total_bits": 0.0,
        "total_stall_s": 0.0,
        "level_switches": 0,
        "sum_quality": 0.0,
        "sum_abs_quality_delta": 0.0,
        "low_quality_chunks": 0,
    }
    for size in expected.sizes_bits[:k].tolist():
        summary["total_bits"] += size
    # The live core adds the stall of an availability wait when the
    # wait starts (the fleet buckets stalls as they happen), so its
    # total folds the stall terms, not the per-chunk sums.
    for stall in stall_terms if live else expected.stall_s[:k].tolist():
        summary["total_stall_s"] += stall
    last = None
    for i, level in enumerate(levels):
        if last is not None and level != last:
            summary["level_switches"] += 1
        quality = rows[level][i]
        summary["sum_quality"] += quality
        if quality < 40.0:
            summary["low_quality_chunks"] += 1
        if i > 0:
            summary["sum_abs_quality_delta"] += abs(quality - rows[last][i - 1])
        last = level
    # Playback starts after the first chunk that fills the buffer to the
    # threshold, else when the last watched chunk lands.
    started = [i for i in range(k) if expected.buffer_after_s[i] >= threshold]
    if started:
        summary["startup_delay_s"] = float(expected.download_finish_s[started[0]])
    else:
        summary["startup_delay_s"] = float(expected.download_finish_s[k - 1]) if k else 0.0
    if live:
        summary["sum_latency_s"] = 0.0
        summary["peak_latency_s"] = 0.0
        for latency in expected.latency_s[:k].tolist():
            summary["sum_latency_s"] += latency
            summary["peak_latency_s"] = max(summary["peak_latency_s"], latency)
    return summary


def _summary(core, live):
    fields = [
        "chunk",
        "total_bits",
        "total_stall_s",
        "level_switches",
        "sum_quality",
        "sum_abs_quality_delta",
        "low_quality_chunks",
        "startup_delay_s",
    ]
    if live:
        fields += ["sum_latency_s", "peak_latency_s"]
    return {name: getattr(core, name) for name in fields}


@settings(max_examples=120, deadline=None)
@given(
    live=st.booleans(),
    scheme=st.sampled_from(SCHEMES),
    wrapped=st.booleans(),
    windowed=st.booleans(),
    num_chunks=st.integers(min_value=4, max_value=20),
    chunk_duration_s=st.sampled_from([2.0, 4.0]),
    rates=_trace_rates,
    interval_s=st.sampled_from([0.5, 1.0, 2.0]),
    vod_config=_vod_configs(),
    live_config=_live_configs,
    watch=st.one_of(st.none(), st.integers(min_value=0, max_value=22)),
    faults=_faults,
    recycled_from=st.sampled_from(SCHEMES),
)
# BOLA-E pauses only once the buffer passes ~30 s, which short random
# sessions rarely reach: one long, fast VoD session takes the pause (and
# its resume) behind the wrapper, on the method-path estimator, spiked.
@example(
    live=False,
    scheme="BOLA-E (peak)",
    wrapped=True,
    windowed=True,
    num_chunks=20,
    chunk_duration_s=4.0,
    rates=[5e6, 0.0, 8e6],
    interval_s=1.0,
    vod_config=SessionConfig(startup_latency_s=2.0, max_buffer_s=100.0),
    live_config=LiveSessionConfig(),
    watch=18,
    faults=(0.3, 0.25, 1),
    recycled_from="RBA",
)
# The same over a live edge whose latency budget is below one chunk.
@example(
    live=True,
    scheme="BOLA-E (peak)",
    wrapped=True,
    windowed=True,
    num_chunks=20,
    chunk_duration_s=4.0,
    rates=[5e6, 0.0, 8e6],
    interval_s=1.0,
    vod_config=SessionConfig(),
    live_config=LiveSessionConfig(startup_chunks=1, latency_budget_s=3.0),
    watch=18,
    faults=(0.3, 0.25, 1),
    recycled_from="CAVA",
)
def test_core_equals_reference(
    live,
    scheme,
    wrapped,
    windowed,
    num_chunks,
    chunk_duration_s,
    rates,
    interval_s,
    vod_config,
    live_config,
    watch,
    faults,
    recycled_from,
):
    video, rows = short_video(num_chunks, chunk_duration_s)
    manifest = video.manifest()
    trace = NetworkTrace("drawn", interval_s, np.asarray(rates))

    def link():
        if faults is None:
            return TraceLink(trace)
        p, spike_s, seed = faults
        return FaultedLink(TraceLink(trace), (LatencyFault(p=p, spike_s=spike_s),), seed)

    reference_algorithm = _algorithm(scheme, wrapped)
    if live:
        core_cls, config = LiveSessionCore, live_config
        threshold = config.startup_chunks * chunk_duration_s
        stall_terms = []
        expected = reference_live_session(
            reference_algorithm,
            manifest,
            link(),
            config,
            _estimator(windowed),
            stall_terms=stall_terms,
        )
    else:
        core_cls, config = VodSessionCore, vod_config
        threshold = config.startup_latency_s
        stall_terms = None
        expected = reference_vod_session(
            reference_algorithm, manifest, link(), config, _estimator(windowed)
        )
    k = num_chunks if watch is None else min(watch, num_chunks)
    if live:
        stall_terms = [term for i, term in stall_terms if i < k]

    # Per-chunk arrays: a recording core equals the reference's prefix.
    algorithm = _algorithm(scheme, wrapped)
    recorded = drive(
        core_cls(
            algorithm,
            manifest,
            config,
            _estimator(windowed),
            watch_chunks=watch,
            record_arrays=True,
        ),
        link(),
    )
    assert recorded.finished
    got = recorded.result()
    arrays = ("levels", "sizes_bits", "download_start_s", "download_finish_s")
    arrays += ("stall_s", "buffer_after_s")
    if live:
        arrays += ("availability_wait_s", "latency_s")
    else:
        arrays += ("idle_s", "requested_idle_s", "cap_idle_s")
    for name in arrays:
        assert np.array_equal(getattr(got, name), getattr(expected, name)[:k]), name
    if wrapped:
        # Every decision input, the bandwidth prediction included, in order.
        assert algorithm.log == reference_algorithm.log[: len(algorithm.log)]
        assert len(algorithm.log) >= k

    # The scalar summary a fleet core keeps, fresh and recycled.
    want = _expected_summary(expected, rows, k, live, stall_terms, threshold)
    fresh = drive(
        core_cls(
            _algorithm(scheme, wrapped),
            manifest,
            config,
            _estimator(windowed),
            watch_chunks=watch,
            quality_rows=rows,
        ),
        link(),
    )
    assert _summary(fresh, live) == want
    recycled = core_cls(
        make_scheme(recycled_from),
        manifest,
        config,
        _estimator(windowed),
        quality_rows=rows,
    )
    drive(recycled, TraceLink(NetworkTrace("other", 1.0, np.full(50, 3e6))))
    recycled.reset_for(_algorithm(scheme, wrapped), watch)
    drive(recycled, link())
    assert _summary(recycled, live) == want
