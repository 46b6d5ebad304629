"""Event-driven session cores vs the reference §6.1 loops.

:class:`VodSessionCore` and :class:`LiveSessionCore` are the only
per-chunk implementations of the player model: two mode classes over
one base that lands each chunk, decides and speaks the action protocol
for both, each adding only its between-chunks steps.
``StreamingSession.run`` and ``LiveStreamingSession.run`` drive them
over a private link through one loop, and the fleet simulator drives
thousands of them over shared bottlenecks. These tests pin both kinds
of driving, bitwise and for every registered scheme, to the plain loops
in :mod:`tests.player.reference` — a lone session on an uncontended
:class:`SharedLink` must be indistinguishable from a private
:class:`TraceLink` session. ``test_core_differential.py`` draws the
sessions at random instead.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.abr.registry import make_scheme, needs_quality_manifest, scheme_names
from repro.core.cava import cava_live
from repro.faults.plan import FaultedLink, LatencyFault
from repro.network.estimator import HarmonicMeanEstimator
from repro.network.link import MIN_DOWNLOAD_DURATION_S, TraceLink
from repro.player.core import DONE, FETCH, WAIT, LiveSessionCore, VodSessionCore
from repro.player.live import LiveSessionConfig, LiveStreamingSession
from repro.player.session import SessionConfig, StreamingSession
from tests.network.reference import ReferenceSharedLink
from tests.player.reference import reference_live_session, reference_vod_session

SCHEMES = scheme_names()
LIVE_CONFIG = LiveSessionConfig(latency_budget_s=24.0)


def manifest_for(scheme, video):
    return video.manifest(include_quality=needs_quality_manifest(scheme))


def drive(core, link, origin_s=0.0):
    """Minimal scheduler: one session against a private link."""
    now = origin_s
    action = core.begin(now)
    while action[0] != DONE:
        if action[0] == WAIT:
            now += action[1]
            action = core.on_wait_done(now)
        else:
            assert action[0] == FETCH
            result = link.download(action[1], now)
            now = result.finish_s
            action = core.on_fetch_done(now, result.start_s)
    return core


def drive_shared(core, shared):
    """Same session, but through the shared-bottleneck discipline."""
    action = core.begin(shared.now_s)
    while action[0] != DONE:
        if action[0] == WAIT:
            shared.advance_to(shared.now_s + action[1])
            action = core.on_wait_done(shared.now_s)
        else:
            shared.start("flow", action[1])
            finish, flow_id = shared.next_completion()
            assert flow_id == "flow"
            shared.advance_to(finish)
            shared.complete(flow_id)
            action = core.on_fetch_done(finish)
    return core


def assert_results_equal(actual, expected):
    """Every per-chunk array and the startup delay, bit for bit."""
    for field in dataclasses.fields(expected):
        if field.name in ("scheme", "video_name", "trace_name"):
            continue
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


class Forwarding:
    """A duck-typed algorithm: forwards everything to ``inner``.

    Its class defines none of the ABR hooks; they are bound per
    instance, like a timing or logging wrapper would bind them.
    """

    def __init__(self, inner):
        self._inner = inner
        for name in ("prepare", "select_level", "requested_idle_s", "notify_download"):
            setattr(self, name, getattr(inner, name))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestVodEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_core_matches_free_running_loop(self, scheme, short_video, one_lte_trace):
        manifest = manifest_for(scheme, short_video)
        expected = reference_vod_session(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace)
        )
        actual = StreamingSession().run(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace)
        )
        assert actual.trace_name == expected.trace_name
        assert_results_equal(actual, expected)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_core_on_uncontended_shared_link(self, scheme, short_video, one_lte_trace):
        """A lone flow on a SharedLink is bit-identical to a private link."""
        manifest = manifest_for(scheme, short_video)
        expected = reference_vod_session(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace)
        )
        core = VodSessionCore(make_scheme(scheme), manifest, record_arrays=True)
        drive_shared(core, ReferenceSharedLink(TraceLink(one_lte_trace)))
        assert core.finished
        assert_results_equal(core.result(), expected)

    @pytest.mark.parametrize("scheme", ["CAVA", "BOLA-E (peak)", "RobustMPC"])
    def test_latency_faults(self, scheme, short_video, one_lte_trace):
        """Spiked, elongated downloads reach the core with an explicit
        ``transfer_start_s``, as the fleet passes one."""

        def faulted():
            faults = (LatencyFault(p=0.3, spike_s=0.8),)
            return FaultedLink(TraceLink(one_lte_trace), faults, seed=5)

        manifest = manifest_for(scheme, short_video)
        expected = reference_vod_session(make_scheme(scheme), manifest, faulted())
        actual = StreamingSession().run(make_scheme(scheme), manifest, faulted())
        assert_results_equal(actual, expected)
        spiked = [faulted().delay_at(s) > 0 for s in expected.download_start_s]
        assert any(spiked)

    def test_custom_config_respected(self, short_video, one_lte_trace):
        manifest = short_video.manifest()
        config = SessionConfig(startup_latency_s=4.0, max_buffer_s=20.0)
        expected = reference_vod_session(
            make_scheme("CAVA"), manifest, TraceLink(one_lte_trace), config
        )
        actual = StreamingSession(config).run(
            make_scheme("CAVA"), manifest, TraceLink(one_lte_trace)
        )
        assert_results_equal(actual, expected)

    def test_watch_limit_truncates(self, short_video, one_lte_trace):
        manifest = short_video.manifest()
        core = VodSessionCore(
            make_scheme("RBA"), manifest, watch_chunks=7, record_arrays=True
        )
        drive(core, TraceLink(one_lte_trace))
        assert core.chunk == 7
        assert core.result().num_chunks == 7
        # The truncated prefix matches the full session's first 7 chunks.
        full = reference_vod_session(
            make_scheme("RBA"), manifest, TraceLink(one_lte_trace)
        )
        assert np.array_equal(core.result().levels, full.levels[:7])

    def test_nonzero_origin_shifts_absolute_times_only(self, short_video):
        """A session anchored at t=1000 behaves like one at t=0 on a
        time-invariant (constant) link: all ABR-visible clocks are
        session-relative."""
        from repro.network.traces import NetworkTrace

        trace = NetworkTrace("const", 1.0, np.full(4000, 3e6))
        manifest = short_video.manifest()

        core0, core1 = (
            drive(
                VodSessionCore(make_scheme("CAVA"), manifest, record_arrays=True),
                TraceLink(trace),
                origin_s,
            )
            for origin_s in (0.0, 1000.0)
        )
        assert np.array_equal(core0.result().levels, core1.result().levels)
        assert core0.total_stall_s == pytest.approx(core1.total_stall_s)

    def test_zero_watch_chunks_finishes_immediately(self, short_video):
        core = VodSessionCore(
            make_scheme("RBA"), short_video.manifest(), watch_chunks=0
        )
        assert core.begin(5.0) == (DONE,)
        assert core.finished
        assert core.chunk == 0


class TestDuckTypedAlgorithm:
    """A forwarding wrapper streams exactly like the algorithm it wraps."""

    @pytest.mark.parametrize("scheme", ["RBA", "BOLA-E (peak)", "RobustMPC"])
    def test_wrapper_through_session_and_core(self, scheme, short_video, one_lte_trace):
        manifest = short_video.manifest()
        expected = reference_vod_session(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace)
        )
        actual = StreamingSession().run(
            Forwarding(make_scheme(scheme)), manifest, TraceLink(one_lte_trace)
        )
        assert_results_equal(actual, expected)

        core = VodSessionCore(
            Forwarding(make_scheme(scheme)), manifest, record_arrays=True
        )
        drive(core, TraceLink(one_lte_trace))
        assert_results_equal(core.result(), expected)

    def test_pooled_core_accepts_wrapper(self, short_video, one_lte_trace):
        manifest = short_video.manifest()
        plain = drive(
            VodSessionCore(make_scheme("BOLA-E (peak)"), manifest),
            TraceLink(one_lte_trace),
        )
        pooled = VodSessionCore(make_scheme("RBA"), manifest)
        pooled.reset_for(Forwarding(make_scheme("BOLA-E (peak)")), None)
        drive(pooled, TraceLink(one_lte_trace))
        assert pooled.total_bits == plain.total_bits
        assert pooled.total_stall_s == plain.total_stall_s
        assert pooled.startup_delay_s == plain.startup_delay_s


class TestLiveEquivalence:
    @pytest.mark.parametrize(
        "algorithm_factory",
        [
            lambda video: cava_live(10, video.chunk_duration_s, 24.0),
            lambda video: make_scheme("RBA"),
        ],
    )
    def test_core_matches_free_running_loop(
        self, algorithm_factory, short_video, one_lte_trace
    ):
        """The summary a fleet core keeps agrees with the reference."""
        manifest = short_video.manifest()
        expected = reference_live_session(
            algorithm_factory(short_video), manifest, TraceLink(one_lte_trace), LIVE_CONFIG
        )
        core = LiveSessionCore(
            algorithm_factory(short_video), manifest, config=LIVE_CONFIG
        )
        drive(core, TraceLink(one_lte_trace))
        assert core.chunk == expected.num_chunks
        assert core.total_stall_s == expected.total_stall_s
        assert core.startup_delay_s == expected.startup_delay_s
        assert core.sum_latency_s == pytest.approx(float(expected.latency_s.sum()))
        assert core.peak_latency_s == expected.peak_latency_s
        assert core.total_bits == expected.data_usage_bits

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_driver_matches_reference_loop(self, scheme, short_video, one_lte_trace):
        manifest = manifest_for(scheme, short_video)
        expected = reference_live_session(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace), LIVE_CONFIG
        )
        actual = LiveStreamingSession(LIVE_CONFIG).run(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace)
        )
        assert actual.trace_name == expected.trace_name
        assert_results_equal(actual, expected)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_core_on_uncontended_shared_link(self, scheme, short_video, one_lte_trace):
        manifest = manifest_for(scheme, short_video)
        expected = reference_live_session(
            make_scheme(scheme), manifest, TraceLink(one_lte_trace), LIVE_CONFIG
        )
        core = LiveSessionCore(
            make_scheme(scheme), manifest, config=LIVE_CONFIG, record_arrays=True
        )
        drive_shared(core, ReferenceSharedLink(TraceLink(one_lte_trace)))
        assert core.finished
        assert_results_equal(core.result(), expected)

    def test_live_watch_limit(self, short_video, one_lte_trace):
        manifest = short_video.manifest()
        core = LiveSessionCore(make_scheme("RBA"), manifest, watch_chunks=5)
        drive(core, TraceLink(one_lte_trace))
        assert core.chunk == 5

    def test_result_requires_recording(self, short_video):
        core = LiveSessionCore(make_scheme("RBA"), short_video.manifest())
        with pytest.raises(ValueError, match="record_arrays"):
            core.result()


class TestObservedDuration:
    """The landing step's duration floor: VoD floors the observed
    download duration at ``MIN_DOWNLOAD_DURATION_S``, live observes it
    raw, and either estimator path validates what it observes alike."""

    @pytest.fixture(params=[False, True], ids=["inlined", "method"])
    def estimator(self, request):
        return HarmonicMeanEstimator(window=10) if request.param else None

    @pytest.mark.parametrize(
        "finish_s, start_s, message",
        [(0.0, 0.0, "got 0.0"), (1.0, 2.0, "got -1.0")],
    )
    def test_live_rejects_non_positive_duration(
        self, short_video, estimator, finish_s, start_s, message
    ):
        core = LiveSessionCore(make_scheme("RBA"), short_video.manifest(), estimator=estimator)
        assert core.begin(0.0)[0] == FETCH
        with pytest.raises(ValueError, match=f"duration_s must be positive, {message}"):
            core.on_fetch_done(finish_s, start_s)

    def test_vod_floors_non_positive_duration(self, short_video, estimator):
        core = VodSessionCore(make_scheme("RBA"), short_video.manifest(), estimator=estimator)
        core.begin(0.0)
        core.on_fetch_done(1.0, 2.0)  # a -1 s download, before playback
        assert core.chunk == 1
        sample = core.total_bits / MIN_DOWNLOAD_DURATION_S
        assert core.estimator.predict_bps(1.0) == 1 / (1.0 / sample)

    @pytest.mark.parametrize("finish_s", [math.inf, math.nan])
    def test_vod_rejects_non_finite_duration(self, short_video, estimator, finish_s):
        core = VodSessionCore(make_scheme("RBA"), short_video.manifest(), estimator=estimator)
        core.begin(0.0)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            core.on_fetch_done(finish_s)


class TestQualityAccounting:
    def test_quality_sums_match_table(self, short_video, one_lte_trace):
        manifest = short_video.manifest()
        rows = np.stack([t.qualities["vmaf_phone"] for t in short_video.tracks])
        core = VodSessionCore(
            make_scheme("RBA"), manifest, quality_rows=rows, record_arrays=True
        )
        drive(core, TraceLink(one_lte_trace))
        levels = core.result().levels
        chosen = rows[levels, np.arange(levels.size)]
        assert core.sum_quality == pytest.approx(chosen.sum())
        assert core.low_quality_chunks == int((chosen < 40.0).sum())
        assert core.sum_abs_quality_delta == pytest.approx(
            np.abs(np.diff(chosen)).sum()
        )
        assert core.mean_quality == pytest.approx(chosen.mean())
