"""Tests for live streaming (§8 future work, implemented)."""

import dataclasses

import numpy as np
import pytest

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.core.cava import cava_live, cava_p123
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from repro.player.live import (
    LiveSessionConfig,
    LiveSessionResult,
    LiveStreamingSession,
    run_live_session,
)


class FixedLevelAlgorithm(ABRAlgorithm):
    def __init__(self, level):
        self.level = level
        self.name = f"fixed-{level}"

    def select_level(self, ctx: DecisionContext) -> int:
        return self.level


def constant_trace(mbps, duration_s=2000.0):
    return NetworkTrace(f"const-{mbps}", 1.0, np.full(int(duration_s), mbps * 1e6))


class TestAvailability:
    def test_player_waits_at_live_edge(self, short_video):
        """On a very fast link the player is gated by chunk production:
        the session takes about as long as the broadcast itself."""
        result = run_live_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(100.0))
        )
        assert result.availability_wait_s.sum() > 0.5 * short_video.duration_s
        assert result.download_finish_s[-1] >= (short_video.num_chunks - 1) * 2.0

    def test_chunk_never_downloaded_before_produced(self, short_video):
        result = run_live_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(100.0))
        )
        delta = short_video.chunk_duration_s
        for i in range(result.num_chunks):
            assert result.download_start_s[i] >= i * delta - 1e-9


class TestLatency:
    def test_latency_nonnegative_and_bounded(self, short_video):
        config = LiveSessionConfig(latency_budget_s=20.0)
        result = run_live_session(
            cava_live(10, short_video.chunk_duration_s, 20.0),
            short_video,
            TraceLink(constant_trace(10.0)),
            config,
        )
        assert np.all(result.latency_s >= 0)
        # Latency stays within budget + a couple of chunks of slack.
        assert result.peak_latency_s <= 20.0 + 3 * short_video.chunk_duration_s

    def test_slow_link_grows_latency(self, short_video):
        """A link slower than the broadcast bitrate forces stalls, which
        push playback further behind the live edge."""
        fast = run_live_session(
            FixedLevelAlgorithm(2), short_video, TraceLink(constant_trace(10.0))
        )
        slow = run_live_session(
            FixedLevelAlgorithm(2), short_video, TraceLink(constant_trace(0.35))
        )
        assert slow.mean_latency_s > fast.mean_latency_s
        assert slow.total_stall_s > 0

    def test_buffer_bounded_by_latency_budget(self, short_video):
        config = LiveSessionConfig(latency_budget_s=12.0)
        result = run_live_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(50.0)), config
        )
        assert result.buffer_after_s.max() <= 12.0 + 1e-6


class TestStartup:
    def test_startup_never_reached_starts_at_last_download(self, short_video):
        """Regression: a broadcast shorter than ``startup_chunks`` reported
        a 0.0 startup delay; like VoD, playback starts when the last
        download completes."""
        full = short_video.manifest()
        manifest = dataclasses.replace(
            full, chunk_sizes_bits=full.chunk_sizes_bits[:, :2]
        )
        config = LiveSessionConfig(startup_chunks=3)
        result = LiveStreamingSession(config).run(
            FixedLevelAlgorithm(0), manifest, TraceLink(constant_trace(10.0))
        )
        assert result.num_chunks == 2
        assert result.startup_delay_s > 0.0
        assert result.startup_delay_s == result.download_finish_s[-1]

    def test_invalid_level_names_chunk_and_range(self, short_video):
        manifest = short_video.manifest()
        with pytest.raises(
            ValueError,
            match=rf"fixed-99 selected invalid level 99 for chunk 0 "
            rf"\(valid: 0\.\.{manifest.num_tracks - 1}\)",
        ):
            LiveStreamingSession().run(
                FixedLevelAlgorithm(99), manifest, TraceLink(constant_trace(10.0))
            )


class TestCavaLive:
    def test_windows_clamped_to_lookahead(self, short_video):
        algorithm = cava_live(lookahead_chunks=5, chunk_duration_s=2.0)
        assert algorithm.config.inner_window_s <= 10.0
        assert algorithm.config.outer_window_s <= 10.0
        assert algorithm.config.horizon_chunks <= 5

    def test_target_bounded_by_latency_budget(self):
        algorithm = cava_live(10, 2.0, latency_budget_s=20.0)
        assert algorithm.config.base_target_buffer_s <= 12.0

    def test_live_session_runs_clean(self, short_video, one_lte_trace):
        algorithm = cava_live(10, short_video.chunk_duration_s, 24.0)
        result = run_live_session(
            algorithm, short_video, TraceLink(one_lte_trace),
            LiveSessionConfig(latency_budget_s=24.0),
        )
        assert result.num_chunks == short_video.num_chunks
        assert result.scheme == "CAVA-live"

    def test_live_cava_lower_latency_than_vod_cava(self, short_video, one_lte_trace):
        """The point of the adaptation: VoD CAVA's 60 s target drags a
        minute behind the live edge; live CAVA stays close."""
        config = LiveSessionConfig(latency_budget_s=60.0)
        vod = run_live_session(
            cava_p123(), short_video, TraceLink(one_lte_trace), config
        )
        live = run_live_session(
            cava_live(10, short_video.chunk_duration_s, 24.0),
            short_video,
            TraceLink(one_lte_trace),
            config,
        )
        # Same session rules; the live-tuned controller holds less backlog.
        assert live.buffer_after_s.mean() <= vod.buffer_after_s.mean() + 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            cava_live(0, 2.0)
        with pytest.raises(ValueError):
            cava_live(5, -1.0)
        with pytest.raises(ValueError):
            cava_live(5, 2.0, latency_budget_s=0.0)


class TestConfigValidation:
    def test_bad_startup_chunks(self):
        with pytest.raises(ValueError):
            LiveSessionConfig(startup_chunks=0)

    def test_bad_lookahead(self):
        with pytest.raises(ValueError):
            LiveSessionConfig(lookahead_chunks=-1)


class TestConfigAliasing:
    """Regression: ``config=LiveSessionConfig()`` as a literal default is
    evaluated once at definition time, so every default-constructed
    session shared (aliased) one config instance."""

    def test_default_sessions_do_not_share_a_config(self):
        first = LiveStreamingSession()
        second = LiveStreamingSession()
        assert first.config is not second.config

    def test_sessions_with_distinct_configs_do_not_alias(self):
        default = LiveStreamingSession()
        custom = LiveStreamingSession(LiveSessionConfig(startup_chunks=3))
        assert custom.config is not default.config
        assert default.config.startup_chunks == 2
        assert custom.config.startup_chunks == 3

    def test_vod_sessions_do_not_share_a_config(self):
        from repro.player.session import StreamingSession

        assert StreamingSession().config is not StreamingSession().config


def _empty_live_result():
    empty_f = np.zeros(0, dtype=float)
    return LiveSessionResult(
        scheme="fixed-0",
        video_name="none",
        trace_name="none",
        levels=np.zeros(0, dtype=int),
        sizes_bits=empty_f,
        download_start_s=empty_f,
        download_finish_s=empty_f,
        stall_s=empty_f,
        buffer_after_s=empty_f,
        availability_wait_s=empty_f,
        latency_s=empty_f,
        startup_delay_s=0.0,
    )


class TestEmptySession:
    """Regression: mean/peak latency on a zero-chunk session raised
    ``ValueError`` (np.max) or returned NaN with a RuntimeWarning."""

    def test_zero_chunk_latency_metrics_are_defined(self):
        result = _empty_live_result()
        assert result.num_chunks == 0
        with np.errstate(all="raise"):
            assert result.mean_latency_s == 0.0
            assert result.peak_latency_s == 0.0

    def test_zero_chunk_metrics_emit_no_warnings(self):
        import warnings

        result = _empty_live_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.mean_latency_s == 0.0
            assert result.peak_latency_s == 0.0
            assert result.total_stall_s == 0.0
            assert result.data_usage_bits == 0.0
