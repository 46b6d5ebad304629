"""Tests for repro.player.session: the streaming-session simulator."""

import numpy as np
import pytest

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from repro.player.session import SessionConfig, run_session


class FixedLevelAlgorithm(ABRAlgorithm):
    """Test double: always picks the same level."""

    def __init__(self, level: int):
        self.level = level
        self.name = f"fixed-{level}"
        self.contexts = []

    def select_level(self, ctx: DecisionContext) -> int:
        # A context is valid only during the call (the player rewrites
        # one object per decision), so keep a frozen copy of its fields.
        self.contexts.append(
            DecisionContext(
                chunk_index=ctx.chunk_index,
                now_s=ctx.now_s,
                buffer_s=ctx.buffer_s,
                last_level=ctx.last_level,
                bandwidth_bps=ctx.bandwidth_bps,
                playing=ctx.playing,
            )
        )
        return self.level


class PausingAlgorithm(FixedLevelAlgorithm):
    """Requests a fixed idle before every chunk."""

    def __init__(self, level: int, idle_s: float):
        super().__init__(level)
        self.idle_s = idle_s

    def requested_idle_s(self, ctx: DecisionContext) -> float:
        return self.idle_s


def constant_trace(mbps: float, duration_s: float = 2000.0) -> NetworkTrace:
    n = int(duration_s)
    return NetworkTrace(f"const-{mbps}", 1.0, np.full(n, mbps * 1e6))


class TestBasicSession:
    def test_streams_every_chunk(self, short_video):
        result = run_session(FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(5.0)))
        assert result.num_chunks == short_video.num_chunks
        assert np.all(result.levels == 0)

    def test_no_stall_on_fast_link(self, short_video):
        result = run_session(FixedLevelAlgorithm(5), short_video, TraceLink(constant_trace(50.0)))
        assert result.total_stall_s == 0.0

    def test_stalls_on_slow_link(self, short_video):
        """Top track (~5 Mbps) over a 0.2 Mbps link must stall."""
        result = run_session(FixedLevelAlgorithm(5), short_video, TraceLink(constant_trace(0.2)))
        assert result.total_stall_s > 0.0

    def test_lowest_track_survives_modest_link(self, short_video):
        result = run_session(FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(0.5)))
        assert result.total_stall_s == 0.0

    def test_data_usage_matches_chosen_sizes(self, short_video):
        result = run_session(FixedLevelAlgorithm(2), short_video, TraceLink(constant_trace(10.0)))
        expected = float(np.sum(short_video.track(2).chunk_sizes_bits))
        assert result.data_usage_bits == pytest.approx(expected)

    def test_monotone_timestamps(self, short_video):
        result = run_session(FixedLevelAlgorithm(3), short_video, TraceLink(constant_trace(3.0)))
        assert np.all(np.diff(result.download_finish_s) > 0)
        assert np.all(result.download_finish_s >= result.download_start_s)


class TestStartup:
    def test_startup_delay_recorded(self, short_video):
        config = SessionConfig(startup_latency_s=10.0)
        result = run_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(5.0)), config
        )
        # 10 s of video at level 0 must be downloaded before playback.
        assert result.startup_delay_s > 0.0

    def test_no_stall_during_startup(self, short_video):
        """Pre-playback downloads never count as rebuffering."""
        config = SessionConfig(startup_latency_s=20.0)
        result = run_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(1.0)), config
        )
        # The first chunks are downloaded before playback starts.
        delta = short_video.chunk_duration_s
        pre_playback = int(np.ceil(20.0 / delta))
        assert np.all(result.stall_s[:pre_playback] == 0.0)

    def test_startup_cannot_exceed_max_buffer(self):
        with pytest.raises(ValueError):
            SessionConfig(startup_latency_s=200.0, max_buffer_s=100.0)


class TestBufferCap:
    def test_buffer_never_exceeds_cap(self, short_video):
        config = SessionConfig(max_buffer_s=30.0, startup_latency_s=10.0)
        result = run_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(50.0)), config
        )
        assert result.buffer_after_s.max() <= 30.0 + 1e-9

    def test_idle_recorded_when_capped(self, short_video):
        config = SessionConfig(max_buffer_s=20.0, startup_latency_s=10.0)
        result = run_session(
            FixedLevelAlgorithm(0), short_video, TraceLink(constant_trace(50.0)), config
        )
        assert result.idle_s.sum() > 0.0


class TestRequestedIdle:
    def test_pause_consumes_buffer(self, short_video):
        fast = TraceLink(constant_trace(50.0))
        eager = run_session(FixedLevelAlgorithm(0), short_video, fast)
        lazy = run_session(PausingAlgorithm(0, idle_s=1.0), short_video, fast)
        assert lazy.session_duration_s > eager.session_duration_s

    def test_pause_never_causes_stall(self, short_video):
        """The session clips requested idles at one chunk of buffer."""
        result = run_session(
            PausingAlgorithm(0, idle_s=1e6), short_video, TraceLink(constant_trace(5.0))
        )
        assert result.total_stall_s == 0.0


class TestContextContents:
    def test_contexts_are_well_formed(self, short_video):
        algorithm = FixedLevelAlgorithm(1)
        run_session(algorithm, short_video, TraceLink(constant_trace(5.0)))
        contexts = algorithm.contexts
        assert len(contexts) == short_video.num_chunks
        assert contexts[0].chunk_index == 0
        assert contexts[0].last_level is None
        assert all(c.buffer_s >= 0 for c in contexts)
        assert all(c.bandwidth_bps > 0 for c in contexts)
        assert contexts[1].last_level == 1

    def test_invalid_level_rejected(self, short_video):
        class BadAlgorithm(ABRAlgorithm):
            name = "bad"

            def select_level(self, ctx):
                return 99

        with pytest.raises(ValueError, match="invalid level"):
            run_session(BadAlgorithm(), short_video, TraceLink(constant_trace(5.0)))


class TestDeterminism:
    def test_repeatable(self, short_video, one_lte_trace):
        a = run_session(FixedLevelAlgorithm(2), short_video, TraceLink(one_lte_trace))
        b = run_session(FixedLevelAlgorithm(2), short_video, TraceLink(one_lte_trace))
        assert np.array_equal(a.download_finish_s, b.download_finish_s)
        assert a.total_stall_s == b.total_stall_s
