"""Tests for MPC and RobustMPC."""

import numpy as np
import pytest

from repro.abr.base import DecisionContext
from repro.abr.horizon import level_sequences
from repro.abr.mpc import MPCAlgorithm, RobustMPCAlgorithm, _survivor_plans
from repro.network.link import TraceLink
from repro.player.session import run_session
from tests.player.test_lockstep import short_video


def ctx(index=0, buffer_s=20.0, bandwidth=2e6, last=None):
    return DecisionContext(
        chunk_index=index, now_s=0.0, buffer_s=buffer_s, last_level=last,
        bandwidth_bps=bandwidth, playing=True,
    )


class TestMPC:
    def test_generous_bandwidth_tops_out(self, ed_ffmpeg_video):
        algorithm = MPCAlgorithm()
        algorithm.prepare(ed_ffmpeg_video.manifest())
        assert algorithm.select_level(ctx(bandwidth=100e6, buffer_s=40.0)) == 5

    def test_starved_bandwidth_bottoms_out(self, ed_ffmpeg_video):
        algorithm = MPCAlgorithm()
        algorithm.prepare(ed_ffmpeg_video.manifest())
        assert algorithm.select_level(ctx(bandwidth=5e4, buffer_s=4.0)) == 0

    def test_smoothness_weight_reduces_switching(self, ed_ffmpeg_video, one_lte_trace):
        smooth = MPCAlgorithm(smoothness_weight=20.0)
        jumpy = MPCAlgorithm(smoothness_weight=0.0)
        r_smooth = run_session(smooth, ed_ffmpeg_video, TraceLink(one_lte_trace))
        r_jumpy = run_session(jumpy, ed_ffmpeg_video, TraceLink(one_lte_trace))
        switches = lambda r: int(np.count_nonzero(np.diff(r.levels)))
        assert switches(r_smooth) <= switches(r_jumpy)

    def test_end_of_video_truncated_horizon(self, ed_ffmpeg_video):
        algorithm = MPCAlgorithm(horizon=5)
        manifest = ed_ffmpeg_video.manifest()
        algorithm.prepare(manifest)
        # Must not raise on the last chunk.
        level = algorithm.select_level(ctx(index=manifest.num_chunks - 1, bandwidth=2e6))
        assert 0 <= level < 6

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            MPCAlgorithm(horizon=0)


class TestRobustMPC:
    def test_discount_grows_with_errors(self, ed_ffmpeg_video):
        algorithm = RobustMPCAlgorithm()
        algorithm.prepare(ed_ffmpeg_video.manifest())
        # Feed a large prediction error: predicted 10 Mbps, actual 1 Mbps.
        algorithm._predicted_bandwidth(ctx(bandwidth=10e6))
        algorithm.notify_download(0, 3, size_bits=1e6, download_s=1.0, buffer_s=10.0, now_s=2.0)
        discounted = algorithm._predicted_bandwidth(ctx(bandwidth=10e6))
        assert discounted < 10e6 / 5  # error was 9x

    def test_no_errors_no_discount(self, ed_ffmpeg_video):
        algorithm = RobustMPCAlgorithm()
        algorithm.prepare(ed_ffmpeg_video.manifest())
        assert algorithm._predicted_bandwidth(ctx(bandwidth=4e6)) == pytest.approx(4e6)

    def test_more_conservative_than_mpc(self, ed_ffmpeg_video, lte_traces):
        """§6.3: MPC can have significantly more rebuffering than
        RobustMPC under volatile bandwidth."""
        mpc_stall = 0.0
        robust_stall = 0.0
        for trace in lte_traces[:8]:
            link = TraceLink(trace)
            mpc_stall += run_session(MPCAlgorithm(), ed_ffmpeg_video, link).total_stall_s
            robust_stall += run_session(
                RobustMPCAlgorithm(), ed_ffmpeg_video, link
            ).total_stall_s
        assert robust_stall <= mpc_stall

    def test_prepare_resets_errors(self, ed_ffmpeg_video):
        algorithm = RobustMPCAlgorithm()
        algorithm.prepare(ed_ffmpeg_video.manifest())
        algorithm._predicted_bandwidth(ctx(bandwidth=10e6))
        algorithm.notify_download(0, 3, 1e6, 1.0, 10.0, 2.0)
        algorithm.prepare(ed_ffmpeg_video.manifest())
        assert algorithm._predicted_bandwidth(ctx(bandwidth=10e6)) == pytest.approx(10e6)


class TestSurvivorPlans:
    """The batch decider argmaxes over :func:`_survivor_plans` only, so
    a pruned plan must lose to an earlier plan under *every* base row
    the scores are built on, with those rows' exact floating-point
    values: a dominator that wins only in real arithmetic can round an
    ulp below the plan it prunes."""

    @pytest.mark.parametrize("h", [2, 5])
    @pytest.mark.parametrize("ladder", ["short-13x4", "ED-ffmpeg-h264"])
    def test_every_pruned_plan_has_a_dominator_under_every_row(
        self, ed_ffmpeg_video, ladder, h
    ):
        video = ed_ffmpeg_video if ladder == "ED-ffmpeg-h264" else short_video(13, 4.0)
        manifest = video.manifest()
        algorithm = MPCAlgorithm()
        algorithm.prepare(manifest)
        first, rows = algorithm._score_rows(h)
        plans = _survivor_plans(algorithm._utilities_key, algorithm.smoothness_weight, h)
        tails = level_sequences(manifest.num_tracks, h)[:, 1:]
        assert 0 < plans.size < first.size
        for level in range(manifest.num_tracks):
            group = np.nonzero(first == level)[0]
            # may_dominate[a, b]: plan a is earlier and never higher after step 0.
            may_dominate = (tails[group][:, None] <= tails[group][None]).all(axis=2)
            may_dominate &= group[:, None] < group[None, :]
            for previous, row in enumerate(rows):
                scores = row[group]
                covered = (may_dominate & (scores[:, None] >= scores[None, :])).any(axis=0)
                lost = np.setdiff1d(group[~covered], plans)
                assert lost.size == 0, (
                    f"row {previous}: plans {lost[:5].tolist()} pruned with no dominator"
                )
