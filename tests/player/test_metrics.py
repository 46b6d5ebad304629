"""Tests for repro.player.metrics: the five §6.1 QoE metrics."""

import dataclasses

import numpy as np
import pytest

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from repro.player.metrics import (
    LOW_QUALITY_VMAF,
    metric_for_network,
    quality_series,
    summarize_session,
)
from repro.player.session import run_session
from repro.video.classify import ChunkClassifier


class FixedLevelAlgorithm(ABRAlgorithm):
    def __init__(self, level):
        self.level = level
        self.name = f"fixed-{level}"

    def select_level(self, ctx: DecisionContext) -> int:
        return self.level


def fast_link():
    return TraceLink(NetworkTrace("fast", 1.0, np.full(2000, 50e6)))


@pytest.fixture(scope="module")
def fixed_result(short_video_module):
    return run_session(FixedLevelAlgorithm(3), short_video_module, fast_link())


@pytest.fixture(scope="module")
def short_video_module(request):
    return request.getfixturevalue("short_video")


class TestMetricForNetwork:
    def test_convention(self):
        assert metric_for_network("lte") == "vmaf_phone"
        assert metric_for_network("fcc") == "vmaf_tv"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            metric_for_network("5g")


class TestQualitySeries:
    def test_matches_ground_truth_for_fixed_level(self, short_video, fixed_result):
        series = quality_series(fixed_result, short_video, "vmaf_phone")
        expected = short_video.track(3).qualities["vmaf_phone"]
        assert np.allclose(series, expected)

    def test_length_mismatch_rejected(self, short_video, ed_ffmpeg_video, fixed_result):
        with pytest.raises(ValueError, match="chunks"):
            quality_series(fixed_result, ed_ffmpeg_video, "vmaf_phone")

    @pytest.mark.parametrize("metric", ["vmaf_phone", "vmaf_tv"])
    def test_gather_equals_per_chunk_loop(self, short_video, fixed_result, metric):
        """The one-gather join equals a per-chunk item store bit for bit,
        on levels that visit the bottom and top tracks."""
        n = fixed_result.num_chunks
        top = short_video.num_tracks - 1
        levels = np.random.default_rng(5).integers(0, top + 1, size=n)
        levels[:2] = (0, top)
        levels[-2:] = (top, 0)
        result = dataclasses.replace(fixed_result, levels=levels)
        expected = np.empty(n, dtype=float)
        for i, level in enumerate(levels):
            expected[i] = short_video.track(level).qualities[metric][i]
        series = quality_series(result, short_video, metric)
        assert series.dtype == expected.dtype
        assert series.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("metric", ["vmaf_phone", "vmaf_tv"])
    def test_quality_table_is_one_read_only_stack(self, short_video, fixed_result, metric):
        """The per-video table is stacked once, shared and read-only; the
        joined series is a fresh copy the caller may write."""
        table = short_video.quality_table(metric)
        assert table is short_video.quality_table(metric)
        assert not table.flags.writeable
        stacked = np.stack([track.qualities[metric] for track in short_video.tracks])
        assert table.tobytes() == stacked.tobytes()
        series = quality_series(fixed_result, short_video, metric)
        assert series.flags.writeable
        assert not np.shares_memory(series, table)


class TestSummarizeSession:
    def test_q4_vs_q13_definition(self, short_video, fixed_result):
        classifier = ChunkClassifier.from_video(short_video)
        metrics = summarize_session(fixed_result, short_video, "vmaf_phone", classifier)
        series = quality_series(fixed_result, short_video, "vmaf_phone")
        q4 = classifier.categories == 4
        assert metrics.q4_quality_mean == pytest.approx(float(np.mean(series[q4])))
        assert metrics.q13_quality_mean == pytest.approx(float(np.mean(series[~q4])))

    def test_low_quality_fraction(self, short_video):
        result = run_session(FixedLevelAlgorithm(0), short_video, fast_link())
        metrics = summarize_session(result, short_video, "vmaf_tv")
        series = quality_series(result, short_video, "vmaf_tv")
        assert metrics.low_quality_fraction == pytest.approx(
            float(np.mean(series < LOW_QUALITY_VMAF))
        )
        # 144p on a TV screen is low quality nearly everywhere.
        assert metrics.low_quality_fraction > 0.5

    def test_quality_change_definition(self, short_video, fixed_result):
        metrics = summarize_session(fixed_result, short_video, "vmaf_phone")
        series = quality_series(fixed_result, short_video, "vmaf_phone")
        assert metrics.quality_change_per_chunk == pytest.approx(
            float(np.mean(np.abs(np.diff(series))))
        )

    def test_data_usage_megabytes(self, short_video, fixed_result):
        metrics = summarize_session(fixed_result, short_video, "vmaf_phone")
        assert metrics.data_usage_mb == pytest.approx(
            fixed_result.data_usage_bits / 8e6
        )

    def test_fixed_level_has_zero_switches(self, short_video, fixed_result):
        metrics = summarize_session(fixed_result, short_video, "vmaf_phone")
        assert metrics.level_switches == 0
        assert metrics.mean_level == pytest.approx(3.0)

    def test_as_dict_complete(self, short_video, fixed_result):
        metrics = summarize_session(fixed_result, short_video, "vmaf_phone")
        data = metrics.as_dict()
        assert "q4_quality_mean" in data and "data_usage_mb" in data
        assert len(data) == 11


class TestCompositeQoe:
    def test_penalties_reduce_score(self, short_video, fixed_result):
        from repro.player.metrics import QoeWeights, composite_qoe

        metrics = summarize_session(fixed_result, short_video, "vmaf_phone")
        base = composite_qoe(metrics, QoeWeights(0.0, 0.0, 0.0))
        assert base == pytest.approx(metrics.mean_quality)
        full = composite_qoe(metrics)
        assert full <= base

    def test_weights_validation(self):
        from repro.player.metrics import QoeWeights

        with pytest.raises(ValueError):
            QoeWeights(rebuffer_per_s=-1.0)

    def test_ranks_cava_above_mpc_on_volatile_traces(
        self, ed_ffmpeg_video, ed_classifier, lte_traces
    ):
        from repro.abr.registry import make_scheme
        from repro.network.link import TraceLink
        from repro.player.metrics import composite_qoe
        from repro.player.session import run_session

        scores = {"CAVA": [], "MPC": []}
        for trace in lte_traces[:5]:
            for scheme in scores:
                result = run_session(
                    make_scheme(scheme), ed_ffmpeg_video, TraceLink(trace)
                )
                metrics = summarize_session(
                    result, ed_ffmpeg_video, "vmaf_phone", ed_classifier
                )
                scores[scheme].append(composite_qoe(metrics))
        assert np.mean(scores["CAVA"]) > np.mean(scores["MPC"])
