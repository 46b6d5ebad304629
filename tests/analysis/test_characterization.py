"""Tests for repro.analysis.characterization."""

import numpy as np
import pytest

from repro.analysis.characterization import (
    bitrate_variability_profile,
    characterize,
    quartile_quality_profile,
    quartile_siti_separation,
    scene_quality_consistency,
    size_complexity_correlation,
)
from repro.video.dataset import build_cbr_counterpart, build_video, standard_dataset_specs


class TestProfiles:
    def test_siti_fractions_are_probabilities(self, ed_ffmpeg_video):
        fractions = quartile_siti_separation(ed_ffmpeg_video)
        assert set(fractions) == {1, 2, 3, 4}
        assert all(0.0 <= v <= 1.0 for v in fractions.values())

    def test_quality_profile_keys(self, ed_ffmpeg_video):
        medians = quartile_quality_profile(ed_ffmpeg_video, "vmaf_tv")
        assert set(medians) == {1, 2, 3, 4}

    def test_quality_profile_respects_track_choice(self, ed_ffmpeg_video):
        low = quartile_quality_profile(ed_ffmpeg_video, "vmaf_phone", track_level=0)
        high = quartile_quality_profile(ed_ffmpeg_video, "vmaf_phone", track_level=5)
        assert high[1] > low[1]

    def test_variability_profile(self, ed_ffmpeg_video):
        profile = bitrate_variability_profile(ed_ffmpeg_video)
        assert len(profile["cov"]) == 6
        assert len(profile["peak_to_average"]) == 6
        assert all(r >= 1.0 for r in profile["peak_to_average"])

    def test_size_complexity_correlation_strong(self, ed_ffmpeg_video):
        assert size_complexity_correlation(ed_ffmpeg_video) > 0.7


class TestCharacterize:
    def test_summary_consistency(self, ed_ffmpeg_video):
        summary = characterize(ed_ffmpeg_video)
        assert summary.video_name == ed_ffmpeg_video.name
        assert summary.q4_quality_gap == pytest.approx(
            np.mean([summary.quality_medians[q] for q in (1, 2, 3)])
            - summary.quality_medians[4]
        )
        assert -1.0 <= summary.min_cross_track_correlation <= 1.0

    def test_metric_parameter(self, ed_ffmpeg_video):
        phone = characterize(ed_ffmpeg_video, metric="vmaf_phone")
        tv = characterize(ed_ffmpeg_video, metric="vmaf_tv")
        assert phone.quality_medians[1] != tv.quality_medians[1]


class TestSceneConsistency:
    def test_vbr_more_consistent_than_cbr(self):
        """§1's premise: at equal average bitrate, VBR holds quality more
        constant across scenes than CBR."""
        spec = next(s for s in standard_dataset_specs() if s.name == "ED-ffmpeg-h264")
        vbr = build_video(spec, seed=0)
        cbr = build_cbr_counterpart(spec, seed=0)
        assert scene_quality_consistency(vbr) < scene_quality_consistency(cbr)
