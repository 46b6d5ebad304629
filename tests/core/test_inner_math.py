"""Eq. (3) computed by hand vs the InnerController's objective."""

import numpy as np
import pytest

from repro.core.config import CavaConfig
from repro.core.filters import short_term_bitrates, window_chunks
from repro.video.classify import ChunkClassifier
from tests.core.reference import ReferenceInnerController


@pytest.fixture(scope="module")
def parts(request):
    video = request.getfixturevalue("ed_ffmpeg_video")
    manifest = video.manifest()
    classifier = ChunkClassifier.from_manifest(manifest)
    config = CavaConfig()
    inner = ReferenceInnerController(config, manifest, classifier)
    return config, manifest, classifier, inner


class TestObjectiveMatchesEquationThree:
    def test_hand_computed_cost(self, parts):
        config, manifest, classifier, inner = parts
        index, u, bandwidth, last = 25, 1.3, 2.4e6, 2
        alpha = inner.alpha(index, buffer_s=30.0)
        costs = inner.objective(index, u, bandwidth, last, alpha)

        # Recompute Eq. (3) from primitives, in Mbps like the controller.
        w = window_chunks(config.inner_window_s, manifest.chunk_duration_s)
        for level in range(manifest.num_tracks):
            rates = manifest.track_bitrates_bps(level)
            rbar = float(np.mean(rates[index : index + w])) / 1e6
            deviation = config.horizon_chunks * (u * rbar - alpha * bandwidth / 1e6) ** 2
            eta = inner.eta(index)
            r_l = manifest.declared_avg_bitrates_bps[level] / 1e6
            r_last = manifest.declared_avg_bitrates_bps[last] / 1e6
            expected = deviation + eta * (r_l - r_last) ** 2
            assert costs[level] == pytest.approx(expected, rel=1e-9)

    def test_first_chunk_has_no_change_term(self, parts):
        config, manifest, classifier, inner = parts
        costs_none = inner.objective(0, 1.0, 2e6, None, 1.0)
        w = window_chunks(config.inner_window_s, manifest.chunk_duration_s)
        for level in range(manifest.num_tracks):
            rbar = float(np.mean(manifest.track_bitrates_bps(level)[:w])) / 1e6
            expected = config.horizon_chunks * (rbar - 2.0) ** 2
            assert costs_none[level] == pytest.approx(expected, rel=1e-9)

    def test_short_term_filter_is_forward_window_mean(self, parts):
        config, manifest, classifier, inner = parts
        rbar = short_term_bitrates(manifest, config.inner_window_s)
        w = window_chunks(config.inner_window_s, manifest.chunk_duration_s)
        rates = manifest.track_bitrates_bps(4)
        for index in (0, 57, manifest.num_chunks - 3, manifest.num_chunks - 1):
            expected = float(np.mean(rates[index : index + w]))
            assert rbar[4, index] == pytest.approx(expected, rel=1e-12)

    def test_argmin_is_selected_level_without_heuristic(self, parts):
        config, manifest, classifier, inner = parts
        # Pick a Q4 chunk: the no-deflation heuristic never applies there.
        index = int(classifier.complex_positions()[3])
        u, bandwidth = 1.1, 1.8e6
        alpha = inner.alpha(index, buffer_s=40.0)
        expected = int(np.argmin(inner.objective(index, u, bandwidth, 3, alpha)))
        assert inner.select(index, u, bandwidth, 40.0, 3) == expected
