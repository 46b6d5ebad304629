"""Tests for the inner (Eqs. 3-4) and outer (Eq. 5) controllers."""

import numpy as np
import pytest

from repro.core.config import CavaConfig
from repro.core.inner import InnerController
from repro.core.outer import OuterController
from repro.video.classify import ChunkClassifier
from tests.core.reference import ReferenceInnerController


@pytest.fixture(scope="module")
def setup(request):
    video = request.getfixturevalue("ed_ffmpeg_video")
    manifest = video.manifest()
    classifier = ChunkClassifier.from_manifest(manifest)
    return video, manifest, classifier


class TestAlpha:
    def test_q4_inflated(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        q4 = int(classifier.complex_positions()[0])
        assert inner.alpha(q4, buffer_s=30.0) == CavaConfig().alpha_complex

    def test_simple_deflated(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        q1 = int(np.flatnonzero(classifier.categories == 1)[0])
        assert inner.alpha(q1, buffer_s=30.0) == CavaConfig().alpha_simple

    def test_ablation_disables_alpha(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(use_differential=False), manifest, classifier)
        q4 = int(classifier.complex_positions()[0])
        assert inner.alpha(q4, buffer_s=30.0) == 1.0

    def test_q4_relief_heuristic(self, setup):
        video, manifest, classifier = setup
        config = CavaConfig(enable_q4_relief_heuristic=True, q4_relief_buffer_s=8.0)
        inner = ReferenceInnerController(config, manifest, classifier)
        q4 = int(classifier.complex_positions()[0])
        assert inner.alpha(q4, buffer_s=4.0) == 1.0  # buffer low: no inflation
        assert inner.alpha(q4, buffer_s=30.0) == config.alpha_complex


class TestEta:
    def test_zero_on_first_chunk(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        assert inner.eta(0) == 0.0

    def test_zero_across_category_boundary(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        for index in range(1, classifier.num_chunks):
            boundary = classifier.is_complex(index) != classifier.is_complex(index - 1)
            if boundary:
                assert inner.eta(index) == 0.0
            else:
                assert inner.eta(index) == CavaConfig().track_change_weight

    def test_ablation_keeps_eta_constant(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(use_differential=False), manifest, classifier)
        assert all(inner.eta(i) == 1.0 for i in range(1, 20))


class TestSelect:
    def test_u_splits_bandwidth(self, setup):
        """Higher u (buffer-filling mode) must never pick a higher track."""
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        lo_u = inner.select(10, u=0.5, bandwidth_bps=2e6, buffer_s=50.0, last_level=None)
        hi_u = inner.select(10, u=3.0, bandwidth_bps=2e6, buffer_s=50.0, last_level=None)
        assert hi_u <= lo_u

    def test_bandwidth_monotonicity(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        poor = inner.select(10, u=1.0, bandwidth_bps=2e5, buffer_s=50.0, last_level=None)
        rich = inner.select(10, u=1.0, bandwidth_bps=2e7, buffer_s=50.0, last_level=None)
        assert rich >= poor

    def test_track_change_penalty_pulls_toward_last(self, setup):
        video, manifest, classifier = setup
        config = CavaConfig(track_change_weight=1e9)
        inner = ReferenceInnerController(config, manifest, classifier)
        # Find a non-boundary chunk so eta applies.
        index = next(
            i for i in range(1, classifier.num_chunks)
            if classifier.is_complex(i) == classifier.is_complex(i - 1)
        )
        level = inner.select(index, u=1.0, bandwidth_bps=2e6, buffer_s=50.0, last_level=5)
        assert level == 5  # the enormous eta locks the previous level

    def test_no_deflation_heuristic(self, setup):
        """A simple chunk that would land on a very low level with a
        healthy buffer is re-solved with alpha = 1 (same or higher level)."""
        video, manifest, classifier = setup
        config = CavaConfig()
        inner = ReferenceInnerController(config, manifest, classifier)
        q1 = int(np.flatnonzero(classifier.categories == 1)[0])
        # Bandwidth tuned so deflated selection is very low.
        with_heuristic = inner.select(q1, u=1.0, bandwidth_bps=2.2e5, buffer_s=30.0, last_level=None)
        costs_deflated = inner.objective(q1, 1.0, 2.2e5, None, config.alpha_simple)
        deflated_level = int(np.argmin(costs_deflated))
        assert with_heuristic >= deflated_level

    def test_invalid_u_rejected(self, setup):
        video, manifest, classifier = setup
        inner = ReferenceInnerController(CavaConfig(), manifest, classifier)
        with pytest.raises(ValueError):
            inner.select(0, u=0.0, bandwidth_bps=1e6, buffer_s=0.0, last_level=None)

    def test_classifier_mismatch_rejected(self, setup, short_video):
        video, manifest, classifier = setup
        with pytest.raises(ValueError, match="chunk count"):
            InnerController(CavaConfig(), short_video.manifest(), classifier)


class TestOuterController:
    def test_base_target_without_proactive(self, setup):
        video, manifest, classifier = setup
        config = CavaConfig(use_proactive=False)
        outer = OuterController(config, manifest)
        targets = [outer.target_buffer_s(i) for i in range(0, manifest.num_chunks, 17)]
        assert all(t == config.base_target_buffer_s for t in targets)

    def test_proactive_raises_target_somewhere(self, setup):
        video, manifest, classifier = setup
        outer = OuterController(CavaConfig(), manifest)
        targets = np.array([outer.target_buffer_s(i) for i in range(manifest.num_chunks)])
        assert targets.max() > CavaConfig().base_target_buffer_s
        assert targets.min() >= CavaConfig().base_target_buffer_s

    def test_target_capped_at_factor(self, setup):
        video, manifest, classifier = setup
        config = CavaConfig(base_target_buffer_s=20.0, max_target_factor=2.0)
        outer = OuterController(config, manifest)
        targets = [outer.target_buffer_s(i) for i in range(manifest.num_chunks)]
        assert max(targets) <= 40.0 + 1e-9
