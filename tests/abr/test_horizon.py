"""Tests for repro.abr.horizon: the vectorized lookahead machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.horizon import horizon_sizes, level_sequences
from tests.abr.reference import simulate_buffer


class TestLevelSequences:
    def test_exhaustive_count(self):
        sequences = level_sequences(6, 5)
        assert sequences.shape == (6**5, 5)
        # All sequences distinct.
        assert len({tuple(row) for row in sequences}) == 6**5

    def test_small_case_exact(self):
        sequences = level_sequences(2, 2)
        assert sorted(map(tuple, sequences)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cache_returns_same_object(self):
        assert level_sequences(6, 5) is level_sequences(6, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            level_sequences(0, 5)


class TestHorizonSizes:
    def test_full_window(self, ed_ffmpeg_video):
        manifest = ed_ffmpeg_video.manifest()
        sizes = horizon_sizes(manifest, 10, 5)
        assert sizes.shape == (6, 5)
        assert sizes[2, 0] == manifest.chunk_size_bits(2, 10)

    def test_truncated_at_end(self, ed_ffmpeg_video):
        manifest = ed_ffmpeg_video.manifest()
        sizes = horizon_sizes(manifest, manifest.num_chunks - 2, 5)
        assert sizes.shape == (6, 2)

    def test_out_of_range_rejected(self, ed_ffmpeg_video):
        with pytest.raises(IndexError):
            horizon_sizes(ed_ffmpeg_video.manifest(), 10_000, 5)


class TestSimulateBuffer:
    def test_no_rebuffer_with_big_buffer(self):
        sequences = level_sequences(2, 3)
        sizes = np.array([[1e6] * 3, [2e6] * 3])
        rebuffer, final = simulate_buffer(sequences, sizes, 1e6, 60.0, 2.0)
        assert np.all(rebuffer == 0.0)

    def test_rebuffer_from_empty_buffer(self):
        sequences = np.array([[1, 1]])
        sizes = np.array([[1e6, 1e6], [4e6, 4e6]])
        # 4 s per chunk at 1 Mbps; buffer starts empty, each chunk adds 2 s.
        rebuffer, final = simulate_buffer(sequences, sizes, 1e6, 0.0, 2.0)
        assert rebuffer[0] == pytest.approx(4.0 + 2.0)
        assert final[0] == pytest.approx(2.0)

    def test_exact_arithmetic_single_step(self):
        sequences = np.array([[0], [1]])
        sizes = np.array([[2e6], [8e6]])
        rebuffer, final = simulate_buffer(sequences, sizes, 2e6, 3.0, 2.0)
        # Level 0: 1 s download, buffer 3-1+2 = 4; level 1: 4 s download,
        # stall 1 s, buffer 0+2 = 2.
        assert rebuffer.tolist() == pytest.approx([0.0, 1.0])
        assert final.tolist() == pytest.approx([4.0, 2.0])

    def test_higher_levels_never_rebuffer_less(self):
        """Monotonicity: downloading strictly more bits cannot stall less."""
        sequences = level_sequences(3, 4)
        sizes = np.array([[1e6] * 4, [2e6] * 4, [4e6] * 4])
        rebuffer, _ = simulate_buffer(sequences, sizes, 1.5e6, 4.0, 2.0)
        totals = sequences.sum(axis=1)
        # Compare the all-low and all-high plans.
        low = rebuffer[np.argmin(totals)]
        high = rebuffer[np.argmax(totals)]
        assert high >= low

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="plan"):
            simulate_buffer(level_sequences(2, 3), np.ones((2, 2)), 1e6, 0.0, 2.0)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            simulate_buffer(level_sequences(2, 2), np.ones((2, 2)), 0.0, 0.0, 2.0)

    @given(
        buffer0=st.floats(min_value=0.0, max_value=60.0),
        bandwidth=st.floats(min_value=1e5, max_value=1e7),
    )
    @settings(max_examples=40)
    def test_property_rebuffer_nonnegative_and_final_positive(self, buffer0, bandwidth):
        sequences = level_sequences(3, 3)
        sizes = np.array([[1e6] * 3, [3e6] * 3, [9e6] * 3])
        rebuffer, final = simulate_buffer(sequences, sizes, bandwidth, buffer0, 2.0)
        assert np.all(rebuffer >= 0.0)
        assert np.all(final >= 2.0 - 1e-9)  # last chunk always enqueued
