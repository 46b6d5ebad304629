"""Bit-identity of the shared-prefix (trellis) planner.

The trellis rollout in :class:`~repro.abr.horizon.HorizonPlanner` is the
per-decision hot path of MPC and PANDA/CQ, at one lane in the scalar
players and at many in the batch deciders. These tests assert *exact*
float equality against the flat per-sequence formulations it replaced —
no tolerances — for every lane row, for PANDA/CQ's window objective,
plus the read-only guarantee on the shared sequence table, and
decision-level equivalence of the schemes against straight
re-implementations of their original select logic.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.horizon import (
    HorizonPlanner,
    level_sequences,
    planner_for,
)
from repro.abr.base import DecisionContext
from repro.abr.mpc import MPCAlgorithm
from repro.abr.pandacq import PandaCQAlgorithm, _window_objective
from repro.video.dataset import build_video, standard_dataset_specs
from tests.abr.reference import simulate_buffer


#: Chunk whose level-1 and level-4 sizes :func:`_bench_manifest` swaps,
#: so every window covering it has sizes that are not monotone in level.
_SWAPPED_CHUNK = 30


def _bench_manifest(include_quality=False):
    spec = next(s for s in standard_dataset_specs() if s.name == "ED-youtube-h264")
    manifest = build_video(spec, seed=0).manifest(include_quality=include_quality)
    sizes = manifest.chunk_sizes_bits.copy()
    sizes[[1, 4], _SWAPPED_CHUNK] = sizes[[4, 1], _SWAPPED_CHUNK]
    return dataclasses.replace(manifest, chunk_sizes_bits=sizes)


class TestLevelSequencesReadOnly:
    def test_cached_table_rejects_mutation(self):
        table = level_sequences(4, 3)
        with pytest.raises((ValueError, RuntimeError)):
            table[0, 0] = 99

    def test_cached_table_is_shared_and_unchanged(self):
        first = level_sequences(3, 2)
        again = level_sequences(3, 2)
        assert again is first
        expected = np.stack(
            [g.ravel() for g in np.meshgrid(np.arange(3), np.arange(3), indexing="ij")],
            axis=1,
        )
        assert np.array_equal(first, expected)


def _one_lane(planner, sizes, bandwidth, buffer0, delta):
    """Rebuffer row of a one-lane rollout, copied out of the scratch."""
    return planner.rollout_rebuffer(
        sizes, np.array([bandwidth]), np.array([buffer0]), delta
    )[0].tolist()


class TestTrellisBitIdentity:
    @given(
        num_levels=st.integers(min_value=1, max_value=5),
        horizon=st.integers(min_value=1, max_value=4),
        bandwidth=st.floats(min_value=1e4, max_value=5e7),
        buffer0=st.floats(min_value=0.0, max_value=100.0),
        delta=st.sampled_from([2.0, 4.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=80, deadline=None)
    def test_rebuffer_matches_simulate_buffer_exactly(
        self, num_levels, horizon, bandwidth, buffer0, delta, seed
    ):
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1e4, 4e7, size=(num_levels, horizon))
        sequences = level_sequences(num_levels, horizon)
        expected, _ = simulate_buffer(sequences, sizes, bandwidth, buffer0, delta)
        planner = HorizonPlanner(1, num_levels, horizon)
        # Exact equality: the trellis must be bit-identical, not close.
        assert _one_lane(planner, sizes, bandwidth, buffer0, delta) == expected.tolist()

    @given(
        lanes=st.integers(min_value=1, max_value=6),
        num_levels=st.integers(min_value=1, max_value=4),
        horizon=st.integers(min_value=1, max_value=4),
        delta=st.sampled_from([2.0, 4.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_lane_row_matches_simulate_buffer_exactly(
        self, lanes, num_levels, horizon, delta, seed
    ):
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1e4, 4e7, size=(num_levels, horizon))
        bandwidth = rng.uniform(1e4, 5e7, size=lanes)
        buffer0 = rng.uniform(0.0, 60.0, size=lanes)
        buffer0[rng.random(lanes) < 0.3] = 0.0
        sequences = level_sequences(num_levels, horizon)
        expected = [
            simulate_buffer(sequences, sizes, bw, b0, delta)[0].tolist()
            for bw, b0 in zip(bandwidth, buffer0)
        ]
        planner = HorizonPlanner(lanes, num_levels, horizon)
        full = planner.rollout_rebuffer(sizes, bandwidth, buffer0, delta)
        assert full.shape == (lanes, num_levels**horizon)
        assert full.tolist() == expected
        # A call on the leading sub-lanes reuses the leading scratch rows
        # and must price those lanes exactly as the full call did.
        sub = int(rng.integers(1, lanes + 1))
        partial = planner.rollout_rebuffer(sizes, bandwidth[:sub], buffer0[:sub], delta)
        assert partial.tolist() == expected[:sub]

    def test_truncated_horizon_uses_prefix_of_buffers(self):
        rng = np.random.default_rng(7)
        planner = HorizonPlanner(1, 4, 5)
        for h in range(1, 6):
            sizes = rng.uniform(1e5, 1e7, size=(4, h))
            sequences = level_sequences(4, h)
            expected, _ = simulate_buffer(sequences, sizes, 2e6, 12.0, 5.0)
            assert _one_lane(planner, sizes, 2e6, 12.0, 5.0) == expected.tolist()

    @given(
        objective=st.sampled_from(["max-sum", "max-min"]),
        num_levels=st.integers(min_value=1, max_value=6),
        horizon=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_accumulation_matches_gather_reduce(
        self, objective, num_levels, horizon, seed
    ):
        rng = np.random.default_rng(seed)
        quality = rng.uniform(0.0, 100.0, size=(num_levels, horizon))
        sequences = level_sequences(num_levels, horizon)
        gathered = quality[sequences, np.arange(horizon)]
        if objective == "max-sum":
            expected = gathered.sum(axis=1)
        else:
            expected = gathered.min(axis=1) * horizon
        actual = _window_objective(quality, objective)
        assert actual.tolist() == expected.tolist()

    def test_rejects_bad_inputs(self):
        planner = HorizonPlanner(2, 3, 2)
        sizes = np.ones((3, 2))
        one = np.array([5.0])
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(sizes, np.array([0.0]), one, 5.0)
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(sizes, np.array([1e6, -1.0]), np.ones(2), 5.0)
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(np.ones((2, 2)), np.array([1e6]), one, 5.0)
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(np.ones((3, 3)), np.array([1e6]), one, 5.0)
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(sizes, np.array([1e6]), np.ones(2), 5.0)
        with pytest.raises(ValueError):
            planner.rollout_rebuffer(sizes, np.full(3, 1e6), np.ones(3), 5.0)
        with pytest.raises(ValueError):
            HorizonPlanner(0, 3, 2)
        with pytest.raises(ValueError):
            HorizonPlanner(1, 0, 2)

    def test_planner_for_shares_instances(self):
        assert planner_for(6, 5) is planner_for(6, 5)
        assert planner_for(6, 5) is not planner_for(6, 4)
        assert planner_for(6, 5).lanes == 1


def _reference_mpc_select(algorithm, ctx):
    """The original flat per-sequence MPC selection, re-implemented."""
    from repro.abr.horizon import horizon_sizes

    manifest = algorithm.manifest
    sizes = horizon_sizes(manifest, ctx.chunk_index, algorithm.horizon)
    h = sizes.shape[1]
    sequences = level_sequences(manifest.num_tracks, h)
    utilities = manifest.declared_avg_bitrates_bps / 1e6
    bandwidth = max(ctx.bandwidth_bps, 1_000.0)
    rebuffer, _ = simulate_buffer(
        sequences, sizes, bandwidth, ctx.buffer_s, manifest.chunk_duration_s
    )
    utility = utilities[sequences].sum(axis=1)
    previous = ctx.last_level if ctx.last_level is not None else sequences[:, 0]
    smooth = np.abs(utilities[sequences[:, 0]] - utilities[previous])
    steps = (
        np.abs(np.diff(utilities[sequences], axis=1)).sum(axis=1) if h > 1 else 0.0
    )
    score = (
        utility
        - algorithm.smoothness_weight * (smooth + steps)
        - algorithm.rebuffer_penalty_per_s * rebuffer
    )
    return int(sequences[int(np.argmax(score)), 0])


def _reference_panda_select(algorithm, ctx):
    """The original flat per-sequence PANDA/CQ selection, re-implemented."""
    from repro.abr.horizon import horizon_sizes

    manifest = algorithm.manifest
    i = ctx.chunk_index
    sizes = horizon_sizes(manifest, i, algorithm.horizon)
    h = sizes.shape[1]
    sequences = level_sequences(manifest.num_tracks, h)
    bandwidth = max(ctx.bandwidth_bps, 1_000.0)
    rebuffer, _ = simulate_buffer(
        sequences, sizes, bandwidth, ctx.buffer_s, manifest.chunk_duration_s
    )
    quality = manifest.quality[algorithm.metric]
    plan_quality = quality[:, i : i + h][sequences, np.arange(h)]
    if algorithm.objective == "max-sum":
        objective = plan_quality.sum(axis=1)
    else:
        objective = plan_quality.min(axis=1) * h
    score = objective - algorithm.rebuffer_penalty_per_s * rebuffer
    return int(sequences[int(np.argmax(score)), 0])


class TestSchemeDecisionEquivalence:
    """The rewired schemes decide exactly as their flat originals did."""

    def _contexts(self, manifest, seed=3):
        rng = np.random.default_rng(seed)
        n = manifest.num_chunks
        indices = list(range(0, n, 7)) + [n - 1]
        contexts = []
        for i in indices:
            contexts.append(
                DecisionContext(
                    chunk_index=i,
                    now_s=5.0 * i,
                    buffer_s=float(rng.uniform(0.0, 40.0)),
                    last_level=(
                        None if i == 0 else int(rng.integers(manifest.num_tracks))
                    ),
                    bandwidth_bps=float(rng.uniform(2e5, 2e7)),
                    playing=i > 1,
                )
            )
        levels = manifest.num_tracks
        for i in (1, n // 2, _SWAPPED_CHUNK - 2, _SWAPPED_CHUNK, n - 3):
            for buffer_s, last_level, bandwidth in (
                # Live start: no previous level, yet mid-video.
                (rng.uniform(0.0, 40.0), None, rng.uniform(2e5, 2e7)),
                # Predictions below the 1000 bps clamp.
                (rng.uniform(0.0, 40.0), rng.integers(levels), 400.0),
                (rng.uniform(0.0, 40.0), rng.integers(levels), 0.0),
                # Empty buffer.
                (0.0, rng.integers(levels), rng.uniform(2e5, 2e7)),
                (0.0, None, 400.0),
            ):
                contexts.append(
                    DecisionContext(
                        chunk_index=i,
                        now_s=5.0 * i,
                        buffer_s=float(buffer_s),
                        last_level=None if last_level is None else int(last_level),
                        bandwidth_bps=float(bandwidth),
                        playing=True,
                    )
                )
        return contexts

    def test_mpc_matches_reference(self):
        manifest = _bench_manifest()
        algorithm = MPCAlgorithm()
        algorithm.prepare(manifest)
        for ctx in self._contexts(manifest):
            assert algorithm.select_level(ctx) == _reference_mpc_select(algorithm, ctx)

    @pytest.mark.parametrize("objective", ["max-sum", "max-min"])
    def test_panda_matches_reference(self, objective):
        manifest = _bench_manifest(include_quality=True)
        algorithm = PandaCQAlgorithm(objective=objective)
        algorithm.prepare(manifest)
        for ctx in self._contexts(manifest, seed=11):
            assert algorithm.select_level(ctx) == _reference_panda_select(
                algorithm, ctx
            )
