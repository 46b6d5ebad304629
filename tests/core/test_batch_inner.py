"""Every lane of ``InnerController.select_batch`` is the Eq. (3)–(4) argmin.

The lockstep CAVA decider picks all lanes' levels with one
``select_batch`` call; lane ``j`` must equal
:meth:`tests.core.reference.ReferenceInnerController.select` (the
``np.argmin`` of the Eq. (3) vector, §5.3 heuristics included) on lane
``j``'s inputs, bit for bit. Estimates are also drawn at the tie points
of adjacent levels, moved by a few ulps, where a one-ulp slip in the
cost arithmetic would flip the argmin. A fixed grid asserts that one
call mixes lanes the Q1–Q3 no-deflation heuristic re-solves with lanes
it leaves alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CavaConfig
from repro.video.classify import ChunkClassifier
from tests.core.reference import ReferenceInnerController

CONFIGS = {
    "P1": CavaConfig(use_differential=False, use_proactive=False),
    "P12": CavaConfig(use_proactive=False),
    "P123": CavaConfig(),
    "P123-q4-relief": CavaConfig(enable_q4_relief_heuristic=True),
}

_INNERS = {}


@pytest.fixture(scope="module")
def manifest(ed_ffmpeg_video):
    return ed_ffmpeg_video.manifest()


def inner_for(variant, manifest):
    if variant not in _INNERS:
        config = CONFIGS[variant]
        classifier = ChunkClassifier.from_manifest(
            manifest,
            reference_track=config.reference_track,
            num_classes=config.num_complexity_classes,
        )
        _INNERS[variant] = ReferenceInnerController(config, manifest, classifier)
    return _INNERS[variant]


def tie_bandwidth(inner, chunk_index, u, buffer_s, pair_draw, ulps):
    """The estimate at which two adjacent levels' deviations tie, moved
    by ``ulps`` doubles, floored like the decider's input."""
    rbar = inner.short_term_bitrates_mbps[:, chunk_index]
    level = pair_draw % (len(rbar) - 1)
    midpoint_mbps = u * (rbar[level] + rbar[level + 1]) / 2
    bandwidth = float(midpoint_mbps * 1e6 / inner.alpha(chunk_index, buffer_s))
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        bandwidth = math.nextafter(bandwidth, toward)
    return max(bandwidth, 1_000.0)


def check_lanes(inner, chunk_index, u, bandwidth, buffer_s, last_levels):
    """Assert lane-wise equality; return each lane's applied alpha."""
    got = inner.select_batch(
        chunk_index,
        np.asarray(u),
        np.asarray(bandwidth),
        np.asarray(buffer_s),
        None if last_levels is None else np.asarray(last_levels),
    ).tolist()
    want, alphas = [], []
    for j in range(len(u)):
        last = None if last_levels is None else last_levels[j]
        want.append(inner.select(chunk_index, u[j], bandwidth[j], buffer_s[j], last))
        alphas.append(inner.last_alpha)
    assert got == want
    return alphas


_lane = st.tuples(
    st.floats(min_value=0.05, max_value=8.0),  # u
    st.floats(min_value=0.0, max_value=120.0),  # buffer
    st.one_of(
        st.floats(min_value=1_000.0, max_value=5e7),
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=-24, max_value=24),
        ),
    ),
    st.integers(min_value=0, max_value=10**6),  # previous level draw
)


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(sorted(CONFIGS)),
    chunk_draw=st.integers(min_value=0, max_value=10**6),
    lanes=st.lists(_lane, min_size=1, max_size=6),
    first_chunk=st.booleans(),
)
def test_every_lane_equals_reference(manifest, variant, chunk_draw, lanes, first_chunk):
    inner = inner_for(variant, manifest)
    chunk_index = 0 if first_chunk else chunk_draw % manifest.num_chunks
    u = [lane[0] for lane in lanes]
    buffer_s = [lane[1] for lane in lanes]
    bandwidth = [
        tie_bandwidth(inner, chunk_index, u_j, buf_j, *bw)
        if isinstance(bw, tuple)
        else bw
        for u_j, buf_j, (_, _, bw, _) in zip(u, buffer_s, lanes)
    ]
    last_levels = (
        None
        if first_chunk
        else [lane[3] % manifest.num_tracks for lane in lanes]
    )
    check_lanes(inner, chunk_index, u, bandwidth, buffer_s, last_levels)


def test_no_deflation_mixes_redone_and_kept_lanes(manifest):
    inner = inner_for("P123", manifest)
    config = inner.config
    simple = [
        i for i in range(1, manifest.num_chunks) if not inner.classifier.is_complex(i)
    ][:6]
    assert simple
    # Low and high estimates, below and above the safe buffer: the
    # heuristic re-solves exactly the low-level lanes with a safe buffer.
    grid = [
        (u, bw, buf)
        for u in (0.8, 1.0, 1.6)
        for bw in (2e5, 6e5, 1.5e6, 4e6, 2e7)
        for buf in (config.safe_buffer_s / 2, config.safe_buffer_s * 3)
    ]
    u = [g[0] for g in grid]
    bandwidth = [g[1] for g in grid]
    buffer_s = [g[2] for g in grid]
    redone = kept = 0
    for chunk_index in simple:
        last_levels = [j % manifest.num_tracks for j in range(len(grid))]
        alphas = check_lanes(inner, chunk_index, u, bandwidth, buffer_s, last_levels)
        redone += alphas.count(1.0)
        kept += alphas.count(config.alpha_simple)
        # Each call mixes both kinds of lane.
        assert 0 < alphas.count(1.0) < len(grid)
    assert redone > 0 and kept > 0
