"""BOLA-E, DYNAMIC and BBA-1 decide from per-manifest float tables.

Their ``select_level`` / ``requested_idle_s`` run on Python floats read
from tables built once per manifest. These tests pin every decision to
the array formulas in :mod:`tests.abr.reference` with exact equality —
no tolerances — on the ED-ffmpeg and ED-youtube manifests, an ED-youtube
copy whose sizes are not monotone in level at one chunk, and an
ED-ffmpeg copy with two pairs of levels of equal size (exactly tied
scores) at one chunk. The contexts hit the edges of each rule: a buffer
exactly at a level's score-zero point ``V * (u_l + gp)`` and at 0, a
bandwidth exactly equal to a level's rate (the ``<=`` edge) and below
the lowest rate, and ``last_level`` of None and of every level.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import DecisionContext
from repro.abr.bba import BBA1Algorithm
from repro.abr.bola import BOLA_VARIANTS, BolaEAlgorithm
from repro.abr.dynamic import DynamicAlgorithm
from repro.network.link import TraceLink
from repro.player.session import SessionConfig, StreamingSession
from tests.abr.reference import ReferenceBBA1, ReferenceBolaE, ReferenceDynamic
from tests.abr.test_trellis import _SWAPPED_CHUNK as SWAPPED_CHUNK
from tests.abr.test_trellis import _bench_manifest

#: Chunk where the "tied" manifest gives levels 2/3 and 4/5 equal sizes,
#: so their BOLA scores tie exactly and argmax must keep the lower level.
TIED_CHUNK = 40

MANIFEST_NAMES = (
    "ED-ffmpeg-h264",
    "ED-youtube-h264",
    "ED-youtube-h264 swapped",
    "ED-ffmpeg-h264 tied",
)


@pytest.fixture(scope="module")
def manifests(ed_ffmpeg_video, ed_youtube_video):
    ffmpeg = ed_ffmpeg_video.manifest()
    tied = ffmpeg.chunk_sizes_bits.copy()
    tied[[3, 5], TIED_CHUNK] = tied[[2, 4], TIED_CHUNK]
    return {
        "ED-ffmpeg-h264": ffmpeg,
        "ED-youtube-h264": ed_youtube_video.manifest(),
        # Levels 1 and 4 swapped at SWAPPED_CHUNK: sizes not monotone in level.
        "ED-youtube-h264 swapped": _bench_manifest(),
        "ED-ffmpeg-h264 tied": dataclasses.replace(ffmpeg, chunk_sizes_bits=tied),
    }


def _ctx(chunk_index, buffer_s, last_level, bandwidth_bps):
    return DecisionContext(
        chunk_index=chunk_index,
        now_s=0.0,
        buffer_s=buffer_s,
        last_level=last_level,
        bandwidth_bps=bandwidth_bps,
        playing=True,
    )


def _chunk_indices(manifest):
    n = manifest.num_chunks
    return (0, SWAPPED_CHUNK, TIED_CHUNK, n // 2, n - 1)


def _bola_pair(manifest, variant):
    algorithm = BolaEAlgorithm(variant)
    algorithm.prepare(manifest)
    reference = ReferenceBolaE(variant)
    reference.prepare(manifest)
    return algorithm, reference


def _assert_bola_equal(algorithm, reference, ctx):
    assert algorithm.select_level(ctx) == reference.select_level(ctx), ctx
    assert algorithm.requested_idle_s(ctx) == reference.requested_idle_s(ctx), ctx


@st.composite
def _bola_contexts(draw, reference, manifest):
    """A context at one of the rule edges, or anywhere in range."""
    i = draw(st.sampled_from(_chunk_indices(manifest)) | st.integers(0, manifest.num_chunks - 1))
    zeros = reference.score_zero_buffers(i).tolist()
    rates = reference.rates_bps(i).tolist()
    buffer_s = draw(st.sampled_from([0.0] + zeros) | st.floats(0.0, 2 * max(zeros)))
    bandwidth = draw(
        st.sampled_from(rates)
        | st.floats(0.0, rates[0], exclude_max=True)
        | st.floats(rates[0], 2 * max(rates))
    )
    last = draw(st.none() | st.integers(0, manifest.num_tracks - 1))
    return _ctx(i, buffer_s, last, bandwidth)


class TestBolaE:
    @pytest.mark.parametrize("variant", BOLA_VARIANTS)
    @pytest.mark.parametrize("name", MANIFEST_NAMES)
    def test_every_edge_combination(self, manifests, name, variant):
        """Each chunk index x last level x score-zero buffer x rate."""
        manifest = manifests[name]
        algorithm, reference = _bola_pair(manifest, variant)
        lasts = [None] + list(range(manifest.num_tracks))
        for i in _chunk_indices(manifest):
            zeros = [0.0] + reference.score_zero_buffers(i).tolist()
            rates = reference.rates_bps(i).tolist()
            bandwidths = rates + [float(np.nextafter(rates[0], 0.0))]
            for buffer_s, last, bandwidth in itertools.product(zeros, lasts, bandwidths):
                _assert_bola_equal(algorithm, reference, _ctx(i, buffer_s, last, bandwidth))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, manifests, data):
        manifest = manifests[data.draw(st.sampled_from(MANIFEST_NAMES))]
        algorithm, reference = _bola_pair(manifest, data.draw(st.sampled_from(BOLA_VARIANTS)))
        for _ in range(8):
            _assert_bola_equal(
                algorithm, reference, data.draw(_bola_contexts(reference, manifest))
            )

    def test_tables_shared_per_manifest(self, manifests):
        manifest = manifests["ED-youtube-h264"]
        first, _ = _bola_pair(manifest, "seg")
        again, _ = _bola_pair(manifest, "seg")
        assert again._rows is first._rows
        other, _ = _bola_pair(manifest, "peak")
        assert other._rows is not first._rows


class TestDynamic:
    @pytest.mark.parametrize("safety", [0.9, 1.0])
    @pytest.mark.parametrize("name", MANIFEST_NAMES)
    def test_throughput_level_edges(self, manifests, name, safety):
        """At safety 1.0 the budget equals a declared rate exactly."""
        manifest = manifests[name]
        algorithm = DynamicAlgorithm(throughput_safety=safety)
        algorithm.prepare(manifest)
        reference = ReferenceDynamic(throughput_safety=safety)
        reference.prepare(manifest)
        rates = manifest.declared_avg_bitrates_bps.tolist()
        bandwidths = rates + [r / safety for r in rates]
        bandwidths += [float(np.nextafter(rates[0], 0.0)), 0.0, 1e9]
        for bandwidth in bandwidths:
            ctx = _ctx(0, 0.0, None, bandwidth)
            assert algorithm._throughput_level(ctx) == reference.throughput_level(ctx)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, manifests, data):
        """A drawn decision sequence through both halves and the hysteresis."""
        manifest = manifests[data.draw(st.sampled_from(MANIFEST_NAMES))]
        variant = data.draw(st.sampled_from(BOLA_VARIANTS))
        safety = data.draw(st.sampled_from([0.9, 1.0]))
        algorithm = DynamicAlgorithm(throughput_safety=safety, bola_variant=variant)
        algorithm.prepare(manifest)
        reference = ReferenceDynamic(throughput_safety=safety, bola_variant=variant)
        reference.prepare(manifest)
        for _ in range(12):
            ctx = data.draw(_bola_contexts(reference.bola, manifest))
            assert algorithm.requested_idle_s(ctx) == reference.requested_idle_s(ctx)
            assert algorithm.using_bola == reference.using_bola
            assert algorithm.select_level(ctx) == reference.select_level(ctx)
            assert algorithm.using_bola == reference.using_bola


class TestBBA1:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, manifests, data):
        manifest = manifests[data.draw(st.sampled_from(MANIFEST_NAMES))]
        algorithm = BBA1Algorithm()
        algorithm.prepare(manifest)
        reference = ReferenceBBA1()
        reference.prepare(manifest)
        for _ in range(8):
            i = data.draw(
                st.sampled_from(_chunk_indices(manifest))
                | st.integers(0, manifest.num_chunks - 1)
            )
            buffer_s = data.draw(
                st.sampled_from([0.0, reference.reservoir_s, reference.cushion_s])
                | st.floats(0.0, 100.0)
            )
            ctx = _ctx(i, buffer_s, None, 1e6)
            assert algorithm.select_level(ctx) == reference.select_level(ctx)

    def test_size_equal_to_allowed(self, manifests):
        """The ``<=`` edge: chunk sizes set to the chunk map's endpoints."""
        manifest = manifests["ED-youtube-h264"]
        delta = manifest.chunk_duration_s
        avg = manifest.declared_avg_bitrates_bps
        sizes = manifest.chunk_sizes_bits.copy()
        sizes[0, 0] = float(avg[0]) * delta
        sizes[-1, 1] = float(avg[-1]) * delta
        edged = dataclasses.replace(manifest, chunk_sizes_bits=sizes)
        algorithm = BBA1Algorithm()
        algorithm.prepare(edged)
        reference = ReferenceBBA1()
        reference.prepare(edged)
        for i, buffer_s in itertools.product((0, 1), (0.0, 10.0, 80.0, 90.0)):
            ctx = _ctx(i, buffer_s, None, 1e6)
            assert algorithm.select_level(ctx) == reference.select_level(ctx)


@pytest.mark.parametrize(
    "make",
    [
        *[lambda v=v: (BolaEAlgorithm(v), ReferenceBolaE(v)) for v in BOLA_VARIANTS],
        lambda: (DynamicAlgorithm(), ReferenceDynamic()),
        lambda: (BBA1Algorithm(), ReferenceBBA1()),
    ],
    ids=[*(f"bola-{v}" for v in BOLA_VARIANTS), "dynamic", "bba-1"],
)
def test_sessions_equal_reference(manifests, lte_traces, make):
    """Whole sessions through the player: every record equal."""
    for name in ("ED-ffmpeg-h264", "ED-youtube-h264"):
        for trace in lte_traces[:3]:
            algorithm, reference = make()
            got, want = (
                StreamingSession(SessionConfig()).run(a, manifests[name], TraceLink(trace))
                for a in (algorithm, reference)
            )
            assert got.to_dict() == want.to_dict()
