"""CAVA's shipped decision against the per-call reference, bit for bit.

``CavaAlgorithm.select_level`` inlines the PID update (Eqs. 1–2) and the
Eq. (3)–(4) argmin with both §5.3 heuristics over per-chunk float
tables. :class:`tests.core.reference.ReferenceCava` computes the same
decision as outer target → ``PIDController.update`` →
``ReferenceInnerController.select`` (``np.argmin`` of the Eq. (3)
vector). On every drawn decision sequence the two must pick the same
level from the same controller output, apply the same alpha, and leave
the same PID state — for the P1, P12 and P123 ablations and with the
Q4-relief heuristic switched on.

Most drawn estimates leave every level's cost far from its neighbour's,
where a one-ulp slip in the assumed-bandwidth arithmetic cannot change
the argmin. So estimates are also drawn at decision boundaries: the
bandwidth at which two adjacent levels' Eq. (3) deviations tie for the
controller output about to be computed, moved by a few ulps.
"""

import copy
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import DecisionContext
from repro.core.cava import cava_p1, cava_p12, cava_p123
from repro.core.config import CavaConfig
from tests.core.reference import ReferenceCava

VARIANTS = {
    "P1": cava_p1,
    "P12": cava_p12,
    "P123": cava_p123,
    "P123-q4-relief": lambda: cava_p123(CavaConfig(enable_q4_relief_heuristic=True)),
}

#: A boundary estimate: (level pair draw, ulp offset); see
#: :func:`boundary_bandwidth`.
_boundary = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-24, max_value=24),
)

#: One decision: (chunk index draw, seconds since the previous decision,
#: buffer, bandwidth estimate, previous level draw). Bandwidths below
#: the 1000 bps floor, at it, above it, and at decision boundaries.
_decision = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=0.0, max_value=120.0),
    st.one_of(
        st.floats(min_value=0.0, max_value=999.999),
        st.just(1_000.0),
        st.floats(min_value=1_000.0, max_value=5e7),
        _boundary,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
)


@pytest.fixture(scope="module")
def manifest(ed_ffmpeg_video):
    return ed_ffmpeg_video.manifest()


def boundary_bandwidth(reference, chunk_index, now_s, buffer_s, pair_draw, ulps):
    """The estimate at which levels ``l`` and ``l + 1`` tie in Eq. (3)'s
    deviation term for the controller output the next decision computes
    (``l`` from ``pair_draw``), moved by ``ulps`` doubles."""
    probe = copy.copy(reference.pid)
    u = probe.update(now_s, buffer_s, reference.outer.target_buffer_s(chunk_index))
    inner = reference.inner
    rbar = inner.short_term_bitrates_mbps[:, chunk_index]
    level = pair_draw % (len(rbar) - 1)
    midpoint_mbps = u * (rbar[level] + rbar[level + 1]) / 2
    bandwidth = float(midpoint_mbps * 1e6 / inner.alpha(chunk_index, buffer_s))
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        bandwidth = math.nextafter(bandwidth, toward)
    return bandwidth


def check_decision(algorithm, reference, ctx):
    level = algorithm.select_level(ctx)
    assert level == reference.select_level(ctx), ctx
    assert algorithm.last_u == reference.last_u, ctx
    assert algorithm.inner.last_alpha == reference.inner.last_alpha, ctx
    assert algorithm.pid.integral == reference.pid.integral, ctx


def make_pair(variant, manifest):
    algorithm = VARIANTS[variant]()
    algorithm.prepare(manifest)
    return algorithm, ReferenceCava(algorithm.config, manifest)


def run_pair(variant, manifest, decisions):
    """Feed one decision sequence to both; return the reference."""
    algorithm, reference = make_pair(variant, manifest)
    now_s = 0.0
    for chunk_draw, elapsed_s, buffer_s, bandwidth_bps, last_draw in decisions:
        now_s += elapsed_s
        chunk_index = chunk_draw % manifest.num_chunks
        if isinstance(bandwidth_bps, tuple):
            bandwidth_bps = boundary_bandwidth(
                reference, chunk_index, now_s, buffer_s, *bandwidth_bps
            )
        ctx = DecisionContext(
            chunk_index=chunk_index,
            now_s=now_s,
            buffer_s=buffer_s,
            last_level=None if last_draw is None else last_draw % manifest.num_tracks,
            bandwidth_bps=bandwidth_bps,
            playing=True,
        )
        check_decision(algorithm, reference, ctx)
    return reference


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    decisions=st.lists(_decision, min_size=1, max_size=40),
)
def test_select_level_equals_reference(manifest, variant, decisions):
    run_pair(variant, manifest, decisions)


class TestBranchesReached:
    """A fixed grid that provably walks every branch the drawn sequences
    are meant to reach, held to the same equality."""

    def grid(self, manifest, chunks):
        for chunk in chunks:
            for buffer_s in (0.0, 3.0, 30.0, 90.0):
                for bandwidth_bps in (0.0, 500.0, 1_000.0, 2e5, 1.5e6, 2e7):
                    for last in (None, 0, manifest.num_tracks - 1):
                        yield (chunk, 2.0, buffer_s, bandwidth_bps, last)

    def test_no_deflation_resolve(self, manifest):
        reference = ReferenceCava(CavaConfig(), manifest)
        simple = [
            i for i in range(manifest.num_chunks)
            if not reference.inner.classifier.is_complex(i)
        ][:8]
        hits = 0
        for decision in self.grid(manifest, simple):
            reference = run_pair("P123", manifest, [decision])
            # alpha_simple < 1 was proposed; the heuristic re-solved at 1.
            hits += reference.inner.last_alpha == 1.0
        assert hits > 0

    def test_q4_relief(self, manifest):
        config = replace(CavaConfig(), enable_q4_relief_heuristic=True)
        reference = ReferenceCava(config, manifest)
        complex_chunks = reference.inner.classifier.complex_positions()[:8].tolist()
        hits = 0
        for decision in self.grid(manifest, complex_chunks):
            reference = run_pair("P123-q4-relief", manifest, [decision])
            hits += reference.inner.last_alpha == 1.0
        assert hits > 0

    @pytest.mark.parametrize("variant", ["P1", "P12"])
    def test_ablations(self, manifest, variant):
        run_pair(variant, manifest, list(self.grid(manifest, range(0, 40, 5))))

    @pytest.mark.parametrize("variant", ["P1", "P123"])
    def test_decision_boundaries(self, manifest, variant):
        """Every adjacent-level tie of a chunk sample, scanned ulp by ulp
        (a fresh controller per decision): the scan crosses each flip
        of the argmin, where the shipped and the reference arithmetic
        must agree to the last bit."""
        algorithm, reference = make_pair(variant, manifest)
        for chunk_index in range(0, manifest.num_chunks, 7):
            for buffer_s in (4.0, 30.0):
                for pair in range(manifest.num_tracks - 1):
                    for ulps in range(-16, 17):
                        algorithm.prepare(manifest)
                        reference.pid.reset()
                        ctx = DecisionContext(
                            chunk_index=chunk_index,
                            now_s=2.0,
                            buffer_s=buffer_s,
                            last_level=None,
                            bandwidth_bps=boundary_bandwidth(
                                reference, chunk_index, 2.0, buffer_s, pair, ulps
                            ),
                            playing=True,
                        )
                        check_decision(algorithm, reference, ctx)
