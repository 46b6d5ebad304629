"""Edge simulator: accounting conservation, determinism, fault paths."""

import dataclasses

import numpy as np
import pytest

from repro.faults.spec import parse_fault_plan
from repro.fleet.arrivals import edge_arrival_times
from repro.fleet.sim import (
    STAGE_ADVANCE,
    STAGE_BUCKET_FOLD,
    STAGE_COMPLETION,
    STAGE_DISPATCH,
    EdgeResult,
    simulate_edge,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.runner import synthesize_edge_trace
from repro.telemetry.spans import StageTimer


def tiny_spec(**overrides):
    defaults = dict(
        seed=0,
        duration_s=400.0,
        n_edges=2,
        arrivals_per_s=0.6,
        edge_capacity_mbps=40.0,
        videos=("ED-youtube-h264",),
        schemes=("CAVA", "RBA"),
        bucket_s=60.0,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


@pytest.fixture(scope="module")
def tiny_edge(ed_youtube_video):
    spec = tiny_spec()
    videos = {"ED-youtube-h264": ed_youtube_video}
    trace = synthesize_edge_trace(spec, 0)
    return spec, videos, trace, simulate_edge(spec, 0, videos, trace)


class TestAccounting:
    def test_every_arrival_becomes_a_session(self, tiny_edge):
        spec, _videos, _trace, result = tiny_edge
        assert result.sessions == edge_arrival_times(spec, 0).size
        assert result.sessions > 0

    def test_arrival_and_finish_buckets_conserve_sessions(self, tiny_edge):
        _spec, _videos, _trace, result = tiny_edge
        assert result.arrivals.sum() == pytest.approx(result.sessions)
        assert result.finishes.sum() == pytest.approx(result.sessions)
        assert result.qoe_count.sum() == pytest.approx(result.sessions)

    def test_delivered_bits_match_session_bits(self, tiny_edge):
        _spec, _videos, _trace, result = tiny_edge
        # Every bit the edge delivered belongs to some session's chunks
        # (to the bisection tolerance of the final trace interval).
        assert result.delivered_bits.sum() == pytest.approx(result.bits, rel=1e-4)

    def test_concurrency_integral_matches_session_lifetimes(self, tiny_edge):
        _spec, _videos, _trace, result = tiny_edge
        # Viewers are in-system from arrival to depart; the bucketed
        # integral can't exceed sessions x longest possible lifetime and
        # must cover sessions x shortest.
        viewer_seconds = result.concurrency_s.sum()
        assert viewer_seconds > 0
        assert result.peak_concurrency >= 1
        assert result.peak_downloads >= 1
        mean_lifetime = viewer_seconds / result.sessions
        assert 1.0 < mean_lifetime < 1000.0

    def test_capacity_bounds_delivery_per_bucket(self, tiny_edge):
        _spec, _videos, _trace, result = tiny_edge
        assert np.all(result.delivered_bits <= result.capacity_bits * (1 + 1e-9))

    def test_quality_and_chunk_scalars_populated(self, tiny_edge):
        _spec, _videos, _trace, result = tiny_edge
        assert result.chunks > 0
        assert result.sum_mean_quality > 0
        assert result.end_s > 0
        assert result.events > result.chunks  # waits/arrivals on top


class TestDeterminism:
    def test_bitwise_repeatable(self, ed_youtube_video):
        spec = tiny_spec()
        videos = {"ED-youtube-h264": ed_youtube_video}
        trace = synthesize_edge_trace(spec, 0)
        a = simulate_edge(spec, 0, videos, trace)
        b = simulate_edge(spec, 0, videos, trace)
        assert a.sessions == b.sessions
        assert a.bits == b.bits  # bitwise, not approx
        assert a.stall_total_s == b.stall_total_s
        assert a.qoe_total == b.qoe_total
        assert np.array_equal(a.delivered_bits, b.delivered_bits)
        assert np.array_equal(a.concurrency_s, b.concurrency_s)
        assert np.array_equal(a.stall_s, b.stall_s)

    def test_edges_differ(self, ed_youtube_video):
        spec = tiny_spec()
        videos = {"ED-youtube-h264": ed_youtube_video}
        a = simulate_edge(spec, 0, videos, synthesize_edge_trace(spec, 0))
        b = simulate_edge(spec, 1, videos, synthesize_edge_trace(spec, 1))
        assert a.sessions != b.sessions or a.bits != b.bits


@pytest.fixture(scope="module")
def timed_edge(tiny_edge):
    spec, videos, trace, plain = tiny_edge
    timed = simulate_edge(spec, 0, videos, trace, stage_timer=StageTimer())
    return timed, plain


class TestStageTiming:
    def test_timed_run_reports_cpu_time(self, timed_edge):
        timed, plain = timed_edge
        assert timed.stages[STAGE_DISPATCH]["cpu_s"] > 0.0
        assert plain.stages is None
        # Timing never changes the simulation: every bucket array and
        # scalar is bit-identical; only the run's own clocks differ.
        for f in dataclasses.fields(EdgeResult):
            if f.name in ("started_at", "wall_s", "cpu_s", "stages"):
                continue
            got, want = getattr(timed, f.name), getattr(plain, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert type(got) is type(want) and got == want, f.name

    def test_completion_query_fires_once_per_event(self, timed_edge):
        timed, _ = timed_edge
        stages = timed.stages
        for name in (STAGE_COMPLETION, STAGE_ADVANCE, STAGE_DISPATCH, STAGE_BUCKET_FOLD):
            assert name in stages
        assert timed.events > 0
        assert abs(stages[STAGE_COMPLETION]["count"] - timed.events) <= 1


class TestFaults:
    def test_latency_spikes_slow_downloads(self, ed_youtube_video):
        videos = {"ED-youtube-h264": ed_youtube_video}
        base_spec = tiny_spec()
        plan = parse_fault_plan("latency:p=0.5,spike_s=2.0,seed=3")
        faulted_spec = tiny_spec(fault_plan=plan)
        trace = synthesize_edge_trace(base_spec, 0)
        base = simulate_edge(base_spec, 0, videos, trace)
        faulted = simulate_edge(faulted_spec, 0, videos, trace)
        # Same population; spiked fetches take longer end to end, so
        # sessions leave later and quality/stall totals shift.
        assert faulted.sessions == base.sessions
        assert faulted.end_s > base.end_s
        assert faulted.stall_total_s >= base.stall_total_s

    def test_outage_plan_perturbs_capacity(self, ed_youtube_video):
        videos = {"ED-youtube-h264": ed_youtube_video}
        plan = parse_fault_plan("outages:p=0.2,len=3,seed=5")
        spec = tiny_spec(fault_plan=plan)
        trace, events = plan.perturb_trace(synthesize_edge_trace(spec, 0))
        assert events > 0
        result = simulate_edge(spec, 0, videos, trace)
        assert result.sessions > 0
        assert result.stall_total_s >= 0.0
