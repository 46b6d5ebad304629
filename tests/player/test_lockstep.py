"""The lockstep batch engine vs the reference §6.1 loop, over random grids.

The golden snapshots pin the engine on a handful of fixed (video, trace)
pairs. This module pins it to :func:`tests.player.reference.
reference_vod_session` instead: for every scheme the capability probe
accepts, random short manifests, random traces (zero-rate runs, traces
shorter than the session so downloads wrap the period) and random
player settings, each lane of :func:`run_batch_sessions` must equal the
reference session on that lane's trace, field for field, and each entry
of :func:`run_batch_metrics` must equal ``summarize_session`` of that
reference session. A small ``max_lanes`` splits every grid into several
lockstep slices.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abr.registry import make_scheme, needs_quality_manifest, scheme_names
from repro.experiments.batch import (
    batch_capability,
    run_batch_metrics,
)
from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from repro.player.metrics import metric_for_network, summarize_session
from repro.player.session import SessionConfig
from repro.video.dataset import VideoSpec, build_video
from tests.experiments.reference import run_batch_sessions
from tests.experiments.test_batch import BATCHABLE_SCHEMES
from tests.player.reference import reference_vod_session

NETWORK = "lte"
#: Built from the capability probe alone: how many lanes make the engine
#: cheaper is a routing question, and must not thin out this oracle.
BATCHABLE = [name for name in scheme_names() if batch_capability(name, NETWORK)]

_VIDEOS = {}


def short_video(num_chunks, chunk_duration_s):
    key = (num_chunks, chunk_duration_s)
    if key not in _VIDEOS:
        spec = VideoSpec(
            name=f"short-{num_chunks}x{chunk_duration_s:g}",
            title="Short",
            genre="animation",
            source="ffmpeg",
            codec="h264",
            chunk_duration_s=chunk_duration_s,
            cap_ratio=2.0,
            duration_s=num_chunks * chunk_duration_s,
        )
        _VIDEOS[key] = build_video(spec, seed=num_chunks)
    return _VIDEOS[key]


_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=2e5, max_value=2e7, allow_nan=False, allow_infinity=False),
)
_trace_rates = st.lists(_rate, min_size=1, max_size=90).filter(
    lambda rates: any(r > 0 for r in rates)
)


@st.composite
def _configs(draw):
    startup = draw(st.sampled_from([2.0, 4.0, 10.0]))
    max_buffer = draw(st.sampled_from([startup, 8.0, 20.0, 100.0]))
    return SessionConfig(startup_latency_s=startup, max_buffer_s=max(startup, max_buffer))


def test_probe_accepts_every_batch_decider():
    assert sorted(BATCHABLE) == sorted(BATCHABLE_SCHEMES)


@pytest.mark.parametrize("scheme", BATCHABLE)
@settings(max_examples=15, deadline=None)
@given(
    num_chunks=st.integers(min_value=4, max_value=14),
    chunk_duration_s=st.sampled_from([2.0, 4.0]),
    rates=st.lists(_trace_rates, min_size=2, max_size=5),
    interval_s=st.sampled_from([0.5, 1.0, 2.0]),
    config=_configs(),
    max_lanes=st.integers(min_value=1, max_value=3),
)
# Batch MPC once pruned this session's true first argmax: two plans with
# equal real-valued base scores rounded an ulp apart (see _survivor_plans).
@example(
    num_chunks=13,
    chunk_duration_s=4.0,
    rates=[[0.0, 0.0, 0.0, 4.75e6]],
    interval_s=0.5,
    config=SessionConfig(startup_latency_s=2.0, max_buffer_s=2.0),
    max_lanes=1,
)
def test_every_lane_equals_reference(
    scheme, num_chunks, chunk_duration_s, rates, interval_s, config, max_lanes
):
    video = short_video(num_chunks, chunk_duration_s)
    traces = [
        NetworkTrace(f"r{i}", interval_s, np.asarray(lane))
        for i, lane in enumerate(rates)
    ]
    batched = run_batch_sessions(
        scheme, video, traces, network=NETWORK, config=config, max_lanes=max_lanes
    )
    assert batched is not None
    summaries = run_batch_metrics(
        scheme, video, traces, network=NETWORK, config=config, max_lanes=max_lanes
    )
    assert len(summaries) == len(batched) == len(traces)
    manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
    metric = metric_for_network(NETWORK)
    for trace, lane, summary in zip(traces, batched, summaries):
        expected = reference_vod_session(
            make_scheme(scheme, metric=metric), manifest, TraceLink(trace), config
        )
        assert lane.to_dict() == expected.to_dict()
        assert summary == summarize_session(expected, video, metric)


@pytest.mark.parametrize("scheme", ["CAVA", "RBA"])
def test_buffer_cap_below_one_chunk(scheme):
    """A cap smaller than one chunk asks for more idle than the buffer
    holds: the buffer empties to zero, it never goes negative (which
    would inflate the next download's stall)."""
    video = short_video(4, 4.0)
    traces = [NetworkTrace(f"c{i}", 0.5, np.array([2e5 * (i + 1)])) for i in range(2)]
    config = SessionConfig(startup_latency_s=2.0, max_buffer_s=2.0)
    batched = run_batch_sessions(scheme, video, traces, network=NETWORK, config=config)
    manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
    metric = metric_for_network(NETWORK)
    for trace, lane in zip(traces, batched):
        expected = reference_vod_session(
            make_scheme(scheme, metric=metric), manifest, TraceLink(trace), config
        )
        assert lane.to_dict() == expected.to_dict()
        assert lane.cap_idle_s.max() > 0.0
