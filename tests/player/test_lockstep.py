"""The lockstep batch engine vs the reference §6.1 loop, over random grids.

The golden snapshots pin the engine on a handful of fixed (video, trace)
pairs. This module pins it to :func:`tests.player.reference.
reference_vod_session` instead: for every scheme the capability probe
accepts, random short manifests, random traces (zero-rate runs, traces
shorter than the session so downloads wrap the period) and random
player settings, each lane of :func:`run_batch_sessions` must equal the
reference session on that lane's trace, field for field, and each entry
of :func:`run_batch_metrics` must equal ``summarize_session`` of that
reference session. A small ``max_lanes`` splits a grid into several
lockstep slices; ``max_lanes=None`` runs it as one slice, so the
engine's guards that test every lane at once see several lanes.
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
from tests.experiments.reference import lockstep_results, run_batch_sessions
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
    max_lanes=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
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
    [summaries] = run_batch_metrics(
        [scheme], video, traces, network=NETWORK, config=config, max_lanes=max_lanes
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


@pytest.mark.parametrize("scheme", BATCHABLE)
def test_unsplit_slice_with_lane_local_cap(scheme):
    """One slice mixing fast lanes, whose buffers reach the cap, with slow
    lanes, which stall and never reach it. Each lane reaches the startup
    target at its own time, but after the same chunk: before playback no
    lane drains its buffer, so every lane holds the same sum of chunk
    durations. The engine's one playback flag per slice rests on that."""
    video = short_video(14, 2.0)
    rates = [2e7, 4e4, 1.2e7, 5e4, 8e6, 3e4]
    traces = [
        NetworkTrace(f"t{j}", 1.0, np.array([rate, rate * 0.7, rate * 1.3]))
        for j, rate in enumerate(rates)
    ]
    config = SessionConfig(startup_latency_s=6.0, max_buffer_s=10.0)
    batched = run_batch_sessions(
        scheme, video, traces, network=NETWORK, config=config, max_lanes=None
    )
    manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
    metric = metric_for_network(NETWORK)
    start_chunks = set()
    for trace, lane in zip(traces, batched):
        expected = reference_vod_session(
            make_scheme(scheme, metric=metric), manifest, TraceLink(trace), config
        )
        assert lane.to_dict() == expected.to_dict()
        finishes = expected.download_finish_s.tolist()
        start_chunks.add(finishes.index(expected.startup_delay_s))
    capped = [lane.cap_idle_s.max() > 0.0 for lane in batched]
    assert any(capped) and not all(capped)
    assert len({lane.startup_delay_s for lane in batched}) == len(traces)
    assert len(start_chunks) == 1


class _SlowLinks:
    """The downloads of a link pair, one lane per link: lane 0 takes
    ``1e20`` s per chunk, lane 1 one second. Scalar twin of each lane:
    :class:`_SlowLink`."""

    def __init__(self, traces):
        self.lanes = len(traces)
        self.trace_names = [trace.name for trace in traces]
        self.durations = np.array([1e20, 1.0])

    def download_finish(self, size_bits, start_s):
        return start_s + self.durations


class _SlowLink:
    def __init__(self, trace, duration_s):
        self.trace = trace
        self.duration_s = duration_s

    def download(self, size_bits, start_s):
        from repro.network.link import DownloadResult

        return DownloadResult(start_s, start_s + self.duration_s, size_bits)


def test_extreme_samples_raise_no_warning():
    """Chunks of 1e-300 bits, downloaded in 1e20 s on one lane: the
    samples underflow into the estimator's clamp. The run must equal the
    reference lane by lane with every floating-point warning an error,
    and invalid observations must still raise ``ValueError``."""
    import warnings

    from repro.abr.rba import RateBasedAlgorithm
    from repro.network.estimator import BatchHarmonicMeanEstimator
    from repro.player.session import LockstepGroup, run_lockstep_sessions
    from repro.video.model import Manifest

    base = short_video(8, 2.0).manifest()
    manifest = Manifest(
        video_name="tiny",
        chunk_duration_s=base.chunk_duration_s,
        chunk_sizes_bits=base.chunk_sizes_bits * 1e-306,
        declared_avg_bitrates_bps=base.declared_avg_bitrates_bps,
        declared_peak_bitrates_bps=base.declared_peak_bitrates_bps,
        resolutions=base.resolutions,
    )
    traces = [NetworkTrace(f"x{j}", 1.0, np.array([1e6])) for j in range(2)]
    config = SessionConfig(startup_latency_s=4.0, max_buffer_s=8.0)
    algorithm = RateBasedAlgorithm()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [record] = run_lockstep_sessions(
            [
                LockstepGroup(
                    algorithm.name, manifest, algorithm.batch_decider(manifest, 2), 2
                )
            ],
            _SlowLinks(traces),
            config,
        )
        lanes = lockstep_results(record)
        for trace, lane, duration in zip(traces, lanes, (1e20, 1.0)):
            expected = reference_vod_session(
                RateBasedAlgorithm(), manifest, _SlowLink(trace, duration), config
            )
            assert lane.to_dict() == expected.to_dict()
        estimator = BatchHarmonicMeanEstimator(3)
        estimator.observe(np.array([1e-300, 1.7e308, 2e6]), np.array([1e20, 1e-300, 1.0]))
        assert np.isfinite(estimator.predict_bps()).all()
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                estimator.observe(np.array([1e6, bad, 1e6]), np.ones(3))
            with pytest.raises(ValueError):
                estimator.observe(np.ones(3), np.array([1e6, 1e6, bad]))
