"""Tests for the shared-memory worker data plane.

Two load-bearing properties: attached views must be *bit-equal* to the
source arrays (the data plane may never change results), and the
per-task payload on the pool's wire must stay a few integers — the
whole point of publishing assets once instead of pickling them per
worker or per task.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import executors, parallel
from repro.experiments.dataplane import SharedDataPlane, attach_plane
from repro.experiments.parallel import (
    SHM_ATTACHED_WORKERS_METRIC,
    SHM_BLOCKS_METRIC,
    SHM_BYTES_METRIC,
    ParallelSweepRunner,
)
from repro.experiments.runner import run_comparison
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.fingerprint import fleet_fingerprint
from repro.network.link import TraceLink, cumulative_bits_table
from repro.telemetry.metrics import MetricsRegistry

SCHEMES = ["CAVA", "RBA"]


def _assert_comparisons_identical(expected, actual):
    assert list(expected) == list(actual)
    for scheme in expected:
        assert expected[scheme].metrics == actual[scheme].metrics


class TestPublishAttachRoundtrip:
    @pytest.fixture()
    def plane(self, short_video, lte_traces):
        plane = SharedDataPlane.publish(
            {short_video.name: short_video}, {None: lte_traces[:4]}
        )
        yield plane
        plane.close_and_unlink()

    def test_views_are_bit_equal_and_read_only(
        self, plane, short_video, lte_traces
    ):
        videos, traces_by_plan, shm = attach_plane(plane.manifest)
        try:
            rebuilt = videos[short_video.name]
            assert rebuilt.name == short_video.name
            assert rebuilt.chunk_duration_s == short_video.chunk_duration_s
            for track, original in zip(rebuilt.tracks, short_video.tracks):
                assert np.array_equal(
                    track.chunk_sizes_bits, original.chunk_sizes_bits
                )
                assert not track.chunk_sizes_bits.flags.writeable
                for metric, values in original.qualities.items():
                    assert np.array_equal(track.qualities[metric], values)
            assert np.array_equal(rebuilt.complexity, short_video.complexity)

            for trace, original in zip(traces_by_plan[None], lte_traces[:4]):
                assert trace.name == original.name
                assert np.array_equal(
                    trace.throughputs_bps, original.throughputs_bps
                )
                assert not trace.throughputs_bps.flags.writeable
                # The published cumulative table is the one TraceLink
                # would compute locally — same function, same bits.
                assert np.array_equal(
                    trace.shared_cumulative_bits, cumulative_bits_table(original)
                )
        finally:
            shm.close()

    def test_attached_trace_digest_matches_source(self, plane, lte_traces):
        _videos, traces_by_plan, shm = attach_plane(plane.manifest)
        try:
            for trace, original in zip(traces_by_plan[None], lte_traces[:4]):
                assert trace.digest() == original.digest()
        finally:
            shm.close()

    def test_link_from_shared_table_matches_local_build(self, plane, lte_traces):
        _videos, traces_by_plan, shm = attach_plane(plane.manifest)
        try:
            shared_link = TraceLink(traces_by_plan[None][0])
            local_link = TraceLink(lte_traces[0])
            for size_bits, start_s in ((4e6, 0.0), (1.2e7, 3.7), (2.5e5, 41.0)):
                assert shared_link.download(size_bits, start_s) == local_link.download(
                    size_bits, start_s
                )
        finally:
            shm.close()

    def test_unlink_is_idempotent(self, short_video, lte_traces):
        plane = SharedDataPlane.publish(
            {short_video.name: short_video}, {None: lte_traces[:2]}
        )
        assert plane.nbytes > 0
        plane.close_and_unlink()
        plane.close_and_unlink()  # second call is a no-op, not an error
        with pytest.raises(FileNotFoundError):
            attach_plane(plane.manifest)


class _PayloadMeasuringPool(parallel.ProcessPoolExecutor):
    """Pool that records the pickled size of every task's payload."""

    payload_sizes = []

    def submit(self, fn, *args, **kwargs):
        type(self).payload_sizes.append(len(pickle.dumps((args, kwargs))))
        return super().submit(fn, *args, **kwargs)


class TestZeroCopyDataPlaneInSweeps:
    def test_per_task_payload_is_three_integers(
        self, monkeypatch, short_video, engine_traces
    ):
        _PayloadMeasuringPool.payload_sizes = []
        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", _PayloadMeasuringPool
        )
        engine = ParallelSweepRunner(n_workers=2, min_parallel_sessions=0)
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        sizes = _PayloadMeasuringPool.payload_sizes
        assert sizes, "pool path was not exercised"
        # (spec_idx, start, stop): a constant few dozen bytes per task,
        # no matter how large the videos and traces are.
        assert max(sizes) < 128
        assert len(set(sizes)) <= 2  # int widths, not asset sizes

    def test_shared_and_inline_paths_bit_identical(
        self, monkeypatch, short_video, engine_traces
    ):
        # Wide enough units that the lockstep engine reads the views.
        traces = engine_traces
        baseline = run_comparison(SCHEMES, short_video, traces)
        shared = ParallelSweepRunner(
            n_workers=2, min_parallel_sessions=0
        ).run_comparison(SCHEMES, short_video, traces)
        # No shared memory: assets ride the initializer pickles instead.
        monkeypatch.setattr(executors, "try_publish", lambda videos, traces: None)
        inline = ParallelSweepRunner(
            n_workers=2, min_parallel_sessions=0
        ).run_comparison(SCHEMES, short_video, traces)
        _assert_comparisons_identical(baseline, shared)
        _assert_comparisons_identical(baseline, inline)

    def test_fleet_inline_path_matches_serial(self, monkeypatch):
        spec = FleetSpec(
            seed=0, duration_s=300.0, n_edges=2, arrivals_per_s=0.5,
            videos=("ED-youtube-h264",),
        )
        serial = fleet_fingerprint(run_fleet(spec, n_workers=1))
        monkeypatch.setattr(executors, "try_publish", lambda videos, traces: None)
        inline = fleet_fingerprint(run_fleet(spec, n_workers=2, mp_context="fork"))
        assert inline == serial

    def test_shm_telemetry_reported(self, short_video, engine_traces):
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(
            n_workers=2, min_parallel_sessions=0, registry=registry
        )
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        assert registry.gauge(SHM_BLOCKS_METRIC).value == 1
        assert registry.gauge(SHM_BYTES_METRIC).value > 0
        attached = registry.counter(SHM_ATTACHED_WORKERS_METRIC).value
        assert 1 <= attached <= 2
