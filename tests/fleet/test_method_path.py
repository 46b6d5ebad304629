"""The fused edge loop against the method-path edge loop, bit for bit.

``_EdgeSimulator._loop`` is the copy of the shared-link event step that
every fleet run executes. :class:`tests.fleet.reference.MethodPathEdge`
runs the same merge through the per-call completion query and
retirement of :mod:`tests.network.reference`, the simulator's
``_advance_slow`` and ``_dispatch``. On contended populations — VoD and
live viewers, several schemes, with and without a fault plan whose
latency spikes delay transfer starts — both must produce the same
:class:`~repro.fleet.sim.EdgeResult` in every bucket byte and scalar,
and so the same fleet fingerprint.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.faults.spec import parse_fault_plan
from repro.fleet.fingerprint import fleet_fingerprint
from repro.fleet.runner import FleetResult, _edge_traces
from repro.fleet.sim import EdgeResult, simulate_edge
from repro.fleet.spec import FleetSpec
from tests.fleet.reference import MethodPathEdge

SCHEMES = ("CAVA", "RBA", "BBA-1", "BOLA-E (seg)")
#: A trace fault (outages rewrite the capacity trace, zero-rate runs
#: included) plus latency spikes (held requests start on an _EV_XFER
#: timer).
FAULTS = "outages:p=0.1,len=3,seed=7+latency:p=0.3,spike_s=1.0,seed=3"
#: Run-local fields: the wall clock, CPU time and stage timing differ
#: between any two runs.
RUN_LOCAL_FIELDS = ("started_at", "wall_s", "cpu_s", "stages")


@pytest.fixture(scope="module")
def fleet_videos(ed_youtube_video, bbb_youtube_video):
    return {
        "ED-youtube-h264": ed_youtube_video,
        "BBB-youtube-h264": bbb_youtube_video,
    }


def contended_spec(seed=0, faults=None, **overrides):
    """Two edges far below their viewers' demand (~100 concurrent
    transfers on 15 Mbps), so every completion is a shared one."""
    fields = dict(
        seed=seed,
        duration_s=300.0,
        n_edges=2,
        arrivals_per_s=2.0,
        edge_capacity_mbps=15.0,
        videos=("ED-youtube-h264", "BBB-youtube-h264"),
        schemes=SCHEMES,
        live_fraction=0.3,
        bucket_s=30.0,
        fault_plan=parse_fault_plan(faults) if faults else None,
    )
    fields.update(overrides)
    return FleetSpec(**fields)


def run_both(spec, videos):
    """Every edge of ``spec`` on the fused loop and on the method path."""
    traces = _edge_traces(spec)
    fused = [simulate_edge(spec, i, videos, trace) for i, trace in enumerate(traces)]
    edges = [MethodPathEdge(spec, i, videos, trace) for i, trace in enumerate(traces)]
    return fused, edges, [edge.run() for edge in edges]


def assert_edge_results_identical(got, want):
    for f in dataclasses.fields(EdgeResult):
        if f.name in RUN_LOCAL_FIELDS:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, (f.name, a, b)


def assert_fleets_identical(spec, fused, method):
    for got, want in zip(fused, method):
        assert_edge_results_identical(got, want)
    assert fleet_fingerprint(FleetResult(spec, fused, 0.0)) == fleet_fingerprint(
        FleetResult(spec, method, 0.0)
    )


class TestFusedLoopEqualsMethodPath:
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faulted"])
    def test_contended_population(self, fleet_videos, faults):
        spec = contended_spec(faults=faults)
        fused, edges, method = run_both(spec, fleet_videos)
        assert_fleets_identical(spec, fused, method)
        # The populations reach what the comparison is about: contended
        # transfers, VoD and live viewers, and (faulted) delayed starts.
        assert all(r.peak_downloads > 10 for r in fused)
        assert all(0 < r.live_sessions < r.sessions for r in fused)
        if faults:
            assert all(edge.delayed_starts > 0 for edge in edges)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        capacity_mbps=st.sampled_from([4.0, 15.0, 60.0]),
        live_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        faulted=st.booleans(),
    )
    # No shrink phase: the draw is four scalars, readable as drawn, and
    # shrinking a failing edge pair reruns it for minutes.
    @settings(
        max_examples=10,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    def test_drawn_populations(
        self, fleet_videos, seed, capacity_mbps, live_fraction, faulted
    ):
        spec = contended_spec(
            seed=seed,
            faults=FAULTS if faulted else None,
            duration_s=200.0,
            edge_capacity_mbps=capacity_mbps,
            live_fraction=live_fraction,
        )
        fused, _edges, method = run_both(spec, fleet_videos)
        assert_fleets_identical(spec, fused, method)
