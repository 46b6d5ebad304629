"""Schemes sharing one lockstep slice vs each scheme's slice of its own.

A sweep runs the schemes of a co-unit as decider groups of one slice:
one stacked link plane with a row per trace, one clock/buffer step and
one estimator for every lane, each decider on its own lane range. Each
group's record must equal the record its scheme produces alone over the
same traces, matrix for matrix and bit for bit (the solo slice is pinned
to the reference §6.1 loop by ``test_lockstep.py``). The grids cover a
quality-manifest scheme beside size-only ones, a buffer cap that binds
on some lanes only, duplicated traces, planner groups beside CAVA under
a small ``PLANNER_LANE_CAP`` (several slices), and two lanes of one
group reading one plane row. Every mix shares one slice on the engine;
the batch layer joins only schemes with one lane cap and refuses a mix.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments import batch as batch_mod
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.batch import _lockstep_records, run_batch_metrics
from repro.network.link import StackedLinks, TraceLink
from repro.network.traces import NetworkTrace
from repro.player.metrics import metric_for_network
from repro.player.session import LockstepGroup, SessionConfig, run_lockstep_sessions
from tests.experiments.test_batch import BATCHABLE_SCHEMES
from tests.player.test_lockstep import short_video

NETWORK = "lte"
METRIC = metric_for_network(NETWORK)
FIELDS = (
    "levels",
    "sizes_bits",
    "download_start_s",
    "download_finish_s",
    "stall_s",
    "buffer_after_s",
    "cap_idle_s",
    "startup_delay_s",
)


def _assert_records_equal(shared, alone):
    assert (shared.scheme, shared.video_name) == (alone.scheme, alone.video_name)
    assert list(shared.trace_names) == list(alone.trace_names)
    for field in FIELDS:
        assert getattr(shared, field).tolist() == getattr(alone, field).tolist(), field


def _lanes(records, field):
    """``field`` of every lane of ``records``, slices joined in order."""
    return np.concatenate([getattr(record, field) for record in records], axis=-1)


def _engine_slices(schemes, video, traces, config):
    """Every scheme's record from one slice shared by all of ``schemes``
    (one plane row per trace), and each scheme's record alone."""
    links = [TraceLink(trace) for trace in traces]
    n = len(traces)

    def group(scheme):
        manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
        algorithm = make_scheme(scheme, metric=METRIC)
        return LockstepGroup(
            algorithm.name, manifest, algorithm.batch_decider(manifest, n), n
        )

    rows = np.tile(np.arange(n), len(schemes))
    shared = run_lockstep_sessions(
        [group(scheme) for scheme in schemes], StackedLinks(links, rows), config
    )
    alone = [
        run_lockstep_sessions([group(scheme)], StackedLinks(links), config)[0]
        for scheme in schemes
    ]
    return shared, alone


def _cap_families(schemes):
    """``schemes`` split by decider lane cap, each family in order."""
    families = {}
    for scheme in schemes:
        cap = batch_mod._lane_cap(make_scheme(scheme, metric=METRIC))
        families.setdefault(cap, []).append(scheme)
    return list(families.values())


def _assert_groups_equal_solo(schemes, video, traces, config, max_lanes=None):
    # The engine: any mix of deciders shares one slice.
    for shared, alone in zip(*_engine_slices(schemes, video, traces, config)):
        _assert_records_equal(shared, alone)
    # The batch layer: only schemes with one lane cap share its slices.
    cache = ArtifactCache()
    families = _cap_families(schemes)
    if len(families) > 1:
        with pytest.raises(ValueError, match="different lane caps"):
            _lockstep_records(
                schemes, video, traces, NETWORK, config, cache, None, None, None, None
            )
    for family in families:
        _assert_family_equals_solo(family, video, traces, config, max_lanes, cache)


def _assert_family_equals_solo(schemes, video, traces, config, max_lanes, cache):
    shared = _lockstep_records(
        schemes, video, traces, NETWORK, config, cache, None, max_lanes, None, None
    )
    for scheme, records in zip(schemes, shared):
        [alone] = _lockstep_records(
            [scheme], video, traces, NETWORK, config, cache, None, max_lanes, None, None
        )
        assert records is not None and alone is not None
        assert {record.scheme for record in records} == {alone[0].scheme}
        names = [name for record in records for name in record.trace_names]
        assert names == [name for record in alone for name in record.trace_names]
        for field in FIELDS:
            assert _lanes(records, field).tolist() == _lanes(alone, field).tolist()
    summaries = run_batch_metrics(
        schemes, video, traces, NETWORK, config, cache, max_lanes=max_lanes
    )
    for scheme, metrics in zip(schemes, summaries):
        [solo] = run_batch_metrics(
            [scheme], video, traces, NETWORK, config, cache, max_lanes=max_lanes
        )
        assert metrics == solo


def _mixed_traces():
    """Fast lanes whose buffers reach the cap beside slow lanes that stall
    and never do, with the first trace repeated at the end."""
    rates = [2e7, 4e4, 1.2e7, 5e4, 8e6]
    traces = [
        NetworkTrace(f"t{j}", 1.0, np.array([rate, rate * 0.7, 0.0, rate * 1.3]))
        for j, rate in enumerate(rates)
    ]
    return traces + [traces[0]]


@pytest.mark.parametrize(
    "schemes", [list(pair) for pair in combinations(BATCHABLE_SCHEMES, 2)]
)
def test_every_pair_equals_solo_runs(schemes):
    video = short_video(14, 2.0)
    config = SessionConfig(startup_latency_s=6.0, max_buffer_s=10.0)
    traces = _mixed_traces()
    _assert_groups_equal_solo(schemes, video, traces, config)
    # The cap binds on some lanes of the slice only.
    [records] = _lockstep_records(
        schemes[:1], video, traces, NETWORK, config, ArtifactCache(),
        None, None, None, None,
    )
    capped = records[0].cap_idle_s.max(axis=0) > 0.0
    assert capped.any() and not capped.all()


def test_planner_groups_beside_cava_under_the_planner_cap(monkeypatch):
    """Planners share a slice with CAVA on the engine; the batch layer
    slices planner groups at the planner's cap and never joins them with
    CAVA, whose slices stay wide."""
    monkeypatch.setattr(batch_mod, "PLANNER_LANE_CAP", 2)
    video = short_video(12, 2.0)
    config = SessionConfig(startup_latency_s=4.0, max_buffer_s=8.0)
    traces = _mixed_traces()
    schemes = ["CAVA", "MPC", "PANDA/CQ max-sum"]
    assert _cap_families(schemes) == [["CAVA"], ["MPC", "PANDA/CQ max-sum"]]
    cache = ArtifactCache()
    planners = _lockstep_records(
        schemes[1:], video, traces, NETWORK, config, cache, None, None, None, None
    )
    assert [len(records) for records in planners] == [3, 3]
    [cava] = _lockstep_records(
        schemes[:1], video, traces, NETWORK, config, cache, None, None, None, None
    )
    assert len(cava) == 1
    _assert_groups_equal_solo(schemes, video, traces, config)


def test_lanes_of_one_group_may_share_a_row():
    """Two lanes of one group reading one plane row, and rows in any
    order: each group still equals its own plane."""
    video = short_video(10, 2.0)
    config = SessionConfig(startup_latency_s=4.0, max_buffer_s=8.0)
    traces = _mixed_traces()[:3]
    links = [TraceLink(trace) for trace in traces]
    rows = [[2, 0, 0], [1, 2, 1]]
    groups = []
    for scheme in ("RBA", "PANDA/CQ max-min"):
        manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
        algorithm = make_scheme(scheme, metric=METRIC)
        decider = algorithm.batch_decider(manifest, 3)
        groups.append(LockstepGroup(algorithm.name, manifest, decider, 3))
    shared = run_lockstep_sessions(groups, StackedLinks(links, sum(rows, [])), config)
    for group, lane_rows, record in zip(groups, rows, shared):
        algorithm = make_scheme(group.scheme, metric=METRIC)
        [alone] = run_lockstep_sessions(
            [
                LockstepGroup(
                    group.scheme,
                    group.manifest,
                    algorithm.batch_decider(group.manifest, 3),
                    3,
                )
            ],
            StackedLinks([links[row] for row in lane_rows]),
            config,
        )
        _assert_records_equal(record, alone)


_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=2e5, max_value=2e7, allow_nan=False, allow_infinity=False),
)
_trace_rates = st.lists(_rate, min_size=1, max_size=40).filter(
    lambda rates: any(r > 0 for r in rates)
)


@settings(max_examples=25, deadline=None)
@given(
    schemes=st.lists(st.sampled_from(BATCHABLE_SCHEMES), min_size=2, max_size=4),
    num_chunks=st.integers(min_value=4, max_value=12),
    rates=st.lists(_trace_rates, min_size=1, max_size=4),
    duplicate=st.booleans(),
    startup=st.sampled_from([2.0, 4.0]),
    max_buffer=st.sampled_from([2.0, 8.0, 100.0]),
    max_lanes=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)
def test_random_mixes_equal_solo_runs(
    schemes, num_chunks, rates, duplicate, startup, max_buffer, max_lanes
):
    video = short_video(num_chunks, 2.0)
    traces = [
        NetworkTrace(f"r{i}", 0.5, np.asarray(lane)) for i, lane in enumerate(rates)
    ]
    if duplicate:
        traces = traces + traces[:1]
    config = SessionConfig(
        startup_latency_s=startup, max_buffer_s=max(startup, max_buffer)
    )
    _assert_groups_equal_solo(schemes, video, traces, config, max_lanes)


def test_invalid_level_names_its_group():
    video = short_video(6, 2.0)
    manifest = video.manifest()
    traces = _mixed_traces()[:2]

    class Broken:
        def select_levels(self, ctx):
            return np.full(ctx.buffer_s.shape, manifest.num_tracks)

        def notify_downloads(self, *args):
            pass

    cava = make_scheme("CAVA", metric=METRIC)
    groups = [
        LockstepGroup("CAVA", manifest, cava.batch_decider(manifest, 2), 2),
        LockstepGroup("Broken", manifest, Broken(), 2),
    ]
    links = StackedLinks([TraceLink(trace) for trace in traces], [0, 1, 0, 1])
    with pytest.raises(ValueError, match="^Broken selected invalid level"):
        run_lockstep_sessions(groups, links)


def test_groups_must_cover_the_plane_and_share_chunk_sizes():
    video = short_video(6, 2.0)
    other = short_video(6, 4.0)
    links = StackedLinks([TraceLink(trace) for trace in _mixed_traces()[:2]])
    rba = make_scheme("RBA", metric=METRIC)

    def group(manifest, lanes):
        return LockstepGroup("RBA", manifest, rba.batch_decider(manifest, lanes), lanes)

    with pytest.raises(ValueError, match="cover 1 lanes"):
        run_lockstep_sessions([group(video.manifest(), 1)], links)
    with pytest.raises(ValueError, match="other chunks"):
        run_lockstep_sessions(
            [group(video.manifest(), 1), group(other.manifest(), 1)], links
        )
