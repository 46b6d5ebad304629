"""Bit-identity of a stacked link plane whose lanes share rows.

When several schemes share one lockstep slice, ``StackedLinks`` holds
one row per distinct trace and maps each lane to a row: the CAVA and
RBA lanes of trace ``j`` search the same row. Each lane's finish time
must still be the exact double ``TraceLink.download`` over that row's
trace returns, whatever the map: duplicated rows, rows in any order,
rows no lane uses, and lanes at different clocks on one row.

Equality is ``==`` on float64, never approx.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import StackedLinks, TraceLink
from repro.network.traces import NetworkTrace, synthesize_lte_traces

_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e4, max_value=1e8, allow_nan=False, allow_infinity=False),
)
_timeline = st.lists(_rate, min_size=1, max_size=8).filter(
    lambda rates: any(r > 0 for r in rates)
)
_download = st.tuples(
    st.floats(min_value=1.0, max_value=1e8, allow_nan=False),  # size_bits
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),  # start_s
)


def _assert_lanes_match_rows(links, rows, sizes, starts):
    stacked = StackedLinks(links, rows)
    assert stacked.lanes == len(rows)
    assert stacked.trace_names == [links[row].trace.name for row in rows]
    batch = stacked.download_finish(np.asarray(sizes, float), np.asarray(starts, float))
    scalar = [
        links[row].download(size, start).finish_s
        for row, size, start in zip(rows, sizes, starts)
    ]
    assert batch.tolist() == scalar


@settings(max_examples=200, deadline=None)
@given(
    timelines=st.lists(_timeline, min_size=1, max_size=5),
    interval_s=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_row_map_bit_identical_random(timelines, interval_s, data):
    links = [
        TraceLink(NetworkTrace(f"t{i}", interval_s, np.array(rates)))
        for i, rates in enumerate(timelines)
    ]
    rows = data.draw(
        st.lists(st.integers(0, len(links) - 1), min_size=1, max_size=10), label="rows"
    )
    downloads = data.draw(
        st.lists(_download, min_size=len(rows), max_size=len(rows)), label="downloads"
    )
    sizes = [size for size, _ in downloads]
    starts = [start for _, start in downloads]
    _assert_lanes_match_rows(links, rows, sizes, starts)


def test_tiled_rows_equal_one_plane_per_group():
    """The sweep's layout: every trace once per scheme group. Each group's
    lanes equal a plane of its own over the same traces."""
    links = [TraceLink(trace) for trace in synthesize_lte_traces(count=6, seed=3)]
    rows = np.tile(np.arange(len(links)), 3)
    rng = np.random.default_rng(5)
    sizes = rng.uniform(1e5, 2e7, size=rows.size)
    starts = rng.uniform(0.0, 900.0, size=rows.size)
    shared = StackedLinks(links, rows).download_finish(sizes, starts)
    alone = StackedLinks(links)
    for group in range(3):
        lanes = slice(group * len(links), (group + 1) * len(links))
        assert (
            shared[lanes].tolist()
            == alone.download_finish(sizes[lanes], starts[lanes]).tolist()
        )
    _assert_lanes_match_rows(links, rows.tolist(), sizes, starts)


def test_unused_and_ragged_rows_inert():
    # A long row no lane maps to, and a short row read by two lanes at
    # once: neither the padding nor the idle row may move a crossing.
    short = TraceLink(NetworkTrace("s", 1.0, np.array([1e6])))
    idle = TraceLink(NetworkTrace("i", 1.0, np.array([5e5] * 7 + [0.0])))
    zero_run = TraceLink(NetworkTrace("z", 1.0, np.array([1e6, 0.0, 0.0, 2e6])))
    _assert_lanes_match_rows(
        [short, idle, zero_run],
        [2, 0, 2, 0],
        [2e6, 3e6, 1.5e6, 3e6],
        [1.25, 0.75, 0.5, 7.0],
    )


@pytest.mark.parametrize("rows", [[], [0, 2], [-1]])
def test_rows_out_of_range_rejected(rows):
    links = [TraceLink(NetworkTrace("a", 1.0, np.array([1e6])))] * 2
    with pytest.raises(ValueError):
        StackedLinks(links, rows)
