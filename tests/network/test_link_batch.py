"""Bit-identity of the stacked batch data plane vs the scalar link.

The lockstep batch engine's whole correctness story rests on
``StackedLinks.download_finish`` producing, per lane, the exact double
``TraceLink.download`` would: golden sweep snapshots are only an oracle
for the trace sets they cover, so this module property-tests the
contract over randomized traces, sizes, and start times — including the
branches the fluid model makes interesting (zero-rate intervals, period
wrap, interval boundaries, and the positive-duration floor).

Equality below is ``==`` on float64, never approx: one ULP of drift in a
finish time cascades into different chunk decisions downstream.
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import MIN_DOWNLOAD_DURATION_S, StackedLinks, TraceLink
from repro.network.traces import NetworkTrace, synthesize_lte_traces

# Throughputs mix zero-rate intervals (queued downloads) with realistic
# rates; a trace of only zeros never delivers a bit, so at least one
# interval must be positive.
_rate = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e4, max_value=1e8, allow_nan=False, allow_infinity=False),
)
_timeline = st.lists(_rate, min_size=1, max_size=8).filter(
    lambda rates: any(r > 0 for r in rates)
)
_lane = st.tuples(
    _timeline,
    st.floats(min_value=1.0, max_value=1e8, allow_nan=False),  # size_bits
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),  # start_s
)


def _assert_stack_matches_scalar(links, sizes, starts):
    stacked = StackedLinks(links)
    batch = stacked.download_finish(np.asarray(sizes, float), np.asarray(starts, float))
    scalar = [
        link.download(size, start).finish_s
        for link, size, start in zip(links, sizes, starts)
    ]
    assert batch.tolist() == scalar


@settings(max_examples=200, deadline=None)
@given(
    lanes=st.lists(_lane, min_size=1, max_size=6),
    interval_s=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_download_finish_bit_identical_random(lanes, interval_s):
    links = [
        TraceLink(NetworkTrace(f"t{i}", interval_s, np.array(rates)))
        for i, (rates, _, _) in enumerate(lanes)
    ]
    sizes = [size for _, size, _ in lanes]
    starts = [start for _, _, start in lanes]
    _assert_stack_matches_scalar(links, sizes, starts)


@settings(max_examples=100, deadline=None)
@given(
    rates=_timeline,
    size=st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
    period_count=st.integers(min_value=0, max_value=5),
    boundary_index=st.integers(min_value=0, max_value=8),
)
def test_download_finish_bit_identical_at_boundaries(
    rates, size, period_count, boundary_index
):
    """Starts pinned to exact interval and period boundaries.

    These are where the scalar path's branch structure lives — the wrap
    fold, the ``remainder >= period`` guard, the already-crossed branch
    of the offset select — so the property test forces them explicitly
    instead of hoping random floats land there.
    """
    interval_s = 1.0
    link = TraceLink(NetworkTrace("b", interval_s, np.array(rates)))
    period = len(rates) * interval_s
    start = period_count * period + (boundary_index % len(rates)) * interval_s
    _assert_stack_matches_scalar([link], [size], [start])


def test_zero_rate_run_crossed_exactly():
    # The download starts inside a zero-rate run and completes in the
    # next positive interval: the zero-rate branch must advance to the
    # interval end, not divide by the rate.
    trace = NetworkTrace("z", 1.0, np.array([1e6, 0.0, 0.0, 2e6]))
    _assert_stack_matches_scalar(
        [TraceLink(trace)] * 3, [1.5e6, 2e6, 3e6], [0.5, 1.25, 2.0]
    )


def test_period_boundary_and_huge_start():
    trace = NetworkTrace("p", 0.5, np.array([2e6, 1e6]))
    links = [TraceLink(trace)] * 4
    # Start exactly on a period boundary, far past the trace end, and on
    # an interval edge; the last lane exercises the duration floor.
    sizes = [1e6, 2.5e6, 1e6, 1e-0]
    starts = [1.0, 1e4, 10.5, 3.0]
    _assert_stack_matches_scalar(links, sizes, starts)


def test_duration_floor_applies_per_lane():
    trace = NetworkTrace("f", 1.0, np.array([1e9]))
    links = [TraceLink(trace)] * 2
    stacked = StackedLinks(links)
    sizes = np.array([1.0, 1e9])
    starts = np.array([0.0, 0.0])
    batch = stacked.download_finish(sizes, starts)
    assert batch[0] == links[0].download(1.0, 0.0).finish_s
    assert batch[0] >= MIN_DOWNLOAD_DURATION_S
    assert batch[1] == links[1].download(1e9, 0.0).finish_s


def test_ragged_lane_widths_padding_inert():
    # Lanes with different table widths share one padded matrix; the
    # +inf padding must never win a crossing search for the short lane.
    short = TraceLink(NetworkTrace("s", 1.0, np.array([1e6])))
    long = TraceLink(NetworkTrace("l", 1.0, np.array([5e5] * 7 + [0.0])))
    _assert_stack_matches_scalar([short, long], [3e6, 4.2e6], [0.75, 6.5])


# ---------------------------------------------------------------------------
# Long and ragged rows. Each padded row is as wide as the longest table
# plus one +inf entry, so these cases use traces long enough to give
# rows hundreds of entries, lanes of different lengths, and targets
# pinned to table entries every BLOCK entries ("block edges": a fixed
# spacing that spreads the pinned targets over the whole row).
# ---------------------------------------------------------------------------

BLOCK = 32


def _long_rates(num_intervals, seed, zero_runs):
    """Random positive rates with zero-rate runs straddling block edges.

    ``zero_runs`` lists (block edge, run before it, run after it); a run
    that covers table entry ``edge`` makes the block-last entry equal to
    its neighbours, the earliest-crossing tie the search must honour.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(1e4, 1e8, num_intervals)
    for edge, before, after in zero_runs:
        rates[max(edge - before, 0) : edge + after] = 0.0
    if not (rates > 0).any():
        rates[-1] = 1e6
    return rates


_zero_run = st.tuples(
    st.integers(min_value=1, max_value=1500 // BLOCK),  # block number
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
).map(lambda run: (run[0] * BLOCK - 1, run[1], run[2]))

_long_lane = st.tuples(
    st.integers(min_value=1, max_value=1500),  # intervals
    st.integers(min_value=0, max_value=2**32 - 1),  # rate seed
    st.lists(_zero_run, max_size=3),
)


def _block_edge_targets(link):
    """Table entries at block edges and their nextafter neighbours."""
    cum = link._cumulative_bits
    targets = []
    for k in range(BLOCK - 1, len(cum), BLOCK):
        value = float(cum[k])
        targets += [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]
    last = float(cum[-1])
    targets += [np.nextafter(last, -np.inf), float(cum[min(BLOCK, len(cum) - 1)])]
    return [t for t in targets if 0.0 < t < np.inf]


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(_long_lane, min_size=1, max_size=5),
    interval_s=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_download_finish_multi_block_rows(lanes, interval_s, data):
    """Random starts and sizes over rows up to 1501 entries wide."""
    links = [
        TraceLink(
            NetworkTrace(f"m{i}", interval_s, _long_rates(n, seed, runs))
        )
        for i, (n, seed, runs) in enumerate(lanes)
    ]
    sizes = [
        data.draw(st.floats(min_value=1.0, max_value=5e9)) for _ in links
    ]
    starts = [
        data.draw(
            st.floats(min_value=0.0, max_value=2.5 * link.trace.duration_s)
        )
        for link in links
    ]
    _assert_stack_matches_scalar(links, sizes, starts)


@settings(max_examples=40, deadline=None)
@given(lanes=st.lists(_long_lane, min_size=1, max_size=4), data=st.data())
def test_download_finish_targets_on_block_edges(lanes, data):
    """A download from time 0 crosses at exactly its size in bits, so a
    size equal to a block-last table entry (or one ULP either side)
    lands the search on the block boundary itself."""
    links = [
        TraceLink(NetworkTrace(f"e{i}", 1.0, _long_rates(n, seed, runs)))
        for i, (n, seed, runs) in enumerate(lanes)
    ]
    sizes = [data.draw(st.sampled_from(_block_edge_targets(link))) for link in links]
    _assert_stack_matches_scalar(links, sizes, [0.0] * len(links))


def test_bisect_left_matches_bisect_on_every_block_edge():
    # Ragged rows ending mid-block, zero-rate runs across block edges.
    links = [
        TraceLink(NetworkTrace(f"r{n}", 1.0, _long_rates(n, n, [(63, 5, 9), (95, 40, 1)])))
        for n in (40, 70, 100, 129, 200)
    ]
    stacked = StackedLinks(links)
    for k in range(len(links)):
        for target in _block_edge_targets(links[k]):
            within = np.zeros(len(links))
            within[k] = target
            found = stacked._bisect_left(within)
            assert found[k] == bisect_left(links[k]._cumulative_bits.tolist(), target)


def test_rows_ending_one_entry_apart():
    # The shorter row's last finite entry sits right before the longer
    # row's, so one row has two +inf entries and the other exactly one.
    rates = _long_rates(70, 7, [(31, 3, 2)])
    links = [
        TraceLink(NetworkTrace("a", 1.0, rates[:-1])),
        TraceLink(NetworkTrace("b", 1.0, rates)),
    ]
    stacked = StackedLinks(links)
    assert stacked._cum_flat.size == 2 * (len(rates) + 2)
    for k, link in enumerate(links):
        cum = link._cumulative_bits.tolist()
        for target in _block_edge_targets(link) + [cum[-1], cum[-2]]:
            within = np.zeros(len(links))
            within[k] = target
            assert stacked._bisect_left(within)[k] == bisect_left(cum, target)
    # From time 0, a size one ULP below a row's total crosses in its
    # last interval.
    sizes = [np.nextafter(link._cumulative_bits[-1], -np.inf) for link in links]
    _assert_stack_matches_scalar(links, sizes, [0.0, 0.0])


def test_download_finish_lte_width_1081():
    """The sweep's real data plane: 64 LTE traces, 1081-entry rows."""
    traces = synthesize_lte_traces(count=64, seed=1)
    links = [TraceLink(trace) for trace in traces]
    assert max(link._num_intervals for link in links) + 1 == 1081
    rng = np.random.default_rng(1)
    for _ in range(20):
        sizes = rng.uniform(1e4, 2e7, len(links))
        starts = rng.uniform(0.0, 2500.0, len(links))
        _assert_stack_matches_scalar(links, sizes.tolist(), starts.tolist())
    edge_sizes = [_block_edge_targets(link)[i % 30] for i, link in enumerate(links)]
    _assert_stack_matches_scalar(links, edge_sizes, [0.0] * len(links))
