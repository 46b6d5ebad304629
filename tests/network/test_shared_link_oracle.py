"""Property test: a warm completion query vs. a cold-replay oracle.

The shared link's hot-path state (the carried ``_cum_now``, the
crossing-interval hint on the trace link, stale-heap compaction) exists
to make the steady-state completion query cheap *without moving a
single bit*. The oracle here is a **shadow link** that replays the
identical operation schedule but is only ever queried cold — a fresh
link has no warmed hint and no compacted heap, so its answer is the
naive recompute. Whatever join/leave/advance/cancel schedule hypothesis
draws (including zero-rate trace runs and float-snap completions), the
two answers must be identical doubles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import TraceLink
from repro.network.traces import NetworkTrace
from tests.network.reference import ReferenceSharedLink

# Per-interval rates in bps; zeros exercise the zero-rate runs of the
# inverse-cumulative search (completions land past dead air).
_rates = st.lists(
    st.sampled_from([0.0, 0.0, 1e5, 1e6, 8e6, 5e7]),
    min_size=3,
    max_size=12,
)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.integers(min_value=0, max_value=5),
            # Sizes spanning 7 orders of magnitude: tiny flows complete
            # within an advance window and exercise the float-snap
            # (remaining <= 0) branch on the next query.
            st.floats(min_value=1.0, max_value=1e7),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=5)),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=30.0),
        ),
        st.just(("complete_next",)),
    ),
    min_size=1,
    max_size=40,
)


def _fresh_query(blueprint, replay):
    """Cold-recompute oracle: rebuild the link, replay the schedule with
    no intermediate queries, query exactly once."""
    shadow = ReferenceSharedLink(TraceLink(blueprint))
    for op in replay:
        getattr(shadow, op[0])(*op[1:])
    return shadow.next_completion()


@settings(max_examples=150, deadline=None)
@given(rates=_rates, ops=_ops)
def test_cached_completion_matches_cold_recompute(rates, ops):
    # TraceLink rejects traces that deliver zero bits per period; pin a
    # positive closing interval so zero-rate *runs* remain reachable.
    trace = NetworkTrace("oracle", 1.0, np.asarray(rates + [4e6]))
    link = ReferenceSharedLink(TraceLink(trace))
    replay = []  # the exact (method, *args) schedule applied so far

    def apply(method, *args):
        getattr(link, method)(*args)
        replay.append((method, *args))

    for op in ops:
        kind = op[0]
        if kind == "start":
            flow = f"f{op[1]}"
            if flow not in link._flows:
                apply("start", flow, op[2])
        elif kind == "cancel":
            flow = f"f{op[1]}"
            if flow in link._flows:
                apply("cancel", flow)
        elif kind == "advance":
            target = link.now_s + op[1]
            nxt = link.next_completion()
            if nxt is not None and nxt[0] <= target:
                # Never skip past a completion: advance exactly to it
                # and retire the flow (the scheduler's contract).
                apply("advance_to", nxt[0])
                apply("complete", nxt[1])
            else:
                apply("advance_to", target)
        else:  # complete_next
            nxt = link.next_completion()
            if nxt is not None:
                apply("advance_to", nxt[0])
                apply("complete", nxt[1])
        # Query twice: the second runs on the hint the first warmed (a
        # pure query moves nothing else). Both must equal the cold
        # oracle — same flow id, same finish double, bit for bit.
        first = link.next_completion()
        second = link.next_completion()
        assert second == first
        assert first == _fresh_query(trace, replay)
