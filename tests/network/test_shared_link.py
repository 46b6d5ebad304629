"""Processor-sharing semantics of :class:`repro.network.shared.SharedLink`.

The links here are :class:`tests.network.reference.ReferenceSharedLink`:
the shipped state, admission and clock advance, driven through the
per-call completion query and retirement."""

import numpy as np
import pytest

from repro.network.link import TraceLink
from repro.network.shared import _MIN_COMPACT_SIZE
from repro.network.traces import NetworkTrace
from tests.network.reference import ReferenceSharedLink


def constant_trace(mbps, duration_s=4000.0):
    return NetworkTrace(f"const-{mbps}", 1.0, np.full(int(duration_s), mbps * 1e6))


def drain_all(shared):
    """Run every admitted flow to completion; return [(flow, finish)]."""
    finishes = []
    while True:
        nxt = shared.next_completion()
        if nxt is None:
            return finishes
        finish, flow_id = nxt
        shared.advance_to(finish)
        shared.complete(flow_id)
        finishes.append((flow_id, finish))


class TestSingleFlow:
    def test_matches_private_link_exactly(self, one_lte_trace):
        """One flow at a shared edge == a private TraceLink, bitwise."""
        private = TraceLink(one_lte_trace)
        shared = ReferenceSharedLink(TraceLink(one_lte_trace))
        now = 0.0
        for size in (4e6, 1e6, 9e6, 2.5e6):
            expected = private.download(size, now).finish_s
            shared.advance_to(now)
            shared.start("s", size)
            finish, flow_id = shared.next_completion()
            assert flow_id == "s"
            assert finish == expected  # bit-identical, not approx
            shared.advance_to(finish)
            shared.complete("s")
            now = finish

    def test_idle_link_delivers_nothing(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(10.0)))
        shared.advance_to(50.0)
        assert shared.delivered_bits == 0.0
        assert shared.next_completion() is None


class TestEqualSplit:
    def test_two_equal_flows_halve_throughput(self):
        # 8 Mbps edge, two 8 Mb downloads admitted together: each sees
        # 4 Mbps and finishes at t=2.
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("a", 8e6)
        shared.start("b", 8e6)
        finishes = dict(drain_all(shared))
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(2.0)

    def test_smaller_flow_exits_first_and_frees_capacity(self):
        # 8 Mbps edge: A needs 4 Mb, B needs 12 Mb, both admitted at 0.
        # Shared phase: A done after receiving 4 Mb at 4 Mbps -> t=1.
        # B then has 8 Mb left at full rate -> t = 1 + 1 = 2.
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("a", 4e6)
        shared.start("b", 12e6)
        finishes = dict(drain_all(shared))
        assert finishes["a"] == pytest.approx(1.0)
        assert finishes["b"] == pytest.approx(2.0)

    def test_late_joiner_slows_in_flight_download(self):
        # 8 Mbps edge: A (12 Mb) alone for 1 s (8 Mb served), then B
        # (8 Mb) joins. A needs 4 Mb more: shared at 4 Mbps -> A done at
        # t=2, by which point B has 4 Mb; its last 4 Mb run at the full
        # 8 Mbps -> B done at t=2.5.
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("a", 12e6)
        shared.advance_to(1.0)
        shared.start("b", 8e6)
        finishes = dict(drain_all(shared))
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(2.5)

    def test_conservation_of_delivered_bits(self, one_lte_trace):
        shared = ReferenceSharedLink(TraceLink(one_lte_trace))
        sizes = {"a": 5e6, "b": 3e6, "c": 7.5e6}
        for flow, size in sizes.items():
            shared.start(flow, size)
        drain_all(shared)
        # The edge delivered exactly the sum of the flow sizes (to
        # float/bisection tolerance; the trace may overshoot by the
        # final interval's resolution).
        assert shared.delivered_bits == pytest.approx(sum(sizes.values()), rel=1e-6)


class TestContract:
    def test_rejects_duplicate_flow(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("a", 1e6)
        with pytest.raises(ValueError):
            shared.start("a", 1e6)

    def test_rejects_nonpositive_size(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        with pytest.raises(ValueError):
            shared.start("a", 0.0)

    def test_rejects_backward_advance(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.advance_to(5.0)
        with pytest.raises(ValueError):
            shared.advance_to(4.0)

    def test_cancel_removes_flow(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("a", 8e6)
        shared.start("b", 8e6)
        shared.cancel("a")
        assert shared.n_active == 1
        finishes = dict(drain_all(shared))
        assert "a" not in finishes
        assert finishes["b"] == pytest.approx(1.0)

    def test_reenqueue_after_complete_is_clean(self):
        """A flow id may be reused chunk after chunk; stale heap entries
        must not resurface."""
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        for _ in range(5):
            shared.start("s", 4e6)
            finish, flow_id = shared.next_completion()
            assert flow_id == "s"
            shared.advance_to(finish)
            shared.complete("s")
        assert shared.now_s == pytest.approx(2.5)
        assert shared.n_active == 0

    def test_determinism_same_event_sequence(self, one_lte_trace):
        def run():
            shared = ReferenceSharedLink(TraceLink(one_lte_trace))
            shared.start("a", 6e6)
            shared.advance_to(0.5)
            shared.start("b", 2e6)
            shared.advance_to(1.0)
            shared.start("c", 4e6)
            return drain_all(shared)

        assert run() == run()  # bitwise-equal floats, identical order


class TestHeapCompaction:
    """Stale-entry compaction: churned flows must not grow the heap."""

    def test_cancel_restart_churn_keeps_heap_bounded(self):
        # Regression: cancel + re-start leaves a stale (target, seq)
        # tuple in the heap per churn; before compaction landed, 10k
        # churns meant 10k dead entries scanned on every completion
        # query. The heap must stay O(live flows).
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        shared.start("background", 1e9)
        for _ in range(10_000):
            shared.start("churn", 1e6)
            shared.cancel("churn")
        assert shared.n_active == 1
        assert len(shared._heap) <= 2 * _MIN_COMPACT_SIZE

    def test_complete_reenqueue_churn_keeps_heap_bounded(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        for _ in range(10_000):
            shared.start("s", 8e3)
            finish, _flow = shared.next_completion()
            shared.advance_to(finish)
            shared.complete("s")
        assert len(shared._heap) <= 2 * _MIN_COMPACT_SIZE

    def test_churn_does_not_perturb_survivor(self):
        # The churned link's surviving flow must finish at the exact
        # time an un-churned control link produces.
        control = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        control.start("keeper", 16e6)
        churned = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        churned.start("keeper", 16e6)
        for _ in range(1_000):
            churned.start("churn", 1e6)
            churned.cancel("churn")
        assert churned.next_completion() == control.next_completion()
        assert drain_all(churned) == drain_all(control)

    def test_tiny_heaps_never_compact(self):
        shared = ReferenceSharedLink(TraceLink(constant_trace(8.0)))
        for k in range(_MIN_COMPACT_SIZE // 2):
            shared.start(f"f{k}", 1e6)
            shared.cancel(f"f{k}")
        # Below the floor the stale entries are tolerated (rebuild
        # bookkeeping would dominate) but bounded by the churn count.
        assert len(shared._heap) <= _MIN_COMPACT_SIZE
