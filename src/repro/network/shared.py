"""Shared-bottleneck link: an edge's capacity split across active flows.

Every per-session link in the repo is private — a session downloads
against its own :class:`~repro.network.link.TraceLink` and nobody else's
traffic matters. A fleet simulation needs the opposite: all sessions
parked behind one edge contend for the same capacity trace, and one
viewer joining slows every other download on that edge.

:class:`SharedLink` models the v1 sharing discipline from the issue —
**max-min fair share across greedy flows**, which for flows with no
per-flow rate cap collapses to egalitarian processor sharing: with ``n``
active downloads, each receives ``C(t) / n`` where ``C(t)`` is the
edge's (possibly fault-perturbed) capacity trace.

The implementation uses the classic *virtual service* trick so each
scheduling event costs ``O(log n)`` instead of a per-flow water-filling
pass:

- ``V(t)`` (:attr:`virtual_bits`) integrates the per-flow service rate:
  ``dV = C(t) / n(t) dt`` while ``n(t) > 0``. Every active flow has
  received exactly ``V(now) - V(start)`` bits, whatever ``n`` did in
  between;
- a flow of ``size`` bits admitted at virtual time ``V`` completes when
  ``V(t)`` reaches the *target* ``V + size``; targets are totally
  ordered, so a heap of ``(target, seq)`` yields completions in order;
- inverting ``V`` back to wall-clock time reuses TraceLink's
  inverse-cumulative search verbatim: the earliest completion needs
  ``(target - V) * n`` more *edge* bits, and the search (periodic
  wraparound, zero-rate runs, duration floor and all) finds when the
  trace delivers them. With a single active flow the expression
  degenerates to ``link.download(size, now)`` — bit-identical to a
  private link, which the tests pin.

This class holds the link *state* — clock, ``V``, flow table and
completion heap — plus admission (:meth:`SharedLink.start`) and the
clock advance (:meth:`SharedLink.advance_to`). The completion query and
flow retirement run inlined over that state in the one loop that drives
a shared link, the fleet's per-edge event loop
(``repro.fleet.sim._EdgeSimulator._loop``, ~5M events on the default
fleet). Their per-call form — ``next_completion``/``complete``/
``cancel`` and ``TraceLink.finish_time`` — lives in
``tests/network/reference.py``, and ``tests/fleet`` pins the fused loop
to an edge loop built from it.

State kept for the hot path:

- the cumulative-bits value at the current clock is cached
  (``_cum_now``) and carried forward by :meth:`SharedLink.advance_to` —
  ``_cumulative_at`` is a pure function of time, so reusing the value
  is exactly the double a recompute produces, and each advance
  performs a single fresh table lookup;
- each heap entry carries the flow's mutable admission record, whose
  ``alive`` flag is flipped in place when the flow retires — the
  per-event staleness check is one list index instead of a dict probe
  plus a sequence compare;
- stale heap entries (completed or cancelled flows whose entries have
  not yet bubbled to the top) are compacted away
  whenever the heap grows past twice the live-flow count, so a
  long-lived edge that churns flows — or a caller that cancels and
  re-starts the same flow id — keeps the heap O(live) instead of
  O(history).

The caller owns the clock: it must ``advance_to`` an event time before
mutating flow membership there, and it must not advance past the next
completion. The class is deliberately scheduler-agnostic — it knows
nothing about sessions, arrivals, or faults (trace faults are applied to
the capacity trace before the inner :class:`TraceLink` is built;
latency faults delay the *enqueue* of a flow, outside this class).
"""

from __future__ import annotations

import heapq
from typing import Hashable, List, Tuple

from repro.network.link import TraceLink

__all__ = ["SharedLink"]

#: Compaction floor: heaps smaller than this are never rebuilt (the
#: rebuild bookkeeping would dominate at trivial sizes).
_MIN_COMPACT_SIZE = 16


class SharedLink:
    """Equal-share processor-sharing discipline over one capacity trace."""

    __slots__ = (
        "link",
        "now_s",
        "virtual_bits",
        "delivered_bits",
        "_flows",
        "_heap",
        "_seq",
        "_cum_now",
    )

    def __init__(self, link: TraceLink, start_s: float = 0.0) -> None:
        self.link = link
        if not start_s >= 0.0:
            raise ValueError(f"start_s must be >= 0, got {start_s}")
        self.now_s = float(start_s)
        #: Per-flow service received since the link's epoch (bits). Grows
        #: by ``C(t)/n(t)`` whenever at least one flow is active.
        self.virtual_bits = 0.0
        #: Total bits the edge actually delivered (for utilization).
        self.delivered_bits = 0.0
        # flow id -> [admission virtual, size, seq, alive]. The record is
        # shared with the flow's heap entry, so the completion query
        # checks a single ``alive`` flag instead of a dict probe + seq
        # compare; retiring a flow flips the flag in place, instantly
        # invalidating the heap entry. The seq still breaks heap ties
        # deterministically.
        self._flows: dict = {}
        self._heap: List[Tuple[float, int, Hashable, list]] = []
        self._seq = 0
        # Cumulative trace bits at now_s (pure function of the clock,
        # carried forward by advance_to).
        self._cum_now = link._cumulative_at(self.now_s)

    @property
    def n_active(self) -> int:
        """Number of downloads currently sharing the capacity."""
        return len(self._flows)

    def _compact_heap(self) -> None:
        """Drop stale entries once they outnumber the live flows."""
        live = [entry for entry in self._heap if entry[3][3]]
        heapq.heapify(live)
        self._heap = live

    def start(self, flow_id: Hashable, size_bits: float) -> None:
        """Admit one download of ``size_bits`` at the current clock."""
        if size_bits <= 0:
            raise ValueError(f"size_bits must be > 0, got {size_bits}")
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already active")
        self._seq += 1
        admit_virtual = self.virtual_bits
        entry = [admit_virtual, size_bits, self._seq, True]
        self._flows[flow_id] = entry
        heap = self._heap
        heapq.heappush(heap, (admit_virtual + size_bits, self._seq, flow_id, entry))
        if len(heap) > _MIN_COMPACT_SIZE and len(heap) > 2 * len(self._flows):
            self._compact_heap()

    def advance_to(self, t: float) -> float:
        """Move the clock to ``t``, crediting every active flow.

        Returns the edge bits delivered over the window (0.0 when the
        link sat idle). The caller must not skip past a completion time.
        """
        if t < self.now_s:
            raise ValueError(f"cannot advance backwards: {t} < {self.now_s}")
        if t > self.now_s:
            cum_t = self.link._cumulative_at(t)
            n = len(self._flows)
            if n > 0:
                bits = cum_t - self._cum_now
                self.virtual_bits += bits / n
                self.delivered_bits += bits
                self.now_s = t
                self._cum_now = cum_t
                return bits
            self.now_s = t
            self._cum_now = cum_t
        return 0.0
