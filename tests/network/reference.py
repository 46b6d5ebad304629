"""Per-call form of the shared-link completion step, for differential tests.

The fleet's per-edge loop (``repro.fleet.sim._EdgeSimulator._loop``)
runs the earliest-completion query and flow retirement inlined over a
:class:`~repro.network.shared.SharedLink`'s state. This module keeps
those steps as methods:

- :func:`finish_time` — the bare-float ``TraceLink.download(...).finish_s``
  with a precomputed start cumulative and the link's memoized
  crossing-interval hint;
- :class:`ReferenceSharedLink` — ``next_completion``, ``complete`` and
  ``cancel`` on top of the shipped admission and clock advance.

``tests/network`` pins these to :meth:`TraceLink.download` and to the
processor-sharing semantics; ``tests/fleet/reference.py`` builds the
method-path edge loop the fused one is held to.

It also keeps the per-second form of the LTE trace generator,
:func:`synthesize_lte_trace`: one ``rng.choice`` per regime switch and
one ``rng.lognormal`` per second, which the shipped generator's block
draws are held to (``tests/network/test_traces_reference.py``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.network.link import MIN_DOWNLOAD_DURATION_S, TraceLink
from repro.network.shared import _MIN_COMPACT_SIZE, SharedLink
from repro.network.traces import (
    _LTE_REGIMES,
    _LTE_TRANSITIONS,
    MIN_TRACE_DURATION_S,
    NetworkTrace,
)
from repro.util.units import mbps_to_bps
from repro.util.validation import check_non_negative, check_positive

__all__ = ["finish_time", "ReferenceSharedLink", "synthesize_lte_trace"]

_INF = math.inf


def finish_time(
    link: TraceLink,
    size_bits: float,
    start_s: float,
    cum_start: Optional[float] = None,
) -> float:
    """Bare-float twin of ``link.download(...).finish_s``.

    Bit-identical to :meth:`TraceLink.download` — same expressions, same
    operand order, same branch structure — but takes a precomputed
    ``cum_start = link._cumulative_at(start_s)`` (the shared link carries
    it across its clock advances). The crossing interval is located via
    the link's memoized hint, validated against the exact
    ``bisect_left`` predicate.
    """
    if not 0.0 < size_bits < _INF:
        check_positive(size_bits, "size_bits")
    if not 0.0 <= start_s < _INF:
        check_non_negative(start_s, "start_s")
    if cum_start is None:
        cum_start = link._cumulative_at(start_s)
    target = cum_start + size_bits

    if target < link._bits_per_period:
        # divmod fast path (see TraceLink._cumulative_at): sub-period
        # targets split as exactly (0.0, target).
        periods = 0.0
        within = target
    else:
        periods, within = divmod(target, link._bits_per_period)
    try:
        cum_list = link._cumulative_list
    except AttributeError:  # cum_start given before any scalar query
        cum_list = link._build_scalar_tables()
    index = link._finish_hint
    # Hint valid iff it satisfies the (clamped) bisect_left predicate:
    # the table crosses `within` inside interval `index`. With the
    # i == 0 case the predicate also covers the lower clamp; the upper
    # clamp (all entries below `within`) only occurs at
    # index == num_intervals - 1, where cum_list[index + 1] is the
    # whole-period total and the divmod remainder can at most equal it
    # (the documented float-divmod quirk), keeping the predicate
    # satisfied.
    if not (
        (index == 0 or cum_list[index] < within)
        and cum_list[index + 1] >= within
    ):
        index = bisect_left(cum_list, within) - 1
        if index < 0:
            index = 0
        elif index >= link._num_intervals:
            index = link._num_intervals - 1
        link._finish_hint = index
    already = cum_list[index]
    rate = link._rates_list[index]
    if within <= already:
        offset = index * link._interval
    elif rate <= 0:
        offset = (index + 1) * link._interval
    else:
        offset = index * link._interval + (within - already) / rate
    finish_s = periods * link._period_s + offset
    if finish_s <= start_s:
        finish_s = start_s + max(size_bits / max(rate, 1.0), MIN_DOWNLOAD_DURATION_S)
        if finish_s <= start_s:
            finish_s = math.nextafter(start_s, _INF)
    return finish_s


class ReferenceSharedLink(SharedLink):
    """:class:`SharedLink` with the completion query and retirement as
    methods."""

    __slots__ = ()

    def next_completion(self) -> Optional[Tuple[float, Hashable]]:
        """``(finish_s, flow_id)`` of the earliest completion, else None.

        Pure query — nothing advances. The returned time is only valid
        until flow membership changes (any join/leave reshapes every
        in-flight completion time).
        """
        virtual = self.virtual_bits
        heap = self._heap
        while heap:
            top = heap[0]
            entry = top[3]
            if not entry[3]:
                heapq.heappop(heap)  # stale: completed or re-enqueued
                continue
            flow_id = top[2]
            admit_virtual = entry[0]
            size_bits = entry[1]
            if virtual == admit_virtual:
                # No service credited since admission: the flow needs its
                # full size. Computed directly (not via the target) so an
                # uncontended flow's completion reuses the exact
                # ``download(size, now)`` expression of a private link —
                # ``(v + size) - v`` would not round-trip in floats.
                per_flow = size_bits
            else:
                per_flow = (admit_virtual + size_bits) - virtual
            remaining = per_flow * len(self._flows)
            if remaining <= 0.0:
                # Float snap: the last advance landed a hair past the
                # target; the flow is due immediately.
                return (self.now_s, flow_id)
            return (
                finish_time(self.link, remaining, self.now_s, self._cum_now),
                flow_id,
            )
        return None

    def complete(self, flow_id: Hashable) -> None:
        """Retire one finished download (after advancing to its time)."""
        self._flows.pop(flow_id)[3] = False

    def cancel(self, flow_id: Hashable) -> None:
        """Drop an in-flight download (session abandoned mid-chunk)."""
        entry = self._flows.pop(flow_id, None)
        if entry is not None:
            entry[3] = False
            heap = self._heap
            if len(heap) > _MIN_COMPACT_SIZE and len(heap) > 2 * len(self._flows):
                self._compact_heap()


def synthesize_lte_trace(
    name: str,
    rng: np.random.Generator,
    duration_s: float = MIN_TRACE_DURATION_S,
    interval_s: float = 1.0,
) -> NetworkTrace:
    """``repro.network.traces.synthesize_lte_trace``, one second at a time."""
    check_positive(duration_s, "duration_s")
    n = int(math.ceil(duration_s / interval_s))
    base_bps = mbps_to_bps(float(rng.lognormal(np.log(1.9), 0.55)))

    throughputs = np.empty(n, dtype=float)
    regime = int(rng.integers(0, 2))
    remaining = float(rng.exponential(_LTE_REGIMES[regime][2]))
    smooth = _LTE_REGIMES[regime][1]
    for k in range(n):
        if remaining <= 0:
            regime = int(rng.choice(len(_LTE_REGIMES), p=_LTE_TRANSITIONS[regime]))
            remaining = float(rng.exponential(_LTE_REGIMES[regime][2]))
        remaining -= 1.0
        target = _LTE_REGIMES[regime][1]
        smooth = 0.7 * smooth + 0.3 * target
        sample = base_bps * smooth * float(rng.lognormal(0.0, 0.30))
        throughputs[k] = max(sample, 1_000.0)
    return NetworkTrace(name=name, interval_s=interval_s, throughputs_bps=throughputs)
