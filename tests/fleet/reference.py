"""Method-path edge loop: the fleet's fused ``_loop`` one call at a time.

``repro.fleet.sim._EdgeSimulator._loop`` inlines the shared-link
completion query, the clock advance, flow admission and retirement and
the action dispatch into one loop over local variables.
:class:`MethodPathEdge` runs the same three-stream merge through the
methods those blocks replicate:

- the completion query and retirement of
  :class:`tests.network.reference.ReferenceSharedLink`;
- the simulator's own :meth:`_advance_slow` for every clock advance
  (its per-bucket ``SharedLink.advance_to`` split also covers a window
  inside one bucket);
- :meth:`_dispatch`, :meth:`_arrive` and :meth:`_start_transfer` for
  every event handler.

Its :class:`~repro.fleet.sim.EdgeResult` must equal the fused loop's in
every bucket byte and every scalar.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

from repro.fleet.sim import _EV_DEPART, _EV_WAKE, _EV_XFER, _EdgeSimulator
from repro.fleet.spec import FleetSpec
from repro.network.traces import NetworkTrace
from repro.video.model import VideoAsset
from tests.network.reference import ReferenceSharedLink

__all__ = ["MethodPathEdge"]

_INF = math.inf
_COMPLETION = 0
_ARRIVAL = -1


class MethodPathEdge(_EdgeSimulator):
    """An edge simulator whose event loop calls a method per step."""

    def __init__(
        self,
        spec: FleetSpec,
        edge_index: int,
        videos: Mapping[str, VideoAsset],
        trace: NetworkTrace,
    ) -> None:
        super().__init__(spec, edge_index, videos, trace)
        self.link = ReferenceSharedLink(self.link.link)
        #: Transfers started by a latency-spike timer (``_EV_XFER``).
        self.delayed_starts = 0

    def _loop(self, timer=None) -> None:
        """The fused loop's order contract, step by step: a completion
        wins ties against every timer, an arrival against runtime timers,
        and runtime timers break ties by insertion order."""
        link = self.link
        arrivals = self._arrivals
        heap = self.heap
        ai = 0
        events = 0
        while True:
            completion = link.next_completion()
            arr_t = arrivals[ai]
            timer_t = heap[0][0] if heap else _INF
            earliest = arr_t if arr_t <= timer_t else timer_t
            if completion is not None and completion[0] <= earliest:
                t, session = completion
                kind = _COMPLETION
            elif earliest != _INF:
                if arr_t <= timer_t:
                    ai += 1
                    t = arr_t
                    kind = _ARRIVAL
                else:
                    t, _seq, kind, session = heapq.heappop(heap)
            else:
                break

            if t > link.now_s:
                self._advance_slow(t, link.now_s)

            if kind == _COMPLETION:
                link.complete(session)
                self._dispatch(session, session.core.on_fetch_done(t), t)
            elif kind == _EV_WAKE:
                self._dispatch(session, session.core.on_wait_done(t), t)
            elif kind == _ARRIVAL:
                self._arrive(t, ai - 1)
            elif kind == _EV_XFER:
                self.delayed_starts += 1
                self._start_transfer(session, t)
            else:
                assert kind == _EV_DEPART
                self.in_system -= 1
                self.b_finishes.add_at(t, 1.0)
                self._core_pool.setdefault(session.pool_key, []).append(session.core)
                session.core = None
                self._session_pool.append(session)
            events += 1
        self.events = events

