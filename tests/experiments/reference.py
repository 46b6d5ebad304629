"""Per-lane session records from the lockstep engine, for equality tests.

The sweep never expands a lockstep slice into per-lane
:class:`~repro.player.core.SessionResult` objects: it summarizes metrics
straight from the record matrices (``run_batch_metrics``). The
batch/scalar equality tests compare every per-chunk float, so they need
those records; :func:`run_batch_sessions` builds them from the same
lane slices ``run_batch_metrics`` runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.batch import _lockstep_records
from repro.network.traces import NetworkTrace
from repro.player.session import LockstepRecord, SessionConfig, SessionResult
from repro.video.model import VideoAsset

__all__ = ["lockstep_results", "run_batch_sessions"]


def lockstep_results(record: LockstepRecord) -> List[SessionResult]:
    """One :class:`SessionResult` per lane of ``record``, in lane order.

    Batchable schemes never request idle time, so the only idle is the
    buffer cap's.
    """
    n = record.num_chunks
    results: List[SessionResult] = []
    for j, trace_name in enumerate(record.trace_names):
        cap_col = record.cap_idle_s[:, j]
        results.append(
            SessionResult(
                scheme=record.scheme,
                video_name=record.video_name,
                trace_name=trace_name,
                levels=record.levels[:, j].copy(),
                sizes_bits=record.sizes_bits[:, j].copy(),
                download_start_s=record.download_start_s[:, j].copy(),
                download_finish_s=record.download_finish_s[:, j].copy(),
                stall_s=record.stall_s[:, j].copy(),
                buffer_after_s=record.buffer_after_s[:, j].copy(),
                idle_s=cap_col.copy(),
                startup_delay_s=float(record.startup_delay_s[j]),
                requested_idle_s=np.zeros(n),
                cap_idle_s=cap_col.copy(),
            )
        )
    return results


def run_batch_sessions(
    scheme: str,
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    cache: Optional[ArtifactCache] = None,
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None,
    max_lanes: Optional[int] = None,
) -> Optional[List[SessionResult]]:
    """Run one (scheme, video) pair over ``traces`` on the batch engine.

    The per-trace :class:`SessionResult` list in trace order, or ``None``
    when the algorithm declines to build a batch decider — the sessions
    ``run_batch_metrics`` summarizes, lane slicing included.
    """
    if cache is None:
        cache = ArtifactCache()
    [records] = _lockstep_records(
        [scheme], video, traces, network, config, cache,
        [algorithm_factory], max_lanes, None, None,
    )
    if records is None:
        return None
    return [result for record in records for result in lockstep_results(record)]
