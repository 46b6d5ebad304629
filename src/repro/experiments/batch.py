"""Vectorized lockstep batch execution of sweep sessions.

One batch = one (scheme, video) pair advanced over N traces in lockstep
by :func:`repro.player.session.run_lockstep_sessions`: every lane shares
the chunk schedule, so each simulation step is a handful of numpy ops
across the whole batch instead of N scalar session loops. Results are
**bit-identical** to the scalar path — the golden snapshots and the
batch/scalar equality tests pin that contract — so content-addressed
store keys, summaries, and figures are unchanged by how sessions were
executed.

Not every configuration is batchable. :func:`batch_capability` is the
probe for *can the engine replay this spec bit-identically*, asked by
the one unit runner (:func:`repro.experiments.worker.sweep_batch`) and
by unit sizing (:func:`repro.experiments.scheduler.session_cost`); a
spec it rejects (custom estimators, idle-requesting schemes such as
BOLA-E, latency fault injection, schemes without a vectorized decider)
runs on the scalar loop, as does one whose decider declines. Whether
the engine is *cheaper* for a unit's width is a separate question,
answered by :func:`repro.experiments.scheduler.engine_break_even`: a
unit narrower than its spec's break-even also runs scalar. Both are
routing, not error handling: an exception raised by the engine fails
the unit loudly and is never retried on the scalar loop. Setting the
``REPRO_DISABLE_BATCH`` environment variable (to anything non-empty)
forces the scalar path everywhere — the escape hatch for debugging and
for the equality tests themselves.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.abr.base import ABRAlgorithm
from repro.abr.mpc import MPCAlgorithm
from repro.abr.pandacq import PandaCQAlgorithm
from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments.artifacts import ArtifactCache
from repro.network.link import StackedLinks
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics, metric_for_network, summarize_lockstep
from repro.player.session import (
    LockstepRecord,
    SessionConfig,
    run_lockstep_sessions,
)
from repro.video.model import VideoAsset

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.telemetry.spans import StageTimer

__all__ = [
    "BatchCapability",
    "batch_capability",
    "run_batch_metrics",
    "DISABLE_BATCH_ENV",
]

#: Environment variable that forces the scalar path when set non-empty.
DISABLE_BATCH_ENV = "REPRO_DISABLE_BATCH"

#: Lane caps per decider family. The trellis planner keeps four
#: ``(lanes, L**h)`` scratch arrays alive, so planner-backed schemes run
#: in narrower slices; everything else is a few ``(lanes,)`` state
#: vectors and can go wide.
PLANNER_LANE_CAP = 64
DEFAULT_LANE_CAP = 512


@dataclass(frozen=True)
class BatchCapability:
    """Outcome of the batch-routing probe.

    ``reason`` explains a rejection (for telemetry and debugging); it is
    empty when the configuration is batchable.
    """

    supported: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.supported


def _unsupported(reason: str) -> BatchCapability:
    return BatchCapability(supported=False, reason=reason)


def batch_capability(
    scheme: str,
    network: str = "lte",
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None,
    estimator_factory: Optional[Callable] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> BatchCapability:
    """Can this sweep configuration run on the lockstep batch engine?

    The probe is conservative: anything the batch engine cannot replay
    bit-identically is rejected, and the caller falls back to the scalar
    loop. It says nothing about cost: how many traces make the engine
    worth running is :func:`repro.experiments.scheduler.engine_break_even`.
    Rejection reasons, in order checked:

    - ``REPRO_DISABLE_BATCH`` set in the environment;
    - a custom per-trace estimator factory (the engine owns its
      lockstep harmonic-mean estimator);
    - a fault plan with link-level latency faults (those wrap each
      link individually; trace-level perturbations are applied before
      traces reach the engine and are fine);
    - the algorithm overrides ``requested_idle_s`` (the engine's chunk
      schedule has no idle branch);
    - the algorithm does not provide a ``batch_decider``.

    A supported probe still is not a guarantee: ``batch_decider`` may
    return ``None`` for subclassed algorithms (the deciders are
    type-exact), in which case :func:`run_batch_metrics` returns
    ``None`` and the caller falls back.
    """
    if os.environ.get(DISABLE_BATCH_ENV):
        return _unsupported(f"{DISABLE_BATCH_ENV} set")
    if estimator_factory is not None:
        return _unsupported("custom estimator factory")
    if fault_plan is not None and fault_plan.latency_faults:
        return _unsupported("fault plan injects link-level latency faults")
    try:
        if algorithm_factory is not None:
            algorithm = algorithm_factory()
        else:
            algorithm = make_scheme(scheme, metric=metric_for_network(network))
    except Exception as exc:  # noqa: BLE001 - probe must not raise
        return _unsupported(f"algorithm construction failed: {exc}")
    cls = type(algorithm)
    if cls.requested_idle_s is not ABRAlgorithm.requested_idle_s:
        return _unsupported(f"{algorithm.name} overrides requested_idle_s")
    if cls.batch_decider is ABRAlgorithm.batch_decider:
        return _unsupported(f"{algorithm.name} has no batch decider")
    return BatchCapability(supported=True)


def _lane_cap(algorithm: ABRAlgorithm, max_lanes: Optional[int]) -> int:
    cap = (
        PLANNER_LANE_CAP
        if isinstance(algorithm, (MPCAlgorithm, PandaCQAlgorithm))
        else DEFAULT_LANE_CAP
    )
    if max_lanes is not None:
        cap = min(cap, max_lanes)
    return max(cap, 1)


def _lockstep_records(
    scheme: str,
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str,
    config: SessionConfig,
    cache: ArtifactCache,
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]],
    max_lanes: Optional[int],
    stage_timer: Optional[StageTimer],
) -> Optional[List[LockstepRecord]]:
    """Run ``traces`` on the engine in lane slices, one record per slice.

    ``None`` when the algorithm declines to build a batch decider.
    """
    if not traces:
        raise ValueError("need at least one trace")
    timed = stage_timer is not None
    if timed:
        w0 = time.perf_counter()
        c0 = time.process_time()
    metric = metric_for_network(network)
    include_quality = needs_quality_manifest(scheme)
    manifest = cache.manifest(video, include_quality)
    if algorithm_factory is not None:
        algorithm = algorithm_factory()
    else:
        algorithm = make_scheme(scheme, metric=metric)
    cap = _lane_cap(algorithm, max_lanes)
    if timed:
        stage_timer.add(
            "batch.prepare", time.perf_counter() - w0, time.process_time() - c0
        )

    records: List[LockstepRecord] = []
    for start in range(0, len(traces), cap):
        if timed:
            w0 = time.perf_counter()
            c0 = time.process_time()
        chunk = traces[start : start + cap]
        decider = algorithm.batch_decider(manifest, len(chunk))
        if decider is None:
            return None
        links = StackedLinks([cache.link(trace) for trace in chunk])
        if timed:
            stage_timer.add(
                "batch.prepare", time.perf_counter() - w0, time.process_time() - c0
            )
        records.append(
            run_lockstep_sessions(
                algorithm.name,
                manifest,
                decider,
                links,
                config,
                stage_timer=stage_timer,
            )
        )
    return records


def run_batch_metrics(
    scheme: str,
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    cache: Optional[ArtifactCache] = None,
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None,
    max_lanes: Optional[int] = None,
    stage_timer: Optional[StageTimer] = None,
) -> Optional[List[SessionMetrics]]:
    """Run one (scheme, video) pair over ``traces`` on the batch engine.

    The drop-in batched equivalent of mapping
    :func:`repro.experiments.runner.run_one_session` over ``traces``:
    the per-trace :class:`SessionMetrics` list in trace order, each
    bit-identical to the scalar session's, or ``None`` when the
    algorithm declines to build a batch decider ("not batchable after
    all — run the scalar loop"). Traces are processed in lane slices
    (:data:`PLANNER_LANE_CAP` / :data:`DEFAULT_LANE_CAP`) with a fresh
    decider per slice, bounding trellis scratch memory; slicing never
    changes results because lanes are independent. Metrics are reduced
    straight from each slice's record matrices
    (:func:`~repro.player.metrics.summarize_lockstep`); no per-lane
    session record is built.

    ``stage_timer`` (optional) accumulates the engine's stage costs:
    ``batch.prepare`` (manifest/decider/link construction) plus the
    lockstep loop's estimate/decide/advance stages. Zero overhead when
    ``None``; results are identical either way.
    """
    if cache is None:
        cache = ArtifactCache()
    records = _lockstep_records(
        scheme, video, traces, network, config, cache,
        algorithm_factory, max_lanes, stage_timer,
    )
    if records is None:
        return None
    metric = metric_for_network(network)
    classifier = cache.classifier(video)
    return [
        metrics
        for record in records
        for metrics in summarize_lockstep(record, video, metric, classifier)
    ]
