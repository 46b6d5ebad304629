"""Vectorized lockstep batch execution of sweep sessions.

One batch = one video advanced over N traces in lockstep by
:func:`repro.player.session.run_lockstep_sessions`, once per scheme of
the batch: every lane shares the chunk schedule, so each simulation step
is a handful of numpy ops across the whole batch instead of one scalar
session loop per (scheme, trace) pair. The schemes share one stacked
link plane (one row per trace) and the scheme-independent step work;
each scheme's decider owns a lane range. Results are
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

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.abr.mpc import MPCAlgorithm
from repro.abr.pandacq import PandaCQAlgorithm
from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments.artifacts import ArtifactCache
from repro.network.link import StackedLinks
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics, metric_for_network, summarize_lockstep
from repro.player.session import (
    LockstepGroup,
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
    empty when the configuration is batchable. ``lane_cap`` is the
    widest slice its decider family runs (:data:`PLANNER_LANE_CAP` /
    :data:`DEFAULT_LANE_CAP`), 0 when rejected: only schemes with one
    cap share a slice.
    """

    supported: bool
    reason: str = ""
    lane_cap: int = 0

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
    return BatchCapability(supported=True, lane_cap=_lane_cap(algorithm))


def _lane_cap(algorithm: ABRAlgorithm) -> int:
    if isinstance(algorithm, (MPCAlgorithm, PandaCQAlgorithm)):
        return PLANNER_LANE_CAP
    return DEFAULT_LANE_CAP


def _lockstep_records(
    schemes: Sequence[str],
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str,
    config: SessionConfig,
    cache: ArtifactCache,
    algorithm_factories: Optional[Sequence[Optional[Callable[[], ABRAlgorithm]]]],
    max_lanes: Optional[int],
    stage_timer: Optional[StageTimer],
    decide_timers: Optional[Sequence[StageTimer]],
) -> List[Optional[List[LockstepRecord]]]:
    """Run ``traces`` for every scheme on the engine, slice by slice.

    Each lane slice streams a run of traces once per scheme: one group
    of lanes per scheme, all over one row per trace of the slice's
    :class:`StackedLinks`. Returns one entry per scheme: its records, one
    per slice, or ``None`` when its algorithm declines to build a batch
    decider (the other schemes run on without it).
    """
    if not traces:
        raise ValueError("need at least one trace")
    if not schemes:
        raise ValueError("need at least one scheme")
    timed = stage_timer is not None
    if timed:
        w0 = time.perf_counter()
        c0 = time.process_time()
    metric = metric_for_network(network)
    if algorithm_factories is None:
        algorithm_factories = [None] * len(schemes)
    manifests = [
        cache.manifest(video, needs_quality_manifest(scheme)) for scheme in schemes
    ]
    algorithms = [
        factory() if factory is not None else make_scheme(scheme, metric=metric)
        for scheme, factory in zip(schemes, algorithm_factories)
    ]
    caps = {_lane_cap(algorithm) for algorithm in algorithms}
    if len(caps) > 1:
        raise ValueError(f"{' + '.join(schemes)} have different lane caps")
    cap = caps.pop()
    if max_lanes is not None:
        cap = min(cap, max_lanes)
    cap = max(cap, 1)
    if timed:
        stage_timer.add(
            "batch.prepare", time.perf_counter() - w0, time.process_time() - c0
        )

    records: List[Optional[List[LockstepRecord]]] = [[] for _ in schemes]
    for start in range(0, len(traces), cap):
        if timed:
            w0 = time.perf_counter()
            c0 = time.process_time()
        chunk = traces[start : start + cap]
        members: List[int] = []
        groups: List[LockstepGroup] = []
        for k, algorithm in enumerate(algorithms):
            if records[k] is None:
                continue
            decider = algorithm.batch_decider(manifests[k], len(chunk))
            if decider is None:
                records[k] = None
                continue
            members.append(k)
            groups.append(
                LockstepGroup(
                    algorithm.name,
                    manifests[k],
                    decider,
                    len(chunk),
                    None if decide_timers is None else decide_timers[k],
                )
            )
        if not groups:
            break
        rows = np.tile(np.arange(len(chunk)), len(groups))
        links = StackedLinks([cache.link(trace) for trace in chunk], rows)
        if timed:
            stage_timer.add(
                "batch.prepare", time.perf_counter() - w0, time.process_time() - c0
            )
        slice_records = run_lockstep_sessions(
            groups, links, config, stage_timer=stage_timer
        )
        for k, record in zip(members, slice_records):
            records[k].append(record)
    return records


def run_batch_metrics(
    schemes: Sequence[str],
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    cache: Optional[ArtifactCache] = None,
    algorithm_factories: Optional[
        Sequence[Optional[Callable[[], ABRAlgorithm]]]
    ] = None,
    max_lanes: Optional[int] = None,
    stage_timer: Optional[StageTimer] = None,
    decide_timers: Optional[Sequence[StageTimer]] = None,
) -> List[Optional[List[SessionMetrics]]]:
    """Run ``schemes`` on one video over ``traces`` on the batch engine.

    The drop-in batched equivalent of mapping
    :func:`repro.experiments.runner.run_one_session` over ``traces`` for
    each scheme: one entry per scheme, the per-trace
    :class:`SessionMetrics` list in trace order, each bit-identical to
    the scalar session's, or ``None`` when that scheme's algorithm
    declines to build a batch decider ("not batchable after all — run
    the scalar loop"). ``algorithm_factories`` (optional, aligned with
    ``schemes``) builds an algorithm in place of the registry's.

    All schemes share each lockstep slice (one lane group per scheme
    over one stacked link plane), so the scheme-independent step work is
    paid once per slice. Traces are processed in lane slices
    (:data:`PLANNER_LANE_CAP` / :data:`DEFAULT_LANE_CAP`; the schemes
    must share one cap, or ``ValueError`` is raised) with fresh deciders
    per slice, bounding trellis scratch memory; slicing and grouping never change results
    because lanes are independent. Metrics are reduced straight from
    each group's record columns
    (:func:`~repro.player.metrics.summarize_lockstep`); no per-lane
    session record is built.

    ``stage_timer`` (optional) accumulates the engine's stage costs:
    ``batch.prepare`` (manifest/decider/link construction) plus the
    lockstep loop's estimate/decide/advance stages; ``decide_timers``
    (optional, one per scheme) takes each scheme's decide stage
    instead. Zero overhead when ``None``; results are identical either
    way.
    """
    if cache is None:
        cache = ArtifactCache()
    records = _lockstep_records(
        schemes, video, traces, network, config, cache,
        algorithm_factories, max_lanes, stage_timer, decide_timers,
    )
    metric = metric_for_network(network)
    classifier = cache.classifier(video)
    return [
        None
        if scheme_records is None
        else [
            metrics
            for record in scheme_records
            for metrics in summarize_lockstep(record, video, metric, classifier)
        ]
        for scheme_records in records
    ]
