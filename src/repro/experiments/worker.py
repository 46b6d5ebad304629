"""Worker-side sweep machinery shared by every executor backend.

One work unit runs the same way everywhere: the pool worker, a leased
multi-host ``repro sweep-worker`` process and the engine's in-process
serial path all call :func:`run_unit`, which opens the unit's
``unit.run`` span around :func:`sweep_batch` (the lockstep batch engine,
or the scalar loop for what it cannot run or runs cheaper, plus the
per-unit telemetry fold :func:`record_unit`) and hands a failure back
as a value.
This module owns that path plus the pool-process plumbing around it:
the per-process :data:`WORKER_STATE` pinned by :func:`init_worker`
(shared-memory attach or inline assets) and the three-integer task entry
point :func:`run_batch_in_worker`. :func:`init_worker` sets up every
worker of the one process-pool drain
(:func:`repro.experiments.executors.drain_pool`), so fleet workers are
pinned here too and their task
(:func:`repro.fleet.runner.run_edge_in_worker`) reads the same state.

Nothing here knows about scheduling, leases, or failure policy — those
live in :mod:`repro.experiments.scheduler` and
:mod:`repro.experiments.executors`.
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.batch import batch_capability, run_batch_metrics
from repro.experiments.dataplane import PlaneManifest, attach_plane
from repro.experiments.runner import run_one_session
from repro.experiments.scheduler import (
    SweepSpec,
    SweepWorkerError,
    engine_break_even,
)
from repro.faults.plan import FaultPlan
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.telemetry.metrics import (
    SHM_ATTACHED_WORKERS_METRIC,
    MetricsRegistry,
)
from repro.telemetry.pipeline import (
    SPAN_SESSION_SCALAR,
    SPAN_UNIT_BATCH,
    SPAN_UNIT_RUN,
)
from repro.telemetry.spans import SpanTracer, StageTimer, maybe_span
from repro.video.model import VideoAsset

__all__ = [
    "SESSIONS_COMPLETED_METRIC",
    "SESSIONS_FAILED_METRIC",
    "BATCHES_METRIC",
    "UNIT_SECONDS_METRIC",
    "CACHE_HITS_METRIC",
    "CACHE_MISSES_METRIC",
    "WORKERS_METRIC",
    "RETRIES_METRIC",
    "SKIPPED_UNITS_METRIC",
    "POOL_RESPAWNS_METRIC",
    "FAULTS_INJECTED_METRIC",
    "WORKER_STATE",
    "init_worker",
    "record_unit",
    "sweep_batch",
    "run_unit",
    "run_batch_in_worker",
]

# Metric names the sweep engine populates when a registry is attached.
SESSIONS_COMPLETED_METRIC = "repro_sweep_sessions_completed_total"
SESSIONS_FAILED_METRIC = "repro_sweep_sessions_failed_total"
BATCHES_METRIC = "repro_sweep_batches_total"
UNIT_SECONDS_METRIC = "repro_sweep_unit_seconds"
CACHE_HITS_METRIC = "repro_sweep_artifact_cache_hits_total"
CACHE_MISSES_METRIC = "repro_sweep_artifact_cache_misses_total"
WORKERS_METRIC = "repro_sweep_workers"
RETRIES_METRIC = "repro_sweep_unit_retries_total"
SKIPPED_UNITS_METRIC = "repro_sweep_units_skipped_total"
POOL_RESPAWNS_METRIC = "repro_sweep_pool_respawns_total"
FAULTS_INJECTED_METRIC = "repro_sweep_faults_injected_total"


# Populated by init_worker in every pool process (the serial path hands
# run_unit the same things as explicit arguments).
WORKER_STATE: Dict[str, object] = {}


def init_worker(
    specs: Sequence[SweepSpec],
    config: SessionConfig,
    telemetry: bool = False,
    inline_assets: Optional[
        Tuple[
            Mapping[str, VideoAsset],
            Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
        ]
    ] = None,
    plane_manifest: Optional[PlaneManifest] = None,
    spans: bool = False,
) -> None:
    """Pool initializer: pin shared assets and a fresh artifact cache.

    Exactly one of ``plane_manifest`` (the zero-copy path: attach the
    parent's shared-memory block and rebuild videos/traces as read-only
    views) and ``inline_assets`` (the fallback: assets pickled through
    the initializer) is set. Either way, ``traces_by_plan`` maps each
    fault plan in play (``None`` = the unperturbed set) to its trace
    list; perturbation happened once in the parent, so workers never
    rebuild faulted timelines. Specs ship here once, so tasks can refer
    to them by index (a fleet pool ships its one ``FleetSpec`` and no
    session config).

    ``spans`` turns on per-unit span tracing: each task records into a
    fresh :class:`~repro.telemetry.spans.SpanTracer` whose snapshot
    ships back with the unit result for the scheduler to stitch.
    """
    if plane_manifest is not None:
        attach_t0 = time.perf_counter()
        videos, traces_by_plan, shm = attach_plane(plane_manifest)
        # The views alias shm's buffer: keep the mapping alive for the
        # worker's lifetime and close it at process exit.
        WORKER_STATE["shm"] = shm
        WORKER_STATE["shm_attach_pending"] = True
        # No tracer exists yet (one is built per unit); the first traced
        # unit reports this pre-measured attach time.
        WORKER_STATE["shm_attach_s"] = time.perf_counter() - attach_t0
        atexit.register(shm.close)
    else:
        assert inline_assets is not None
        videos, traces_by_plan = inline_assets
    WORKER_STATE["specs"] = list(specs)
    WORKER_STATE["videos"] = dict(videos)
    WORKER_STATE["traces_by_plan"] = {
        plan: list(traces) for plan, traces in traces_by_plan.items()
    }
    WORKER_STATE["config"] = config
    WORKER_STATE["cache"] = ArtifactCache()
    WORKER_STATE["telemetry"] = telemetry
    WORKER_STATE["spans"] = spans


def record_unit(
    registry: MetricsRegistry,
    completed: int,
    failed: int,
    elapsed_s: float,
    hits_delta: int,
    misses_delta: int,
) -> None:
    """Fold one work unit's outcome into a registry."""
    registry.counter(
        SESSIONS_COMPLETED_METRIC, "sessions that ran to completion"
    ).inc(completed)
    if failed:
        registry.counter(
            SESSIONS_FAILED_METRIC, "sessions aborted by an exception"
        ).inc(failed)
    registry.counter(BATCHES_METRIC, "sweep work units executed").inc()
    registry.histogram(
        UNIT_SECONDS_METRIC, "wall time per sweep work unit (seconds)"
    ).observe(elapsed_s)
    registry.counter(CACHE_HITS_METRIC, "artifact-cache hits").inc(hits_delta)
    registry.counter(CACHE_MISSES_METRIC, "artifact-cache misses").inc(misses_delta)


def sweep_batch(
    spec: SweepSpec,
    video: VideoAsset,
    batch: Sequence[NetworkTrace],
    config: SessionConfig,
    cache: ArtifactCache,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    unit_span=None,
) -> List[SessionMetrics]:
    """Run one spec over a contiguous trace batch; identify any failure.

    ``registry`` (optional) receives the unit's telemetry: sessions
    completed/failed, wall time, and the artifact-cache hit/miss delta —
    recorded even when the unit fails, so partial progress is counted.
    ``tracer`` (optional) records the unit's span hierarchy: the batch
    engine's run plus its aggregate estimate/decide/advance stage costs,
    or one span per scalar session on the scalar path. ``unit_span``
    (optional, the open ``unit.run`` span) is annotated with the route
    taken: ``engine`` (``"batch"`` or ``"scalar"``) and, for the scalar
    loop, ``reason``. Results are identical with or without any of them.

    This is the one routing site, and it asks two questions. Can the
    engine replay the spec bit-identically
    (:func:`~repro.experiments.batch.batch_capability`)? And is it
    cheaper at this many lanes
    (:func:`~repro.experiments.scheduler.engine_break_even`)? A unit
    that passes both runs on the lockstep batch engine
    (:mod:`repro.experiments.batch`) in one vectorized pass; any other,
    or one whose decider declines, runs the scalar loop below. Narrow
    CAVA/RBA units take the scalar loop; planner units take the engine
    from two lanes. An exception on either path raises a
    :class:`SweepWorkerError` naming the spec, the video and the trace:
    the failing session's on the scalar path, the unit's first trace on
    the engine, which runs every lane at once.
    """
    out: List[SessionMetrics] = []
    failed = 0
    at = 0  # index of the trace a failure is blamed on
    start_s = time.perf_counter()
    stats_before = cache.stats
    try:
        capability = batch_capability(
            spec.scheme,
            network=spec.network,
            algorithm_factory=spec.algorithm_factory,
            estimator_factory=spec.estimator_factory,
            fault_plan=spec.fault_plan,
        )
        reason = capability.reason
        if capability:
            break_even = engine_break_even(spec)
            if len(batch) < break_even:
                reason = f"{len(batch)} lanes below break-even {break_even}"
        if not reason:
            if unit_span is not None:
                unit_span.annotate(engine="batch")
            stage_timer = StageTimer() if tracer is not None else None
            with maybe_span(
                tracer,
                SPAN_UNIT_BATCH,
                cat="unit",
                scheme=spec.describe(),
                lanes=len(batch),
            ):
                batched = run_batch_metrics(
                    spec.scheme,
                    video,
                    batch,
                    spec.network,
                    config,
                    cache,
                    spec.algorithm_factory,
                    stage_timer=stage_timer,
                )
                if tracer is not None and batched is not None:
                    # Aggregate stage spans nest under the open
                    # unit.batch span (one span per stage, not per step).
                    tracer.record_stages(stage_timer, scheme=spec.describe())
            if batched is not None:
                out = batched
                return out
            reason = "batch decider declined"
        if unit_span is not None:
            unit_span.annotate(engine="scalar", reason=reason)
        for at, trace in enumerate(batch):
            with maybe_span(
                tracer, SPAN_SESSION_SCALAR, cat="session", trace=trace.name
            ):
                out.append(
                    run_one_session(
                        spec.scheme,
                        video,
                        trace,
                        spec.network,
                        config,
                        spec.estimator_factory,
                        spec.algorithm_factory,
                        cache,
                        fault_plan=spec.fault_plan,
                    )
                )
        return out
    except Exception as exc:
        failed = 1
        raise SweepWorkerError(
            spec.describe(), video.name, batch[at].name,
            f"{type(exc).__name__}: {exc}",
        ) from exc
    finally:
        if registry is not None:
            stats_after = cache.stats
            record_unit(
                registry,
                completed=len(out),
                failed=failed,
                elapsed_s=time.perf_counter() - start_s,
                hits_delta=stats_after.hits - stats_before.hits,
                misses_delta=stats_after.misses - stats_before.misses,
            )


def run_unit(
    spec: SweepSpec,
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    config: SessionConfig,
    cache: ArtifactCache,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    **span_meta,
) -> Tuple[Optional[List[SessionMetrics]], Optional[SweepWorkerError]]:
    """Run one work unit: the one function every sweep path calls.

    The pool worker (:func:`run_batch_in_worker`), the engine's serial
    path and the multihost backend all run a unit here: a ``unit.run``
    span (annotated with the spec, the video and ``span_meta``) around
    :func:`sweep_batch`. Returns ``(metrics, None)``, or ``(None,
    error)`` when a session failed — a value, not an exception, so the
    caller's failure policy decides what the failure does to the sweep.
    """
    try:
        with maybe_span(
            tracer,
            SPAN_UNIT_RUN,
            cat="unit",
            scheme=spec.describe(),
            video=spec.video_key,
            **span_meta,
        ) as unit_span:
            metrics = sweep_batch(
                spec, video, traces, config, cache, registry, tracer, unit_span
            )
    except SweepWorkerError as exc:
        return None, exc
    return metrics, None


def run_batch_in_worker(spec_idx: int, start: int, stop: int):
    """Task entry point executed inside a pool worker.

    The whole per-task payload is three integers — the spec reference
    and the batch bounds; specs and assets were pinned by
    :func:`init_worker` (shared-memory views on the zero-copy path).
    Returns ``(metrics, snapshot, error, spans)``. A session failure
    comes back as an ``error`` *value* (a :class:`SweepWorkerError`),
    never an exception, so the unit's telemetry ``snapshot`` — covering
    the sessions that completed before the failure, and the failure
    itself — always reaches the parent. ``snapshot`` is a per-unit
    :meth:`MetricsRegistry.snapshot` when sweep telemetry is on, else
    None; per-unit (not per-worker) registries keep the parent's merge
    simple and double-count-proof. ``spans`` is likewise a per-unit
    :meth:`SpanTracer.snapshot` (span tracing on) or None — and it too
    survives a failed unit: the unit span closes with an ``error``
    annotation and ships back with the :class:`SweepWorkerError`.
    """
    spec: SweepSpec = WORKER_STATE["specs"][spec_idx]  # type: ignore[index]
    videos: Mapping[str, VideoAsset] = WORKER_STATE["videos"]  # type: ignore[assignment]
    traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]] = (
        WORKER_STATE["traces_by_plan"]  # type: ignore[assignment]
    )
    registry = MetricsRegistry() if WORKER_STATE.get("telemetry") else None
    if registry is not None and WORKER_STATE.pop("shm_attach_pending", False):
        # Exactly once per worker: its first telemetered unit reports
        # the shared-memory attach that happened in the initializer.
        registry.counter(
            SHM_ATTACHED_WORKERS_METRIC, "workers attached to the shm data plane"
        ).inc()
    tracer = (
        SpanTracer(f"worker-{os.getpid()}") if WORKER_STATE.get("spans") else None
    )
    attach_meta = {}
    if tracer is not None and "shm_attach_s" in WORKER_STATE:
        # Exactly once per worker: the first traced unit carries the
        # initializer's shm attach time as unit.run meta. Not a span of
        # its own: which unit a worker runs first is up to the pool, and
        # the stitched timeline's span list must not depend on that.
        attach_meta["shm_attach_s"] = WORKER_STATE.pop("shm_attach_s")
    metrics, error = run_unit(
        spec,
        videos[spec.video_key],
        traces_by_plan[spec.fault_plan][start:stop],
        WORKER_STATE["config"],  # type: ignore[arg-type]
        WORKER_STATE["cache"],  # type: ignore[arg-type]
        registry,
        tracer,
        start=start,
        stop=stop,
        **attach_meta,
    )
    return (
        metrics,
        (registry.snapshot() if registry is not None else None),
        error,
        (tracer.snapshot() if tracer is not None else None),
    )
