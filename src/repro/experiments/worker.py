"""Worker-side sweep machinery shared by every executor backend.

One work unit's execution is the same everywhere — the in-process pool,
a leased multi-host ``repro sweep-worker`` process, and the serial
fallback all funnel into :func:`sweep_batch`.
This module owns that path plus the pool-process plumbing around it:
the per-process :data:`WORKER_STATE` pinned by :func:`init_worker`
(shared-memory attach or inline assets), the three-integer task entry
point :func:`run_batch_in_worker`, and the per-unit telemetry fold
:func:`record_unit`. :func:`init_worker` sets up every worker of the
one process-pool drain (:func:`repro.experiments.executors.drain_pool`),
so fleet workers are pinned here too and their task
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
from repro.experiments.scheduler import SweepSpec, SweepWorkerError
from repro.faults.plan import FaultPlan
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.telemetry.metrics import (
    SHM_ATTACHED_WORKERS_METRIC,
    MetricsRegistry,
)
from repro.telemetry.pipeline import SPAN_SESSION_SCALAR, SPAN_UNIT_BATCH
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


# Populated by init_worker in every pool process (and used directly by
# the serial fallback through sweep_batch's explicit arguments).
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
) -> List[SessionMetrics]:
    """Run one spec over a contiguous trace batch; identify any failure.

    ``registry`` (optional) receives the unit's telemetry: sessions
    completed/failed, wall time, and the artifact-cache hit/miss delta —
    recorded even when the unit fails, so partial progress is counted.
    ``tracer`` (optional) records the unit's span hierarchy: the batch
    engine's run plus its aggregate estimate/decide/advance stage costs,
    or one span per scalar session on the fallback path. Results are
    identical with or without either.

    Batchable multi-trace units run on the lockstep batch engine
    (:mod:`repro.experiments.batch`) — bit-identical results, one
    vectorized pass instead of a per-trace loop. Any configuration the
    capability probe rejects, a decider declines, or the engine fails
    on falls back silently to the scalar loop below.
    """
    out: List[SessionMetrics] = []
    start_s = time.perf_counter()
    stats_before = cache.stats
    if batch_capability(
        spec.scheme,
        network=spec.network,
        algorithm_factory=spec.algorithm_factory,
        estimator_factory=spec.estimator_factory,
        fault_plan=spec.fault_plan,
        num_traces=len(batch),
    ):
        stage_timer = StageTimer() if tracer is not None else None
        try:
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
        except Exception:  # noqa: BLE001 - scalar loop is the oracle
            batched = None
        if batched is not None:
            if registry is not None:
                stats_after = cache.stats
                record_unit(
                    registry,
                    completed=len(batched),
                    failed=0,
                    elapsed_s=time.perf_counter() - start_s,
                    hits_delta=stats_after.hits - stats_before.hits,
                    misses_delta=stats_after.misses - stats_before.misses,
                )
            return batched
    for trace in batch:
        try:
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
        except Exception as exc:
            if registry is not None:
                stats_after = cache.stats
                record_unit(
                    registry,
                    completed=len(out),
                    failed=1,
                    elapsed_s=time.perf_counter() - start_s,
                    hits_delta=stats_after.hits - stats_before.hits,
                    misses_delta=stats_after.misses - stats_before.misses,
                )
            raise SweepWorkerError(
                spec.describe(), video.name, trace.name,
                f"{type(exc).__name__}: {exc}",
            ) from exc
    if registry is not None:
        stats_after = cache.stats
        record_unit(
            registry,
            completed=len(out),
            failed=0,
            elapsed_s=time.perf_counter() - start_s,
            hits_delta=stats_after.hits - stats_before.hits,
            misses_delta=stats_after.misses - stats_before.misses,
        )
    return out


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
    from repro.telemetry.pipeline import SPAN_UNIT_RUN

    spec: SweepSpec = WORKER_STATE["specs"][spec_idx]  # type: ignore[index]
    videos: Mapping[str, VideoAsset] = WORKER_STATE["videos"]  # type: ignore[assignment]
    traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]] = (
        WORKER_STATE["traces_by_plan"]  # type: ignore[assignment]
    )
    config: SessionConfig = WORKER_STATE["config"]  # type: ignore[assignment]
    cache: ArtifactCache = WORKER_STATE["cache"]  # type: ignore[assignment]
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
    traces = traces_by_plan[spec.fault_plan]
    try:
        with maybe_span(
            tracer,
            SPAN_UNIT_RUN,
            cat="unit",
            scheme=spec.describe(),
            video=spec.video_key,
            start=start,
            stop=stop,
            **attach_meta,
        ):
            metrics = sweep_batch(
                spec,
                videos[spec.video_key],
                traces[start:stop],
                config,
                cache,
                registry,
                tracer,
            )
    except SweepWorkerError as exc:
        return (
            None,
            (registry.snapshot() if registry is not None else None),
            exc,
            (tracer.snapshot() if tracer is not None else None),
        )
    return (
        metrics,
        (registry.snapshot() if registry is not None else None),
        None,
        (tracer.snapshot() if tracer is not None else None),
    )
