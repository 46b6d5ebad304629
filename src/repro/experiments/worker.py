"""Worker-side sweep machinery shared by every executor backend.

One work unit runs the same way everywhere: the pool worker, a leased
multi-host ``repro sweep-worker`` process and the engine's in-process
serial path all call :func:`run_unit`, which opens the unit's
``unit.run`` span around :func:`sweep_batch` (the lockstep batch engine,
or the scalar loop for what it cannot run or runs cheaper, plus the
per-unit telemetry fold :func:`record_unit`) and hands a failure back
as a value. A co-unit — the units of several specs over the same traces
— runs through the same call, its specs sharing the engine's slices.
This module owns that path plus the pool-process plumbing around it:
the per-process :data:`WORKER_STATE` pinned by :func:`init_worker`
(shared-memory attach or inline assets) and the few-integer task entry
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
from contextlib import ExitStack
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.batch import run_batch_metrics
from repro.experiments.dataplane import PlaneManifest, attach_plane
from repro.experiments.runner import run_one_session
from repro.experiments.scheduler import (
    SweepSpec,
    SweepWorkerError,
    engine_route,
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
    "UnitOutcome",
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


#: One member unit's outcome: its metrics, or the error that failed it.
UnitOutcome = Tuple[Optional[List[SessionMetrics]], Optional[SweepWorkerError]]


def _unit_error(
    spec: SweepSpec, video: VideoAsset, trace: NetworkTrace, exc: Exception
) -> SweepWorkerError:
    error = SweepWorkerError(
        spec.describe(), video.name, trace.name, f"{type(exc).__name__}: {exc}"
    )
    error.__cause__ = exc
    return error


def _run_engine(
    specs: Sequence[SweepSpec],
    video: VideoAsset,
    batch: Sequence[NetworkTrace],
    config: SessionConfig,
    cache: ArtifactCache,
    tracer: Optional[SpanTracer],
) -> List[Optional[List[SessionMetrics]]]:
    """``specs`` over ``batch`` in shared lockstep slices, one
    ``unit.batch`` span around them."""
    stage_timer = decide_timers = None
    if tracer is not None:
        stage_timer = StageTimer()
        decide_timers = [StageTimer() for _ in specs]
    label = "+".join(spec.describe() for spec in specs)
    with maybe_span(
        tracer,
        SPAN_UNIT_BATCH,
        cat="unit",
        scheme=label,
        lanes=len(specs) * len(batch),
    ):
        batched = run_batch_metrics(
            [spec.scheme for spec in specs],
            video,
            batch,
            specs[0].network,
            config,
            cache,
            [spec.algorithm_factory for spec in specs],
            stage_timer=stage_timer,
            decide_timers=decide_timers,
        )
        if tracer is not None and any(m is not None for m in batched):
            # Aggregate stage spans nest under the open unit.batch span
            # (one span per stage, not per step): the shared stages
            # once, the decide stage once per spec.
            tracer.record_stages(stage_timer, scheme=label)
            for spec, timer in zip(specs, decide_timers):
                tracer.record_stages(timer, scheme=spec.describe())
    return batched


def sweep_batch(
    specs: Sequence[SweepSpec],
    video: VideoAsset,
    batch: Sequence[NetworkTrace],
    config: SessionConfig,
    cache: ArtifactCache,
    registry: Optional[MetricsRegistry],
    tracer: Optional[SpanTracer],
    unit_spans: Sequence[object],
) -> Optional[List[UnitOutcome]]:
    """Run specs over one contiguous trace batch; identify any failure.

    Returns one ``(metrics, error)`` outcome per spec, or ``None`` when a
    lockstep slice shared by several specs raised: the caller then runs
    each spec alone, so the failure is blamed on the spec it belongs to.

    ``registry`` (optional) receives each spec's telemetry: sessions
    completed/failed, wall time, and the artifact-cache hit/miss delta
    (booked on the first spec) — recorded even when a spec fails, so
    partial progress is counted. ``tracer`` (optional) records the
    span hierarchy: the batch engine's run plus its aggregate
    estimate/decide/advance stage costs, or one span per scalar session
    on the scalar path. ``unit_spans`` (the open ``unit.run`` span of
    each spec, no-op spans when untraced) are annotated with the route
    taken: ``engine`` (``"batch"`` or ``"scalar"``) and, for the scalar
    loop, ``reason``. Results are identical with or without any of
    them.

    This is the one routing site
    (:func:`~repro.experiments.scheduler.engine_route`), and it asks two
    questions per spec. Can the engine replay it bit-identically
    (:func:`~repro.experiments.batch.batch_capability`)? And is it
    cheaper at this many lanes
    (:func:`~repro.experiments.scheduler.engine_break_even`)? The specs
    that pass both run on the lockstep batch engine
    (:mod:`repro.experiments.batch`) in one vectorized pass, sharing
    each slice; any other, or one whose decider declines, runs the
    scalar loop below. Narrow CAVA/RBA units take the scalar loop;
    planner units take the engine from two lanes. An exception on
    either path fails its spec with a :class:`SweepWorkerError` naming
    the spec, the video and the trace: the failing session's on the
    scalar path, the batch's first trace on the engine, which runs
    every lane at once.
    """
    start_s = time.perf_counter()
    stats_before = cache.stats
    outcomes: List[UnitOutcome] = [(None, None)] * len(specs)
    completed = [0] * len(specs)
    reasons = [engine_route(spec, len(batch)) for spec in specs]
    engine = [k for k, reason in enumerate(reasons) if not reason]
    if engine:
        for k in engine:
            unit_spans[k].annotate(engine="batch")
        try:
            batched = _run_engine(
                [specs[k] for k in engine], video, batch, config, cache, tracer
            )
        except Exception as exc:
            if len(engine) > 1:
                for k in engine:
                    unit_spans[k].annotate(error=type(exc).__name__)
                if registry is not None:
                    _record_cache_delta(registry, stats_before, cache.stats)
                return None
            error = _unit_error(specs[engine[0]], video, batch[0], exc)
            outcomes[engine[0]] = (None, error)
        else:
            for k, metrics in zip(engine, batched):
                if metrics is None:
                    reasons[k] = "batch decider declined"
                else:
                    outcomes[k] = (metrics, None)
                    completed[k] = len(metrics)
    for k, reason in enumerate(reasons):
        if not reason:
            continue
        spec = specs[k]
        unit_spans[k].annotate(engine="scalar", reason=reason)
        out: List[SessionMetrics] = []
        try:
            for trace in batch:
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
            outcomes[k] = (None, _unit_error(spec, video, batch[len(out)], exc))
        else:
            outcomes[k] = (out, None)
        completed[k] = len(out)
    for span, (_metrics, error) in zip(unit_spans, outcomes):
        if error is not None:
            span.annotate(error=type(error).__name__)
    if registry is not None:
        elapsed_s = time.perf_counter() - start_s
        stats_after = cache.stats
        hits = stats_after.hits - stats_before.hits
        misses = stats_after.misses - stats_before.misses
        for k, (_metrics, error) in enumerate(outcomes):
            record_unit(
                registry,
                completed=completed[k],
                failed=int(error is not None),
                elapsed_s=elapsed_s,
                hits_delta=hits if k == 0 else 0,
                misses_delta=misses if k == 0 else 0,
            )
    return outcomes


def _record_cache_delta(registry: MetricsRegistry, before, after) -> None:
    """Fold the artifact-cache lookups of an abandoned shared slice."""
    registry.counter(CACHE_HITS_METRIC, "artifact-cache hits").inc(
        after.hits - before.hits
    )
    registry.counter(CACHE_MISSES_METRIC, "artifact-cache misses").inc(
        after.misses - before.misses
    )


def run_unit(
    specs: Sequence[SweepSpec],
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    config: SessionConfig,
    cache: ArtifactCache,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    **span_meta,
) -> List[UnitOutcome]:
    """Run one work unit, or a co-unit: the one function every sweep
    path calls.

    A co-unit is several specs' units over the same traces (joined by
    :func:`~repro.experiments.scheduler.join_co_units`); they share the
    engine's lockstep slices. The pool worker
    (:func:`run_batch_in_worker`), the engine's serial path and the
    multihost backend all run a unit here: one ``unit.run`` span per
    spec (annotated with the spec, the video and ``span_meta``; a
    co-unit's nest, since its specs run as one) around
    :func:`sweep_batch`. Returns one ``(metrics, None)`` or ``(None,
    error)`` outcome per spec — a value, not an exception, so the
    caller's failure policy decides what a failure does to the sweep.
    When a shared slice raises, each spec is run again alone, so the
    error names the spec that fails on its own and the others still
    settle.
    """
    with ExitStack() as stack:
        unit_spans = [
            stack.enter_context(
                maybe_span(
                    tracer,
                    SPAN_UNIT_RUN,
                    cat="unit",
                    scheme=spec.describe(),
                    video=spec.video_key,
                    **span_meta,
                )
            )
            for spec in specs
        ]
        outcomes = sweep_batch(
            specs, video, traces, config, cache, registry, tracer, unit_spans
        )
    if outcomes is None:
        outcomes = [
            run_unit(
                [spec], video, traces, config, cache, registry, tracer, **span_meta
            )[0]
            for spec in specs
        ]
    return outcomes


def run_batch_in_worker(spec_idxs: Sequence[int], start: int, stop: int):
    """Task entry point executed inside a pool worker.

    The whole per-task payload is a few integers — the co-unit's spec
    references and the batch bounds; specs and assets were pinned by
    :func:`init_worker` (shared-memory views on the zero-copy path).
    Returns ``(outcomes, snapshot, spans)``: one :func:`run_unit`
    outcome per spec. A session failure comes back as an error *value*
    (a :class:`SweepWorkerError`) in its spec's outcome, never an
    exception, so the unit's telemetry ``snapshot`` — covering the
    sessions that completed before the failure, and the failure itself
    — always reaches the parent. ``snapshot`` is a per-unit
    :meth:`MetricsRegistry.snapshot` when sweep telemetry is on, else
    None; per-unit (not per-worker) registries keep the parent's merge
    simple and double-count-proof. ``spans`` is likewise a per-unit
    :meth:`SpanTracer.snapshot` (span tracing on) or None — and it too
    survives a failed unit: the unit span closes with an ``error``
    annotation and ships back with the :class:`SweepWorkerError`.
    """
    specs: List[SweepSpec] = [
        WORKER_STATE["specs"][spec_idx]  # type: ignore[index]
        for spec_idx in spec_idxs
    ]
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
    outcomes = run_unit(
        specs,
        videos[specs[0].video_key],
        traces_by_plan[specs[0].fault_plan][start:stop],
        WORKER_STATE["config"],  # type: ignore[arg-type]
        WORKER_STATE["cache"],  # type: ignore[arg-type]
        registry,
        tracer,
        start=start,
        stop=stop,
    )
    if tracer is not None and "shm_attach_s" in WORKER_STATE:
        # Exactly once per worker: the first traced unit's first span
        # (its first unit.run) carries the initializer's shm attach
        # time as meta. Not a span of its own: which unit a worker runs
        # first is up to the pool, and the stitched timeline's span list
        # must not depend on that.
        tracer.spans[0]["meta"]["shm_attach_s"] = WORKER_STATE.pop("shm_attach_s")
    return (
        outcomes,
        (registry.snapshot() if registry is not None else None),
        (tracer.snapshot() if tracer is not None else None),
    )
