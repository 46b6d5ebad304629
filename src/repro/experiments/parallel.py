"""Sweep engine: the §6 evaluation grid, serially or on all cores (or hosts).

Every sweep runs here: :func:`repro.experiments.runner.run_comparison`
and :func:`~repro.experiments.runner.run_scheme_on_traces` hand their
arguments to :class:`ParallelSweepRunner`, as do the CLI, the tuner and
the figure/table modules. Sessions are embarrassingly parallel — each
(scheme, video, trace) triple is independent and fully seeded — so the
engine plans trace *batches*, runs them in process or over a pluggable
executor backend, and reassembles results in submission order.

The engine is split into three layers (one module each):

- :mod:`repro.experiments.scheduler` — backend-agnostic planning: the
  grid vocabulary, cache-hit partitioning against the session store,
  cost-aware batch sizing, deterministic assembly;
- :mod:`repro.experiments.worker` — :func:`~repro.experiments.worker.
  run_unit`, the one function that runs a work unit on every path
  (lockstep batch engine or scalar loop, per-unit telemetry);
- :mod:`repro.experiments.executors` — the two executor backends:
  ``"pool"`` (local process pool, the default) and ``"multihost"``
  (workers on any number of machines cooperating through atomic lease
  files in a shared store directory — see ``repro sweep-worker``), plus
  the process-pool drain the pool backend and the fleet share, and the
  sweep's settle step (:class:`~repro.experiments.executors.SweepLedger`)
  the pool backend and the serial path share.

This module keeps the public engine API (:class:`ParallelSweepRunner`)
and re-exports the vocabulary so existing imports keep working.

Design points:

- **Determinism.** Work units are indexed at submission; results are
  keyed by that index and concatenated in order, so the output is
  bit-identical to an in-process serial run and identically ordered no
  matter which worker — or which *host* — finishes first. Retried units
  re-run the same seeded sessions, so a retry that succeeds is
  bit-identical to a first-try success.
- **Shared-artifact caching.** Each worker holds one
  :class:`~repro.experiments.artifacts.ArtifactCache`, so a video's
  manifest/classifier and a trace's cumulative-bits table are built once
  per worker instead of once per (scheme, trace) session.
- **Zero-copy data plane.** Numeric sweep assets — trace timelines,
  their cumulative-bits tables, video size/quality tables — are
  published once into a :mod:`multiprocessing.shared_memory` block by
  the parent (:mod:`repro.experiments.dataplane`); workers attach by
  name and rebuild videos/traces as read-only views, so nothing big is
  pickled per worker (let alone per task) even under ``spawn``. Per-task
  payloads are three integers: a spec index and two batch indices.
  Specs and the session config ship once through the pool initializer.
  When shared memory is unavailable the engine falls back to inline
  initializer pickling with identical results.
- **Incremental re-runs.** Give the engine a
  :class:`~repro.experiments.store.SessionStore` and it partitions the
  grid into cached vs. missing sessions *before* any work ships,
  replays only the misses, writes their results back, and merges —
  bit-identically to an all-cold run, because cached entries round-trip
  floats exactly. A warm re-run of an unchanged grid runs no sessions
  at all.
- **Adaptive batching.** Batch bounds are sized from a per-session cost
  estimate (MPC-family rollouts cost many CAVA sessions), so cheap
  schemes get large batches that amortize pool overhead while expensive
  schemes split fine enough to balance the pool tail.
- **In-process serial path.** ``n_workers=1`` — or a grid too small to
  amortize pool startup — runs in-process through the same
  :func:`~repro.experiments.worker.run_unit`, settled by the same ledger,
  with the same cache and failure-policy semantics.
- **Sweep telemetry.** Attach a
  :class:`~repro.telemetry.metrics.MetricsRegistry` and every work unit
  reports sessions completed/failed, wall time, and artifact-cache
  hits/misses; workers ship per-unit snapshots back with their results
  and the parent merges them in submission order. Snapshots come back
  even from *failed* units, so failure telemetry is never undercounted.
  Attach a :class:`~repro.telemetry.spans.SpanTracer` and the engine
  additionally records a stitched run timeline: scheduler phases on the
  scheduler's track plus every worker's per-unit spans (down to the
  batch engine's aggregate estimate/decide/advance stage costs),
  exportable as a Chrome trace. The multi-host backend adds
  lease-protocol spans (``lease.claim``/``lease.reclaim``/
  ``store.merge``). A :class:`~repro.telemetry.pipeline.ProgressBoard`
  streams live progress for ``repro top``. No registry/tracer/board,
  no overhead.
- **Failure policy.** ``on_error`` selects what a failed work unit does
  to the sweep: ``"raise"`` (default) aborts with a
  :class:`SweepWorkerError` naming the failing (scheme, video, trace)
  triple; ``"skip"`` drops the unit and records a
  :class:`~repro.experiments.runner.FailedUnit` on the spec's
  :class:`~repro.experiments.runner.SweepResult`; ``"retry"`` re-runs
  the unit up to ``max_retries`` times before skipping it. A broken
  pool (worker killed, interpreter crash) is recovered once by the pool
  backend: the pool is respawned and unfinished units requeued; a
  second break aborts. The multi-host backend supports ``"raise"``
  only, and recovers *host* death through lease expiry instead.
- **Fault injection.** Give the engine (or individual specs) a
  :class:`~repro.faults.plan.FaultPlan` and the sweep replays the same
  grid under injected adverse conditions. Trace-level perturbations are
  applied once per (plan, trace) in the parent — workers receive the
  already-perturbed timelines — while per-download latency spikes are
  applied statelessly inside each session, so results stay bit-identical
  at any worker count.

Factories attached to a :class:`SweepSpec` (``algorithm_factory``,
``estimator_factory``) must be picklable for multi-process runs: use
module-level functions or dataclass instances with ``__call__`` (e.g.
:class:`repro.core.tuning.CavaFactory`), not lambdas or closures.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import nullcontext

# Re-exported (and monkeypatch target): every executor backend builds
# its pool as ``parallel.ProcessPoolExecutor`` so tests and embedders
# can substitute the pool class in exactly one place.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.executors import (
    EXECUTOR_NAMES,
    ExecutorBackend,
    PlanContext,
    SweepLedger,
    resolve_executor,
)
from repro.experiments.leases import DEFAULT_LEASE_TTL_S
from repro.experiments.runner import (
    EstimatorFactory,
    FailedUnit,
    SweepResult,
)
from repro.experiments.scheduler import (
    SweepScheduler,
    SweepSpec,
    SweepWorkerError,
    WorkUnit,
)
from repro.experiments.store import SessionStore
from repro.experiments.worker import (
    BATCHES_METRIC,
    CACHE_HITS_METRIC,
    CACHE_MISSES_METRIC,
    FAULTS_INJECTED_METRIC,
    POOL_RESPAWNS_METRIC,
    RETRIES_METRIC,
    SESSIONS_COMPLETED_METRIC,
    SESSIONS_FAILED_METRIC,
    SKIPPED_UNITS_METRIC,
    UNIT_SECONDS_METRIC,
    WORKERS_METRIC,
    run_unit,
)
from repro.faults.plan import FaultPlan
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.telemetry.metrics import (
    SHM_ATTACHED_WORKERS_METRIC,
    SHM_BLOCKS_METRIC,
    SHM_BYTES_METRIC,
    SHM_PUBLISH_SECONDS_METRIC,
    STORE_BYTES_READ_METRIC,
    STORE_BYTES_WRITTEN_METRIC,
    STORE_CORRUPT_METRIC,
    STORE_HITS_METRIC,
    STORE_MISSES_METRIC,
    MetricsRegistry,
)
from repro.telemetry.pipeline import (
    SPAN_STORE_PARTITION,
    SPAN_SWEEP_PLAN,
    SPAN_UNIT_RUN,
    ProgressBoard,
    stage_breakdown,
)
from repro.telemetry.spans import SpanTracer, maybe_span
from repro.video.model import VideoAsset

__all__ = [
    "SweepSpec",
    "SweepWorkerError",
    "FailedUnit",
    "WorkUnit",
    "ParallelSweepRunner",
    "EXECUTOR_NAMES",
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
    "SHM_ATTACHED_WORKERS_METRIC",
    "SHM_BLOCKS_METRIC",
    "SHM_BYTES_METRIC",
    "SHM_PUBLISH_SECONDS_METRIC",
]

#: Valid ``on_error`` policies.
_POLICIES = ("raise", "skip", "retry")

# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class ParallelSweepRunner:
    """Fan (scheme, video, trace-batch) work units out over an executor.

    Parameters
    ----------
    n_workers:
        Pool size. ``None`` uses every core (``os.cpu_count()``); ``1``
        forces the in-process serial path (pool executor only).
    batch_size:
        Traces per work unit. Defaults to splitting each spec's trace
        set into about four batches per worker, balancing scheduling
        granularity against per-task IPC overhead.
    mp_context:
        A start-method name (``"fork"``/``"spawn"``/``"forkserver"``) or
        an existing :mod:`multiprocessing` context. Defaults to the
        platform default.
    min_parallel_sessions:
        Grids with fewer total sessions than this run serially — pool
        startup would dominate. Set to 0 to force pool execution.
        (Applies to the pool executor; the multihost backend runs
        whenever sessions are pending.)
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` the
        sweep populates: sessions completed/failed, per-unit wall time,
        artifact-cache hits/misses, worker count, and the failure-policy
        counters (retries, skipped units, pool respawns, injected fault
        events). Workers accumulate into per-unit registries whose
        snapshots are merged back here in submission order, so the
        numbers are deterministic and the results bit-identical with
        telemetry on or off. ``None`` (the default) skips all of it.
    on_error:
        Failure policy for work units. ``"raise"`` (default) aborts the
        sweep with the earliest-submitted unit's
        :class:`SweepWorkerError`; ``"skip"`` drops failed units,
        recording each as a :class:`~repro.experiments.runner.FailedUnit`
        on its spec's result; ``"retry"`` re-runs a failed unit up to
        ``max_retries`` times (bit-identical on success — sessions are
        fully seeded), then skips it. The multihost executor accepts
        ``"raise"`` only.
    max_retries:
        Retry budget per work unit under ``on_error="retry"``.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to every
        spec that does not carry its own: the grid is replayed under the
        plan's injected adverse conditions.
    store:
        Optional :class:`~repro.experiments.store.SessionStore`. The
        engine partitions every spec's trace set into cached vs. missing
        sessions before any work ships, replays only the misses, writes
        their results back, and merges bit-identically with the all-cold
        path. Specs whose factories have no stable content identity
        (lambdas/closures) simply bypass the store. Required by the
        multihost executor (it is the coordination medium).
    tracer:
        Optional :class:`~repro.telemetry.spans.SpanTracer` the sweep
        records its run timeline into: scheduler phases (plan, store
        partition, shm publish, pool spawn, drain, merge — plus lease
        claim/reclaim and store merge on the multihost backend) on the
        scheduler's own track, plus every worker's per-unit spans —
        recorded worker-side, shipped back with unit results, and
        stitched here keyed by (worker track, unit order, stage).
        Export with :func:`~repro.telemetry.pipeline.chrome_trace`.
        ``None`` (the default) records nothing and costs one ``is None``
        test per instrumented site; results are bit-identical either
        way.
    progress:
        Optional :class:`~repro.telemetry.pipeline.ProgressBoard` the
        engine feeds live progress (units done/failed, sessions
        completed/cached, per-scheme breakdown) for ``repro top``.
    executor:
        Which backend runs the planned units: ``"pool"`` (default, the
        local process pool), ``"multihost"`` (store-leasing cooperation
        across machines), or an :class:`~repro.experiments.executors.
        ExecutorBackend` instance. All backends return bit-identical
        results.
    sweep_id:
        Explicit sweep identity for multihost coordination. ``None``
        (default) derives it from the grid's store keys
        (:func:`~repro.experiments.scheduler.sweep_grid_id`); the CLI
        passes the recipe digest instead so initiator and joining
        ``repro sweep-worker`` processes agree by construction.
    lease_ttl_s:
        Multihost lease time-to-live. A lease not heartbeated for this
        long is considered abandoned (dead host) and reclaimed.
    lease_poll_s:
        Multihost poll interval while waiting on peers' leases.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        mp_context: Optional[Union[str, multiprocessing.context.BaseContext]] = None,
        min_parallel_sessions: int = 16,
        registry: Optional[MetricsRegistry] = None,
        on_error: str = "raise",
        max_retries: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        store: Optional[SessionStore] = None,
        tracer: Optional[SpanTracer] = None,
        progress: Optional[ProgressBoard] = None,
        executor: Union[str, ExecutorBackend] = "pool",
        sweep_id: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        lease_poll_s: float = 0.5,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1 or None, got {n_workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        if min_parallel_sessions < 0:
            raise ValueError("min_parallel_sessions must be non-negative")
        if on_error not in _POLICIES:
            raise ValueError(
                f"on_error must be one of {_POLICIES}, got {on_error!r}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if lease_poll_s <= 0:
            raise ValueError(f"lease_poll_s must be positive, got {lease_poll_s}")
        resolve_executor(executor)  # validate the name eagerly
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.mp_context = mp_context
        self.min_parallel_sessions = min_parallel_sessions
        self.registry = registry
        self.on_error = on_error
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.store = store
        self.tracer = tracer
        self.progress = progress
        self.executor = executor
        self.sweep_id = sweep_id
        self.lease_ttl_s = lease_ttl_s
        self.lease_poll_s = lease_poll_s

    # -- planning surface ----------------------------------------------

    @property
    def scheduler(self) -> SweepScheduler:
        """A scheduler bound to this engine's current store/telemetry."""
        return SweepScheduler(
            store=self.store,
            batch_size=self.batch_size,
            count=self._count,
            timed=self._timed,
        )

    # -- sizing ---------------------------------------------------------

    def resolved_workers(self) -> int:
        """The worker count this engine would actually use."""
        if self.n_workers is not None:
            return self.n_workers
        return os.cpu_count() or 1

    # -- fault-plan materialization ------------------------------------

    def _effective_specs(self, specs: Sequence[SweepSpec]) -> List[SweepSpec]:
        """Specs with the engine-level fault plan filled in where unset."""
        if self.fault_plan is None:
            return list(specs)
        return [
            spec if spec.fault_plan is not None else replace(spec, fault_plan=self.fault_plan)
            for spec in specs
        ]

    def _perturbed_traces(
        self, specs: Sequence[SweepSpec], traces: Sequence[NetworkTrace]
    ) -> Dict[Optional[FaultPlan], List[NetworkTrace]]:
        """Build every fault plan's perturbed trace set, once per plan.

        Perturbation happens here — in the parent, before any work
        ships — so a faulted timeline is constructed exactly once per
        (plan, trace) pair regardless of worker count or batching, and
        the injected-event total is counted exactly once.
        """
        traces_by_plan: Dict[Optional[FaultPlan], List[NetworkTrace]] = {
            None: list(traces)
        }
        events = 0
        for spec in specs:
            plan = spec.fault_plan
            if plan is None or plan in traces_by_plan:
                continue
            perturbed = []
            for trace in traces:
                faulted, trace_events = plan.perturb_trace(trace)
                perturbed.append(faulted)
                events += trace_events
            traces_by_plan[plan] = perturbed
        if events and self.registry is not None:
            self.registry.counter(
                FAULTS_INJECTED_METRIC, "fault events injected into sweep traces"
            ).inc(events)
        return traces_by_plan

    # -- execution ------------------------------------------------------

    def run_specs(
        self,
        specs: Sequence[SweepSpec],
        videos: Mapping[str, VideoAsset],
        traces: Sequence[NetworkTrace],
        config: SessionConfig = SessionConfig(),
    ) -> List[SweepResult]:
        """Run every spec over ``traces``; results align with ``specs``.

        The core entry point: :meth:`run_comparison`, :meth:`run_grid`,
        the tuner, and the CLI all reduce to this.
        """
        specs = self._effective_specs(specs)
        traces = list(traces)
        if not specs:
            return []
        if not traces:
            raise ValueError("need at least one trace")
        for spec in specs:
            if spec.video_key not in videos:
                raise KeyError(
                    f"spec {spec.describe()!r} references unknown video "
                    f"{spec.video_key!r}; known: {sorted(videos)}"
                )
        backend = resolve_executor(self.executor)
        tracer = self.tracer
        with maybe_span(
            tracer, SPAN_SWEEP_PLAN, cat="sched", specs=len(specs), traces=len(traces)
        ):
            traces_by_plan = self._perturbed_traces(specs, traces)
        store_before = (
            self.store.stats
            if (self.store is not None and self.registry is not None)
            else None
        )
        try:
            with maybe_span(tracer, SPAN_STORE_PARTITION, cat="sched") as part_span:
                cached, keys, runs = self.scheduler.partition(
                    specs, videos, traces_by_plan, config
                )
                part_span.annotate(
                    cached_sessions=sum(len(c) for c in cached),
                    missing_runs=sum(len(r) for r in runs),
                )
            workers = self.resolved_workers()
            ctx = PlanContext(
                specs=specs,
                videos=videos,
                traces_by_plan=traces_by_plan,
                config=config,
                workers=workers,
                cached=cached,
                keys=keys,
                runs=runs,
            )
            pending_sessions = sum(
                stop - start for spec_runs in runs for start, stop in spec_runs
            )
            # Fully-cached grids merge in-process on every backend; the
            # pool backend additionally falls back to serial when the
            # pool could not pay for itself. The multihost backend runs
            # whenever anything is pending (cross-host cooperation is
            # useful at any size).
            if pending_sessions == 0 or (
                backend.name == "pool"
                and (
                    workers == 1
                    or pending_sessions < self.min_parallel_sessions
                )
            ):
                return self._run_serial(ctx)
            return backend.execute(self, ctx)
        finally:
            if store_before is not None:
                self._fold_store_stats(store_before)

    def _store_unit(
        self,
        keys: Optional[List[str]],
        start: int,
        metrics: List[SessionMetrics],
    ) -> None:
        """Write one completed unit's sessions back to the store."""
        if self.store is None or keys is None:
            return
        from repro.telemetry.metrics import STORE_WRITE_SECONDS_METRIC

        with self._timed(
            STORE_WRITE_SECONDS_METRIC,
            "session-store write-back per unit (seconds)",
        ):
            for offset, metric in enumerate(metrics):
                self.store.put(keys[start + offset], metric)

    def _fold_store_stats(self, before) -> None:
        """Fold the store's counter deltas for this run into the registry."""
        after = self.store.stats
        registry = self.registry
        for name, help_text, delta in (
            (STORE_HITS_METRIC, "session-store hits", after.hits - before.hits),
            (STORE_MISSES_METRIC, "session-store misses", after.misses - before.misses),
            (
                STORE_CORRUPT_METRIC,
                "corrupted/stale session-store entries encountered",
                after.corrupt - before.corrupt,
            ),
            (
                STORE_BYTES_READ_METRIC,
                "bytes read from the session store",
                after.bytes_read - before.bytes_read,
            ),
            (
                STORE_BYTES_WRITTEN_METRIC,
                "bytes written to the session store",
                after.bytes_written - before.bytes_written,
            ),
        ):
            # Registered even at zero, so a warm run's dump reads
            # "misses 0" rather than leaving the line out.
            registry.counter(name, help_text).inc(delta)

    # -- telemetry plumbing --------------------------------------------

    def _timed(self, name: str, help_text: str):
        """``registry.timer(...)`` when telemetry is on, else a no-op CM."""
        if self.registry is None:
            return nullcontext()
        return self.registry.timer(name, help_text)

    def _progress_update(self, force: bool = False, **fields) -> None:
        if self.progress is not None:
            self.progress.update(force=force, **fields)

    # -- failure-policy plumbing ---------------------------------------

    def _count(self, name: str, description: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.counter(name, description).inc(amount)

    def _should_retry(self, attempts: int) -> bool:
        """True when the policy grants this unit another attempt."""
        if self.on_error != "retry" or attempts > self.max_retries:
            return False
        self._count(RETRIES_METRIC, "sweep work-unit retry attempts")
        return True

    def _failed_unit(
        self,
        spec: SweepSpec,
        video_name: str,
        start: int,
        stop: int,
        attempts: int,
        error: SweepWorkerError,
    ) -> FailedUnit:
        """Record one dropped unit (skip policy / exhausted retries)."""
        self._count(SKIPPED_UNITS_METRIC, "sweep work units dropped by failure policy")
        return FailedUnit(
            scheme=spec.scheme,
            video_name=video_name,
            network=spec.network,
            trace_name=error.trace_name,
            start=start,
            stop=stop,
            attempts=attempts,
            error=error.cause,
        )

    def _run_serial(self, ctx: PlanContext) -> List[SweepResult]:
        # One work unit per missing run (without a store that is one
        # unit per spec), settled by the same ledger as the pool.
        units: List[WorkUnit] = []
        for spec_idx, spec_runs in enumerate(ctx.runs):
            for start, stop in spec_runs:
                units.append(WorkUnit(len(units), spec_idx, start, stop))
        ledger = SweepLedger(self, ctx, units, workers=1)
        cache = ArtifactCache()

        def attempt_unit(unit: WorkUnit):
            spec = ctx.specs[unit.spec_idx]
            return run_unit(
                spec,
                ctx.videos[spec.video_key],
                ctx.traces_by_plan[spec.fault_plan][unit.start : unit.stop],
                ctx.config,
                cache,
                self.registry,
                self.tracer,
                start=unit.start,
                stop=unit.stop,
            )

        for unit in units:
            attempt = 1
            while ledger.settle(unit.order, attempt, *attempt_unit(unit)):
                attempt += 1
        return ledger.results()

    def _finish_progress(
        self, specs: Sequence[SweepSpec], results: Sequence[SweepResult]
    ) -> None:
        """Final forced board write with the per-scheme breakdown.

        Sessions come from the assembled results; per-scheme unit wall
        time and batch-stage costs come from the stitched span timeline
        when a tracer is attached (``repro top`` renders all three).
        """
        if self.progress is None:
            return
        breakdown = (
            stage_breakdown(self.tracer.spans) if self.tracer is not None else {}
        )
        unit_seconds: Dict[str, float] = {}
        if self.tracer is not None:
            for span in self.tracer.spans:
                if span["name"] == SPAN_UNIT_RUN:
                    label = str(span["meta"].get("scheme", ""))
                    unit_seconds[label] = unit_seconds.get(label, 0.0) + float(
                        span["dur_s"]
                    )
        schemes: Dict[str, Dict[str, object]] = {}
        for spec, result in zip(specs, results):
            label = spec.describe()
            info = schemes.setdefault(label, {"sessions": 0})
            info["sessions"] = int(info["sessions"]) + len(result.metrics)
        for label, info in schemes.items():
            info["unit_seconds"] = round(unit_seconds.get(label, 0.0), 4)
            info["stages"] = breakdown.get(label, {})
        self.progress.update(force=True, phase="merged", schemes=schemes)

    # -- convenience entry points --------------------------------------

    def run_scheme(
        self,
        scheme: str,
        video: VideoAsset,
        traces: Sequence[NetworkTrace],
        network: str = "lte",
        config: SessionConfig = SessionConfig(),
        estimator_factory: Optional[EstimatorFactory] = None,
        algorithm_factory=None,
    ) -> SweepResult:
        """One scheme over ``traces`` (what :func:`run_scheme_on_traces`
        runs)."""
        spec = SweepSpec(
            scheme=scheme,
            video_key=video.name,
            network=network,
            algorithm_factory=algorithm_factory,
            estimator_factory=estimator_factory,
        )
        return self.run_specs([spec], {video.name: video}, traces, config)[0]

    def run_comparison(
        self,
        schemes: Sequence[str],
        video: VideoAsset,
        traces: Sequence[NetworkTrace],
        network: str = "lte",
        config: SessionConfig = SessionConfig(),
    ) -> Dict[str, SweepResult]:
        """Several schemes over the same traces (what
        :func:`run_comparison` runs): same ordering, one pool for the
        whole scheme set."""
        specs = [
            SweepSpec(scheme=scheme, video_key=video.name, network=network)
            for scheme in schemes
        ]
        results = self.run_specs(specs, {video.name: video}, traces, config)
        return {spec.scheme: result for spec, result in zip(specs, results)}

    def run_grid(
        self,
        schemes: Sequence[str],
        videos: Sequence[VideoAsset],
        traces: Sequence[NetworkTrace],
        network: str = "lte",
        config: SessionConfig = SessionConfig(),
    ) -> Dict[Tuple[str, str], SweepResult]:
        """The full §6 grid: every scheme on every video, one pool."""
        by_key = {video.name: video for video in videos}
        if len(by_key) != len(videos):
            raise ValueError("video names must be unique within a grid")
        specs = [
            SweepSpec(scheme=scheme, video_key=video.name, network=network)
            for scheme in schemes
            for video in videos
        ]
        results = self.run_specs(specs, by_key, traces, config)
        return {
            (spec.scheme, spec.video_key): result
            for spec, result in zip(specs, results)
        }

