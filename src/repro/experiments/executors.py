"""Pluggable sweep executor backends: pool and multi-host.

The scheduler (:mod:`repro.experiments.scheduler`) decides *what* to
run; an executor backend decides *where and how*. Both backends share
one contract — given a planned grid they must produce the exact result
list the serial runner would, bit for bit:

- :class:`PoolExecutorBackend` — the default: fan work units over a
  local :class:`~concurrent.futures.ProcessPoolExecutor` with the
  zero-copy shm data plane, full failure policy (skip/retry, one pool
  respawn after a break), and deterministic submission-order merging.
- :class:`MultiHostExecutorBackend` — cooperative workers on any number
  of machines sharing one store directory: each participant derives the
  same canonical unit catalogue, claims units through atomic lease
  files (:mod:`repro.experiments.leases`), computes only the sessions
  still missing from the store, and writes them back with the store's
  checksum machinery. Stale leases (dead hosts) are reclaimed after a
  TTL so a crashed worker never wedges the sweep; duplicate compute
  after a reclaim race is benign because store entries are immutable
  and content-addressed. Every participant merges the full grid from
  the store at the end, so all of them return identical results —
  byte-identical to a single-host serial run. Requires a fully
  cacheable grid and ``on_error="raise"`` (a deterministically failing
  session fails every participant; skip/skip-retry bookkeeping cannot
  be reconciled across hosts).

Pool construction goes through the :mod:`repro.experiments.parallel`
module namespace (``parallel.ProcessPoolExecutor``) so tests and
embedders can substitute the pool class in one place.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.dataplane import try_publish
from repro.experiments.leases import LeaseBoard
from repro.experiments.runner import FailedUnit, SweepResult
from repro.experiments.scheduler import (
    SweepScheduler,
    SweepSpec,
    SweepWorkerError,
    WorkUnit,
    contiguous_runs,
    sweep_grid_id,
)
from repro.experiments.worker import (
    POOL_RESPAWNS_METRIC,
    WORKERS_METRIC,
    init_worker,
    run_batch_in_worker,
    sweep_batch,
)
from repro.faults.plan import FaultPlan
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.telemetry.metrics import (
    LEASE_WAIT_SECONDS_METRIC,
    LEASES_CLAIMED_METRIC,
    LEASES_RECLAIMED_METRIC,
    SHM_BLOCKS_METRIC,
    SHM_BYTES_METRIC,
    SHM_PUBLISH_SECONDS_METRIC,
)
from repro.telemetry.pipeline import (
    SPAN_LEASE_CLAIM,
    SPAN_LEASE_RECLAIM,
    SPAN_POOL_SPAWN,
    SPAN_SHM_PUBLISH,
    SPAN_STORE_MERGE,
    SPAN_SWEEP_DRAIN,
    SPAN_SWEEP_MERGE,
    SPAN_UNIT_RUN,
)
from repro.telemetry.spans import maybe_span
from repro.video.model import VideoAsset

__all__ = [
    "EXECUTOR_NAMES",
    "MULTIHOST_PLAN_WORKERS",
    "PlanContext",
    "ExecutorBackend",
    "PoolExecutorBackend",
    "MultiHostExecutorBackend",
    "resolve_executor",
]

#: Canonical worker count used to size the multi-host unit catalogue.
#: It must be a constant — every cooperating process, whatever its local
#: core count, has to derive the identical unit breakdown — so it cannot
#: follow ``os.cpu_count()``. Eight keeps units coarse enough to
#: amortize lease-file I/O while still load-balancing a realistic fleet.
MULTIHOST_PLAN_WORKERS = 8


@dataclass
class PlanContext:
    """One planned grid, handed from the scheduler to a backend.

    ``cached``/``keys``/``runs`` are the store partition (aligned with
    ``specs``); ``workers`` is the engine's resolved local worker count.
    """

    specs: Sequence[SweepSpec]
    videos: Mapping[str, VideoAsset]
    traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]]
    config: SessionConfig
    workers: int
    cached: Sequence[Dict[int, SessionMetrics]]
    keys: Sequence[Optional[List[str]]]
    runs: Sequence[List[Tuple[int, int]]]

    def total_sessions(self) -> int:
        return sum(
            len(self.traces_by_plan[spec.fault_plan]) for spec in self.specs
        )

    def cached_sessions(self) -> int:
        return sum(len(spec_cached) for spec_cached in self.cached)

    def seed_parts(self) -> List[Dict[int, List[SessionMetrics]]]:
        """Per-spec result parts pre-seeded with the cached sessions."""
        return [
            {idx: [metric] for idx, metric in spec_cached.items()}
            for spec_cached in self.cached
        ]


class ExecutorBackend:
    """Strategy interface: run one planned grid, return ordered results."""

    name = "base"

    def execute(self, engine, ctx: PlanContext) -> List[SweepResult]:
        raise NotImplementedError


def _pool_initargs(engine, ctx: PlanContext):
    """Publish the shm data plane and build the pool initializer args.

    Returns ``(plane, initargs)`` — ``plane`` is None on the inline
    fallback (shared memory unavailable or disabled), and the caller
    owns ``plane.close_and_unlink()``.
    """
    registry = engine.registry
    tracer = engine.tracer
    plane = None
    if engine.use_shared_memory:
        with maybe_span(tracer, SPAN_SHM_PUBLISH, cat="sched") as shm_span:
            with engine._timed(
                SHM_PUBLISH_SECONDS_METRIC, "shm data-plane publish (seconds)"
            ):
                plane = try_publish(ctx.videos, ctx.traces_by_plan)
            if plane is not None:
                shm_span.annotate(nbytes=plane.nbytes)
    if plane is not None:
        initargs = (
            list(ctx.specs),
            ctx.config,
            registry is not None,
            None,
            plane.manifest,
            tracer is not None,
        )
        if registry is not None:
            registry.gauge(
                SHM_BLOCKS_METRIC, "shared-memory blocks published for the sweep"
            ).set(1)
            registry.gauge(
                SHM_BYTES_METRIC, "bytes published through the shm data plane"
            ).set(plane.nbytes)
    else:
        inline_assets = (
            dict(ctx.videos),
            {plan: list(batch) for plan, batch in ctx.traces_by_plan.items()},
        )
        initargs = (
            list(ctx.specs),
            ctx.config,
            registry is not None,
            inline_assets,
            None,
            tracer is not None,
        )
    return plane, initargs


def _merge_telemetry(engine, snapshots, worker_spans) -> None:
    """Fold worker snapshots/spans back in deterministic order."""
    registry = engine.registry
    tracer = engine.tracer
    if registry is None and tracer is None:
        return
    with maybe_span(tracer, SPAN_SWEEP_MERGE, cat="sched"):
        if registry is not None:
            for _order, _attempt, snapshot in sorted(
                snapshots, key=lambda item: (item[0], item[1])
            ):
                registry.merge(snapshot)
        if tracer is not None:
            # Stitch worker span snapshots in submission order — the
            # timeline is deterministic no matter which worker finished
            # first. Each span keeps its own worker track; the
            # unit/attempt tags key the (worker, unit, stage) view.
            for order, attempt, unit_spans in sorted(
                worker_spans, key=lambda item: (item[0], item[1])
            ):
                tracer.absorb(unit_spans, unit=order, attempt=attempt)


def _shutdown_before_unlink(pool) -> None:
    """Shut a drained pool down and wait for every worker to exit.

    Called before the shm data plane is unlinked. Not ``wait=False``: a
    worker the pool started late (spawn starts workers on demand) would
    run its initializer after the unlink, fail to attach, and leave the
    pool's manager thread to hang interpreter exit; and the manager and
    queue-feeder threads of a pool left winding down would still be
    alive when the next sweep forks its workers. Queued units that never
    started (an aborted drain) are cancelled rather than run.
    """
    pool.shutdown(wait=True, cancel_futures=True)


class PoolExecutorBackend(ExecutorBackend):
    """The in-process process-pool backend (the default sweep path)."""

    name = "pool"

    def execute(self, engine, ctx: PlanContext) -> List[SweepResult]:
        # Resolved through the parallel module namespace at call time so
        # one monkeypatch of parallel.ProcessPoolExecutor swaps the pool
        # class (the tests' payload-measuring pool relies on it).
        from repro.experiments import parallel as parallel_mod

        specs, videos = ctx.specs, ctx.videos
        keys = ctx.keys
        units = engine.scheduler.plan_units(specs, ctx.runs, ctx.workers)
        # Never spin up more workers than there are tasks.
        workers = min(ctx.workers, len(units))
        registry = engine.registry
        tracer = engine.tracer
        if registry is not None:
            registry.gauge(WORKERS_METRIC, "sweep worker processes").set(workers)
        mp_context = engine._resolve_context()
        plane, initargs = _pool_initargs(engine, ctx)

        parts = ctx.seed_parts()
        failures: List[List[FailedUnit]] = [[] for _ in specs]
        attempts: Dict[int, int] = {unit.order: 0 for unit in units}
        # (unit order, attempt, snapshot): merged after the pool drains,
        # sorted by key, so telemetry is deterministic regardless of
        # completion order.
        snapshots: List[Tuple[int, int, Mapping[str, dict]]] = []
        worker_spans: List[Tuple[int, int, List[Dict[str, object]]]] = []
        # (unit order, error) under on_error="raise": the earliest-
        # submitted failure is re-raised after an orderly drain.
        fatal: List[Tuple[int, SweepWorkerError]] = []
        respawned = False
        done_units = failed_units = completed_sessions = 0
        engine._progress_update(
            force=True,
            phase="running",
            workers=workers,
            total_units=len(units),
            done_units=0,
            failed_units=0,
            total_sessions=ctx.total_sessions(),
            completed_sessions=0,
            cached_sessions=ctx.cached_sessions(),
        )

        def make_pool():
            with maybe_span(tracer, SPAN_POOL_SPAWN, cat="sched", workers=workers):
                return parallel_mod.ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp_context,
                    initializer=init_worker,
                    initargs=initargs,
                )

        def submit(unit: WorkUnit, count_attempt: bool = True) -> None:
            if count_attempt:
                attempts[unit.order] += 1
            future = pool.submit(
                run_batch_in_worker, unit.spec_idx, unit.start, unit.stop
            )
            futures[future] = unit

        def consume(future: Future, unit: WorkUnit) -> Optional[str]:
            """Fold one settled future into the result state.

            Returns ``"retry"`` / ``"requeue"`` when the unit must run
            again (policy retry / broken pool), else None.
            """
            nonlocal done_units, failed_units, completed_sessions
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                # The pool died under this unit — not the unit's own
                # failure, so its attempt count is not charged.
                return "requeue"
            if exc is not None:
                # The task raised outside the worker's catch (pickling,
                # initializer crash, OOM): identify the batch by range.
                error = (
                    exc
                    if isinstance(exc, SweepWorkerError)
                    else SweepWorkerError(
                        specs[unit.spec_idx].describe(),
                        videos[specs[unit.spec_idx].video_key].name,
                        f"traces[{unit.start}:{unit.stop}]",
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                metrics = snapshot = unit_spans = None
            else:
                metrics, snapshot, error, unit_spans = future.result()
            if snapshot is not None:
                snapshots.append((unit.order, attempts[unit.order], snapshot))
            if unit_spans is not None:
                worker_spans.append((unit.order, attempts[unit.order], unit_spans))
            if error is None:
                parts[unit.spec_idx][unit.start] = metrics
                engine._store_unit(keys[unit.spec_idx], unit.start, metrics)
                done_units += 1
                completed_sessions += len(metrics)
                engine._progress_update(
                    done_units=done_units,
                    completed_sessions=completed_sessions,
                )
                return None
            if engine.on_error == "raise":
                fatal.append((unit.order, error))
                return None
            if engine._should_retry(attempts[unit.order]):
                return "retry"
            spec = specs[unit.spec_idx]
            failures[unit.spec_idx].append(
                engine._failed_unit(
                    spec,
                    videos[spec.video_key].name,
                    unit.start,
                    unit.stop,
                    attempts[unit.order],
                    error,
                )
            )
            failed_units += 1
            engine._progress_update(failed_units=failed_units)
            return None

        pool = make_pool()
        futures: Dict[Future, WorkUnit] = {}
        # Entered/exited manually so the drain span brackets exactly the
        # submit/consume event loop, whatever path exits the try below.
        drain_span = maybe_span(
            tracer, SPAN_SWEEP_DRAIN, cat="sched", units=len(units)
        )
        drain_span.__enter__()
        try:
            for unit in units:
                submit(unit)
            while futures and not fatal:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                broken = False
                rerun: List[Tuple[WorkUnit, bool]] = []  # (unit, count_attempt)
                for future in sorted(done, key=lambda f: futures[f].order):
                    unit = futures.pop(future)
                    verdict = consume(future, unit)
                    if verdict == "requeue":
                        broken = True
                        rerun.append((unit, False))
                    elif verdict == "retry":
                        rerun.append((unit, True))
                if broken:
                    # A broken pool settles every remaining future with
                    # BrokenProcessPool (completed ones keep their
                    # results); drain them all, then respawn once.
                    for future in sorted(futures, key=lambda f: futures[f].order):
                        unit = futures[future]
                        verdict = consume(future, unit)
                        if verdict is not None:
                            rerun.append((unit, verdict == "retry"))
                    futures.clear()
                    pool.shutdown(wait=False)
                    if fatal:
                        break
                    if respawned:
                        raise BrokenProcessPool(
                            "sweep pool broke twice; aborting after one respawn"
                        )
                    respawned = True
                    engine._count(
                        POOL_RESPAWNS_METRIC,
                        "process-pool respawns after a pool break",
                    )
                    pool = make_pool()
                rerun.sort(key=lambda item: item[0].order)
                for unit, count_attempt in rerun:
                    submit(unit, count_attempt=count_attempt)
            if fatal:
                # Orderly abort: stop scheduling, let in-flight units
                # finish, and keep their telemetry before re-raising.
                for future in futures:
                    future.cancel()
                wait(list(futures))
                for future in sorted(futures, key=lambda f: futures[f].order):
                    unit = futures[future]
                    if future.cancelled() or future.exception() is not None:
                        continue
                    _metrics, snapshot, _error, unit_spans = future.result()
                    if snapshot is not None:
                        snapshots.append((unit.order, attempts[unit.order], snapshot))
                    if unit_spans is not None:
                        worker_spans.append(
                            (unit.order, attempts[unit.order], unit_spans)
                        )
                futures.clear()
        finally:
            drain_span.__exit__(None, None, None)
            _shutdown_before_unlink(pool)
            if plane is not None:
                plane.close_and_unlink()

        _merge_telemetry(engine, snapshots, worker_spans)
        if fatal:
            fatal.sort(key=lambda item: item[0])
            raise fatal[0][1]

        results = SweepScheduler.assemble(specs, videos, parts, failures)
        engine._finish_progress(specs, results)
        return results


class MultiHostExecutorBackend(ExecutorBackend):
    """Lease-coordinated cooperative sweep over a shared store directory."""

    name = "multihost"

    def execute(self, engine, ctx: PlanContext) -> List[SweepResult]:
        if engine.store is None:
            raise ValueError(
                "the multihost executor requires a session store "
                "(store=... / --cache-dir)"
            )
        if engine.on_error != "raise":
            raise ValueError(
                "the multihost executor supports on_error='raise' only: "
                "skip/retry bookkeeping cannot be reconciled across hosts"
            )
        store = engine.store
        specs, videos = ctx.specs, ctx.videos
        keys = ctx.keys
        registry = engine.registry
        tracer = engine.tracer
        sweep_id = engine.sweep_id or sweep_grid_id(keys)
        units = engine.scheduler.plan_grid_units(
            specs, ctx.traces_by_plan, MULTIHOST_PLAN_WORKERS
        )
        board = LeaseBoard(store.root, sweep_id, ttl_s=engine.lease_ttl_s)
        cache = ArtifactCache()
        if registry is not None:
            registry.gauge(WORKERS_METRIC, "sweep worker processes").set(1)
        pending: Dict[int, WorkUnit] = {unit.order: unit for unit in units}
        done_units = completed_sessions = 0
        engine._progress_update(
            force=True,
            phase="running",
            workers=1,
            total_units=len(units),
            done_units=0,
            failed_units=0,
            total_sessions=ctx.total_sessions(),
            completed_sessions=0,
            cached_sessions=ctx.cached_sessions(),
        )

        while pending:
            progressed = False
            for order in sorted(pending):
                unit = pending[order]
                spec = specs[unit.spec_idx]
                spec_keys = keys[unit.spec_idx]
                missing = [
                    idx
                    for idx in range(unit.start, unit.stop)
                    if not store.has(spec_keys[idx])
                ]
                if not missing:
                    # Another participant (or a previous run) completed
                    # this unit; observe and move on.
                    del pending[order]
                    done_units += 1
                    engine._progress_update(done_units=done_units)
                    progressed = True
                    continue
                if not board.claim(unit.name):
                    continue  # leased by a live peer
                engine._count(
                    LEASES_CLAIMED_METRIC, "sweep work-unit leases claimed"
                )
                try:
                    with maybe_span(
                        tracer,
                        SPAN_LEASE_CLAIM,
                        cat="sched",
                        unit=unit.name,
                        owner=board.owner,
                    ):
                        video = videos[spec.video_key]
                        traces = ctx.traces_by_plan[spec.fault_plan]
                        for run_start, run_stop in contiguous_runs(missing):
                            with maybe_span(
                                tracer,
                                SPAN_UNIT_RUN,
                                cat="unit",
                                scheme=spec.describe(),
                                video=spec.video_key,
                                start=run_start,
                                stop=run_stop,
                            ):
                                run_metrics = sweep_batch(
                                    spec,
                                    video,
                                    traces[run_start:run_stop],
                                    ctx.config,
                                    cache,
                                    registry,
                                    tracer,
                                )
                            engine._store_unit(spec_keys, run_start, run_metrics)
                            completed_sessions += len(run_metrics)
                            engine._progress_update(
                                completed_sessions=completed_sessions
                            )
                            board.heartbeat(unit.name)
                finally:
                    board.release(unit.name)
                del pending[order]
                done_units += 1
                engine._progress_update(done_units=done_units)
                progressed = True
            if pending and not progressed:
                # Every remaining unit is leased elsewhere: steal from
                # the dead, then wait politely for the living.
                with maybe_span(tracer, SPAN_LEASE_RECLAIM, cat="sched") as span:
                    reclaimed = board.reclaim_stale()
                    span.annotate(reclaimed=len(reclaimed))
                if reclaimed:
                    engine._count(
                        LEASES_RECLAIMED_METRIC,
                        "stale sweep leases reclaimed from dead workers",
                        len(reclaimed),
                    )
                else:
                    with engine._timed(
                        LEASE_WAIT_SECONDS_METRIC,
                        "time spent waiting on peers' leases (seconds)",
                    ):
                        time.sleep(engine.lease_poll_s)

        # Every session of the grid is now in the store. Merge the full
        # grid from it — identical in every participant, and identical
        # to the serial computation because entries round-trip floats
        # exactly.
        with maybe_span(tracer, SPAN_STORE_MERGE, cat="sched") as merge_span:
            parts: List[Dict[int, List[SessionMetrics]]] = []
            merged_sessions = 0
            for spec_idx in range(len(specs)):
                spec_keys = keys[spec_idx]
                chunk: Dict[int, List[SessionMetrics]] = {}
                for trace_idx, key in enumerate(spec_keys):
                    metrics = store.get(key)
                    if metrics is None:
                        raise RuntimeError(
                            f"store entry vanished during multihost merge "
                            f"(sweep {sweep_id}, spec {spec_idx}, "
                            f"trace {trace_idx}); was the store gc'd mid-sweep?"
                        )
                    chunk[trace_idx] = [metrics]
                    merged_sessions += 1
                parts.append(chunk)
            merge_span.annotate(sessions=merged_sessions)

        results = SweepScheduler.assemble(
            specs, videos, parts, [[] for _ in specs]
        )
        engine._finish_progress(specs, results)
        return results


_BACKENDS = {
    "pool": PoolExecutorBackend,
    "multihost": MultiHostExecutorBackend,
}

#: The executor names ``resolve_executor`` (and the CLI) accept.
EXECUTOR_NAMES = tuple(sorted(_BACKENDS))


def resolve_executor(
    executor: Union[str, ExecutorBackend, None],
) -> ExecutorBackend:
    """Map an executor name (or pass an instance through) to a backend."""
    if executor is None:
        return PoolExecutorBackend()
    if isinstance(executor, ExecutorBackend):
        return executor
    try:
        return _BACKENDS[executor]()
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES} "
            "or an ExecutorBackend instance"
        ) from None
