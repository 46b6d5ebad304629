"""Process-pool drain and the sweep executor backends: pool and multi-host.

:func:`drain_pool` is the one process-pool orchestrator in the package.
It serves sweep work units and fleet edges alike: the caller hands it a
task (a top-level worker function), the per-unit task arguments, and a
settle step for each finished attempt, and it owns everything in
between — shm data-plane publication with an inline-pickle fallback,
pool construction with :func:`~repro.experiments.worker.init_worker`,
respawn-once recovery from a killed worker (unfinished units requeued
without charging an attempt), an orderly abort that re-raises the
earliest-ordered fatal error, and unit-ordered stitching of worker
metric and span snapshots.

The scheduler (:mod:`repro.experiments.scheduler`) decides *what* to
run; an executor backend decides *where and how*. Both backends share
one contract — given a planned grid they must produce the exact result
list the engine's in-process serial path would, bit for bit. Every path
runs a unit through :func:`~repro.experiments.worker.run_unit`:

- :class:`PoolExecutorBackend` — the default: fan co-units (work units
  of several specs over the same traces, joined to share the lockstep
  engine's slices) over :func:`drain_pool`, settling each member unit
  through :class:`SweepLedger` (store write-back, the skip/retry policy,
  progress). The engine's serial path settles through the same ledger.
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

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.context import BaseContext
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    join_co_units,
    sweep_grid_id,
)
from repro.experiments.worker import (
    POOL_RESPAWNS_METRIC,
    WORKERS_METRIC,
    UnitOutcome,
    init_worker,
    run_batch_in_worker,
    run_unit,
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
    MetricsRegistry,
)
from repro.telemetry.pipeline import (
    SPAN_LEASE_CLAIM,
    SPAN_LEASE_RECLAIM,
    SPAN_POOL_SPAWN,
    SPAN_SHM_PUBLISH,
    SPAN_STORE_MERGE,
    SPAN_SWEEP_DRAIN,
    SPAN_SWEEP_MERGE,
)
from repro.telemetry.spans import SpanTracer, maybe_span
from repro.video.model import VideoAsset

__all__ = [
    "EXECUTOR_NAMES",
    "MULTIHOST_PLAN_WORKERS",
    "PlanContext",
    "ExecutorBackend",
    "PoolExecutorBackend",
    "MultiHostExecutorBackend",
    "SweepLedger",
    "drain_pool",
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


def _shutdown_before_unlink(pool) -> None:
    """Shut a drained pool down and wait for every worker to exit.

    Called before the shm data plane is unlinked. Not ``wait=False``: a
    worker the pool started late (spawn starts workers on demand) would
    run its initializer after the unlink, fail to attach, and leave the
    pool's manager thread to hang interpreter exit; and the manager and
    queue-feeder threads of a pool left winding down would still be
    alive when the next pool forks its workers. Queued units that never
    started (an aborted drain) are cancelled rather than run.
    """
    pool.shutdown(wait=True, cancel_futures=True)


def drain_pool(
    task: Callable[..., tuple],
    tasks: Sequence[Tuple[int, ...]],
    settle: Callable[[int, int, object, Optional[BaseException]], bool],
    *,
    specs: Sequence[object],
    config: object,
    videos: Mapping[str, VideoAsset],
    traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
    workers: int,
    mp_context: Union[str, BaseContext, None],
    registry: Optional[MetricsRegistry],
    tracer: Optional[SpanTracer],
    cat: str,
    drain_span: str,
    merge_span: str,
) -> None:
    """Run ``task(*tasks[order])`` for every unit order on a process pool.

    The one process-pool drain: sweep work units and fleet edges both
    run here. Assets are published once through the shm data plane
    (inline initializer pickles when shared memory is unavailable) and
    every worker is set up by :func:`init_worker` with ``specs`` and
    ``config``. A task returns ``(result, snapshot, spans)``, with any
    failure of its own inside ``result``, so the metric and span
    snapshots of a failed unit still reach the parent (either may be
    None).

    ``settle(order, attempt, result, error)`` folds each finished
    attempt, in unit order within a completion batch, and returns True
    to run the unit again with a charged attempt, or a new argument
    tuple to run it again with those arguments. ``error`` is the
    exception the task raised (``result`` is then None), else None. When settle
    raises, the drain stops scheduling, lets in-flight units finish and
    re-raises the error of the earliest-ordered failing unit. A broken
    pool (a worker killed) is respawned once and its unfinished units
    requeued without charging an attempt; a second break raises
    :class:`BrokenProcessPool`. Worker snapshots are folded into
    ``registry``/``tracer`` in unit order after the drain, so merged
    telemetry does not depend on completion order.
    ``drain_span``/``merge_span``/``cat`` name the caller's spans.
    """
    # Resolved through the parallel module namespace at call time so
    # one monkeypatch of parallel.ProcessPoolExecutor swaps the pool
    # class (the tests' payload-measuring pool relies on it).
    from repro.experiments import parallel as parallel_mod

    publish_timer = (
        registry.timer(SHM_PUBLISH_SECONDS_METRIC, "shm data-plane publish (seconds)")
        if registry is not None
        else nullcontext()
    )
    with maybe_span(tracer, SPAN_SHM_PUBLISH, cat=cat) as shm_span:
        with publish_timer:
            plane = try_publish(videos, traces_by_plan)
        if plane is not None:
            shm_span.annotate(nbytes=plane.nbytes)
    if plane is not None:
        inline_assets, manifest = None, plane.manifest
        if registry is not None:
            registry.gauge(
                SHM_BLOCKS_METRIC, "shared-memory blocks published for the sweep"
            ).set(1)
            registry.gauge(
                SHM_BYTES_METRIC, "bytes published through the shm data plane"
            ).set(plane.nbytes)
    else:
        inline_assets = (
            dict(videos),
            {plan: list(batch) for plan, batch in traces_by_plan.items()},
        )
        manifest = None
    initargs = (
        list(specs),
        config,
        registry is not None,
        inline_assets,
        manifest,
        tracer is not None,
    )
    context = (
        multiprocessing.get_context(mp_context)
        if isinstance(mp_context, str)
        else mp_context
    )

    tasks = list(tasks)
    attempts = [0] * len(tasks)
    # (unit order, attempt, snapshot): merged after the pool drains,
    # sorted by key, so telemetry is deterministic regardless of
    # completion order.
    snapshots: List[Tuple[int, int, Mapping[str, dict]]] = []
    worker_spans: List[Tuple[int, int, List[Dict[str, object]]]] = []
    # (unit order, error) raised by settle: the earliest-ordered one is
    # re-raised after an orderly drain.
    fatal: List[Tuple[int, BaseException]] = []
    respawned = False

    def make_pool():
        with maybe_span(tracer, SPAN_POOL_SPAWN, cat=cat, workers=workers):
            return parallel_mod.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=init_worker,
                initargs=initargs,
            )

    def submit(order: int, count_attempt: bool = True) -> None:
        if count_attempt:
            attempts[order] += 1
        futures[pool.submit(task, *tasks[order])] = order

    def keep_telemetry(order: int, snapshot, unit_spans) -> None:
        if snapshot is not None:
            snapshots.append((order, attempts[order], snapshot))
        if unit_spans is not None:
            worker_spans.append((order, attempts[order], unit_spans))

    def consume(future: Future, order: int) -> Optional[str]:
        """Settle one finished future.

        Returns ``"retry"`` / ``"requeue"`` when the unit must run
        again (settle asked for a retry / broken pool), else None.
        """
        exc = future.exception()
        if isinstance(exc, BrokenProcessPool):
            # The pool died under this unit — not the unit's own
            # failure, so its attempt count is not charged.
            return "requeue"
        if exc is not None:
            # The task raised outside its own catch (pickling,
            # initializer crash): settle sees the exception itself.
            result, error = None, exc
        else:
            result, snapshot, unit_spans = future.result()
            keep_telemetry(order, snapshot, unit_spans)
            error = None
        try:
            verdict = settle(order, attempts[order], result, error)
        except Exception as fatal_error:  # noqa: BLE001 - re-raised below
            fatal.append((order, fatal_error))
            return None
        if isinstance(verdict, tuple):
            tasks[order] = verdict
        return "retry" if verdict else None

    pool = make_pool()
    futures: Dict[Future, int] = {}
    # Entered/exited manually so the drain span brackets exactly the
    # submit/consume event loop, whatever path exits the try below.
    drain = maybe_span(tracer, drain_span, cat=cat, units=len(tasks), workers=workers)
    drain.__enter__()
    try:
        for order in range(len(tasks)):
            submit(order)
        while futures and not fatal:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            broken = False
            rerun: List[Tuple[int, bool]] = []  # (unit order, count_attempt)
            for future in sorted(done, key=futures.__getitem__):
                order = futures.pop(future)
                verdict = consume(future, order)
                if verdict == "requeue":
                    broken = True
                    rerun.append((order, False))
                elif verdict == "retry":
                    rerun.append((order, True))
            if broken:
                # A broken pool settles every remaining future with
                # BrokenProcessPool (completed ones keep their
                # results); drain them all, then respawn once.
                for future in sorted(futures, key=futures.__getitem__):
                    order = futures[future]
                    verdict = consume(future, order)
                    if verdict is not None:
                        rerun.append((order, verdict == "retry"))
                futures.clear()
                pool.shutdown(wait=False)
                if fatal:
                    break
                if respawned:
                    raise BrokenProcessPool(
                        "process pool broke twice; aborting after one respawn"
                    )
                respawned = True
                if registry is not None:
                    registry.counter(
                        POOL_RESPAWNS_METRIC,
                        "process-pool respawns after a pool break",
                    ).inc()
                pool = make_pool()
            rerun.sort()
            for order, count_attempt in rerun:
                submit(order, count_attempt=count_attempt)
        if fatal:
            # Orderly abort: stop scheduling, let in-flight units
            # finish, and keep their telemetry before re-raising.
            for future in futures:
                future.cancel()
            wait(list(futures))
            for future in sorted(futures, key=futures.__getitem__):
                if future.cancelled() or future.exception() is not None:
                    continue
                _result, snapshot, unit_spans = future.result()
                keep_telemetry(futures[future], snapshot, unit_spans)
            futures.clear()
    finally:
        drain.__exit__(None, None, None)
        _shutdown_before_unlink(pool)
        if plane is not None:
            plane.close_and_unlink()

    if registry is not None or tracer is not None:
        with maybe_span(tracer, merge_span, cat=cat):
            if registry is not None:
                for _order, _attempt, snapshot in sorted(
                    snapshots, key=lambda item: (item[0], item[1])
                ):
                    registry.merge(snapshot)
            if tracer is not None:
                # Stitch worker span snapshots in unit order — the
                # timeline is deterministic no matter which worker
                # finished first. Each span keeps its own worker track;
                # the unit/attempt tags key the (worker, unit, stage)
                # view.
                for order, attempt, unit_spans in sorted(
                    worker_spans, key=lambda item: (item[0], item[1])
                ):
                    tracer.absorb(unit_spans, unit=order, attempt=attempt)
    if fatal:
        raise min(fatal, key=lambda item: item[0])[1]


class SweepLedger:
    """The sweep's settle step: what one finished unit attempt does.

    Shared by the pool backend (through :func:`drain_pool`) and the
    engine's in-process serial path: store write-back, the per-spec
    result parts, the raise/skip/retry ladder with its
    :class:`FailedUnit` records, and progress. Both run co-units
    (:func:`~repro.experiments.scheduler.join_co_units`); the ledger
    settles each member unit on its own and re-runs only the members
    that asked for a retry.
    """

    def __init__(
        self,
        engine,
        ctx: PlanContext,
        units: Sequence[WorkUnit],
        co_units: Sequence[Tuple[WorkUnit, ...]],
        workers: int,
    ) -> None:
        self.engine = engine
        self.ctx = ctx
        self.units = units
        #: The members of each co-unit still to run.
        self.pending: List[Tuple[WorkUnit, ...]] = list(co_units)
        self.parts = ctx.seed_parts()
        self.failures: List[List[FailedUnit]] = [[] for _ in ctx.specs]
        self.done_units = self.failed_units = self.completed_sessions = 0
        if engine.registry is not None:
            engine.registry.gauge(WORKERS_METRIC, "sweep worker processes").set(
                workers
            )
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

    def task(self, index: int) -> Tuple[Tuple[int, ...], int, int]:
        """Pool task arguments of co-unit ``index``'s pending members."""
        members = self.pending[index]
        return (
            tuple(unit.spec_idx for unit in members),
            members[0].start,
            members[0].stop,
        )

    def settle_co_unit(
        self,
        index: int,
        attempt: int,
        outcomes: Optional[Sequence[UnitOutcome]],
        error: Optional[BaseException] = None,
    ):
        """Fold one attempt of co-unit ``index``: one outcome per pending
        member, or ``error`` for all of them when the task itself
        raised. Returns the task arguments that re-run the members due
        a retry, or False when none is."""
        members = self.pending[index]
        if outcomes is None:
            outcomes = [(None, error)] * len(members)
        self.pending[index] = tuple(
            unit
            for unit, (metrics, unit_error) in zip(members, outcomes)
            if self.settle(unit.order, attempt, metrics, unit_error)
        )
        return self.task(index) if self.pending[index] else False

    def settle(
        self,
        order: int,
        attempt: int,
        metrics: Optional[List[SessionMetrics]],
        error: Optional[BaseException],
    ) -> bool:
        """Fold attempt ``attempt`` of ``units[order]``; True = retry it.

        Raises the unit's :class:`SweepWorkerError` under
        ``on_error="raise"``.
        """
        engine = self.engine
        unit = self.units[order]
        spec = self.ctx.specs[unit.spec_idx]
        if error is None:
            self.parts[unit.spec_idx][unit.start] = metrics
            engine._store_unit(self.ctx.keys[unit.spec_idx], unit.start, metrics)
            self.done_units += 1
            self.completed_sessions += len(metrics)
            engine._progress_update(
                done_units=self.done_units,
                completed_sessions=self.completed_sessions,
            )
            return False
        video_name = self.ctx.videos[spec.video_key].name
        if not isinstance(error, SweepWorkerError):
            # Raised outside the worker's catch: identify the batch by
            # its range.
            error = SweepWorkerError(
                spec.describe(),
                video_name,
                f"traces[{unit.start}:{unit.stop}]",
                f"{type(error).__name__}: {error}",
            )
        if engine.on_error == "raise":
            raise error
        if engine._should_retry(attempt):
            return True
        self.failures[unit.spec_idx].append(
            engine._failed_unit(
                spec, video_name, unit.start, unit.stop, attempt, error
            )
        )
        self.failed_units += 1
        engine._progress_update(failed_units=self.failed_units)
        return False

    def results(self) -> List[SweepResult]:
        """The assembled, ordered sweep results (final progress write)."""
        results = SweepScheduler.assemble(
            self.ctx.specs, self.ctx.videos, self.parts, self.failures
        )
        self.engine._finish_progress(self.ctx.specs, results)
        return results


class PoolExecutorBackend(ExecutorBackend):
    """The in-process process-pool backend (the default sweep path)."""

    name = "pool"

    def execute(self, engine, ctx: PlanContext) -> List[SweepResult]:
        units = engine.scheduler.plan_units(ctx.specs, ctx.runs, ctx.workers)
        co_units = join_co_units(ctx.specs, units)
        # Never spin up more workers than there are tasks.
        workers = min(ctx.workers, len(co_units))
        ledger = SweepLedger(engine, ctx, units, co_units, workers)
        drain_pool(
            run_batch_in_worker,
            [ledger.task(index) for index in range(len(co_units))],
            ledger.settle_co_unit,
            specs=ctx.specs,
            config=ctx.config,
            videos=ctx.videos,
            traces_by_plan=ctx.traces_by_plan,
            workers=workers,
            mp_context=engine.mp_context,
            registry=engine.registry,
            tracer=engine.tracer,
            cat="sched",
            drain_span=SPAN_SWEEP_DRAIN,
            merge_span=SPAN_SWEEP_MERGE,
        )
        return ledger.results()


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
                            [(run_metrics, error)] = run_unit(
                                [spec],
                                video,
                                traces[run_start:run_stop],
                                ctx.config,
                                cache,
                                registry,
                                tracer,
                                start=run_start,
                                stop=run_stop,
                            )
                            if error is not None:
                                raise error
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
