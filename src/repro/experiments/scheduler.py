"""Backend-agnostic sweep scheduler: grid vocabulary and planning logic.

The distributed sweep fabric splits the old monolithic
``ParallelSweepRunner`` into two halves:

- this module — the **scheduler**: the grid vocabulary
  (:class:`SweepSpec`, :class:`WorkUnit`, :class:`SweepWorkerError`),
  cache-hit planning against the content-addressed
  :class:`~repro.experiments.store.SessionStore`, cost-aware batch
  sizing, contiguous-run partitioning, deterministic result assembly,
  and the sweep-identity digest that lets independent processes agree
  on one work breakdown; and
- :mod:`repro.experiments.executors` — pluggable **executor backends**
  (in-process pool, multi-host store-leasing) that run the planned
  units and report outcomes back.

Everything here is pure planning logic: no pools, no leases, no
telemetry dependencies beyond optional callback hooks. Determinism is
the load-bearing property — two processes given the same grid derive
the same units in the same order, which is what makes multi-host
leasing (:mod:`repro.experiments.leases`) coordination-free.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from contextlib import nullcontext

from repro.abr.base import ABRAlgorithm
from repro.abr.registry import resolve_scheme_name
from repro.experiments.batch import batch_capability
from repro.experiments.runner import (
    EstimatorFactory,
    FailedUnit,
    SweepResult,
)
from repro.experiments.store import SessionStore, UncacheableValueError
from repro.faults.plan import FaultPlan
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.player.session import SessionConfig
from repro.video.model import VideoAsset

__all__ = [
    "SweepSpec",
    "SweepWorkerError",
    "WorkUnit",
    "contiguous_runs",
    "session_cost",
    "engine_break_even",
    "batch_bounds",
    "SweepScheduler",
    "sweep_grid_id",
    "TARGET_BATCH_COST",
]


@dataclass(frozen=True)
class SweepSpec:
    """One (scheme, video, network) sweep request over a shared trace set.

    ``video_key`` indexes the video mapping given to
    :meth:`ParallelSweepRunner.run_specs`; keeping specs and assets
    separate means a spec pickles in bytes while the assets ship once
    per worker.

    ``fault_plan`` replays this spec under injected adverse conditions;
    when unset, the engine's own plan (if any) applies.
    """

    scheme: str
    video_key: str
    network: str = "lte"
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None
    estimator_factory: Optional[EstimatorFactory] = None
    label: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None

    def describe(self) -> str:
        """Identity used in error messages (label wins over scheme)."""
        return self.label if self.label is not None else self.scheme


class SweepWorkerError(RuntimeError):
    """A session failed inside a sweep; names the failing work unit.

    ``args`` carries the four identification fields so the exception
    round-trips through pickling between worker and parent process.
    """

    def __init__(self, spec_label: str, video_name: str, trace_name: str, cause: str):
        super().__init__(spec_label, video_name, trace_name, cause)
        self.spec_label = spec_label
        self.video_name = video_name
        self.trace_name = trace_name
        self.cause = cause

    def __str__(self) -> str:
        return (
            f"sweep unit failed: scheme={self.spec_label!r} "
            f"video={self.video_name!r} trace={self.trace_name!r}: {self.cause}"
        )


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable work unit: a spec over a contiguous trace batch.

    ``order`` is the global submission index — the determinism key for
    result assembly, snapshot merging, error selection, and (on the
    multi-host backend) the lease-file name shared across processes.
    """

    order: int
    spec_idx: int
    start: int
    stop: int

    @property
    def name(self) -> str:
        """Canonical unit identity, shared across cooperating processes."""
        return f"u{self.order:05d}-s{self.spec_idx}-{self.start}-{self.stop}"


# ----------------------------------------------------------------------
# Cost model: unit sizing and engine routing
# ----------------------------------------------------------------------
#
# Every cost below is in scalar-CAVA-session equivalents (~0.8-1.6 ms on
# ED-youtube-h264 over LTE). All of them were measured together on a
# 2-core shared x86-64 host, in one process: each of 25 repetitions
# timed every configuration once, round-robin, so host noise hit them
# alike; each time was divided by the same repetition's scalar CAVA
# session, and the median over repetitions kept. Sessions ran on
# ED-youtube-h264 over seeded LTE traces with the video's artifacts warm
# and the links fresh, as every unit of a sweep after its first sees
# them. The scalar costs were measured on 2026-10-19 and the engine
# costs in a later run of the same method. Results are bit-identical
# however units are sized or routed, so these numbers only move time
# around.

#: Scalar-loop cost per session (``run_one_session``, mean over 16
#: sessions, 4 for the planners). Unit sizing reads it for specs the
#: engine cannot run, and :func:`engine_break_even` for the ones it can;
#: unknown schemes default to 1.
SCHEME_COSTS: Dict[str, float] = {
    "MPC": 16.2,
    "RobustMPC": 15.9,
    "PANDA/CQ max-sum": 18.8,
    "PANDA/CQ max-min": 20.6,
    "CAVA-oboe": 4.0,
    "PIA": 1.8,
    "FESTIVE": 1.2,
    "BOLA-E (peak)": 1.1,
    "BOLA-E (avg)": 1.1,
    "BOLA-E (seg)": 1.0,
    "DYNAMIC": 1.0,
    "BBA-1": 0.8,
    "RBA": 0.77,
}

#: Lockstep-engine cost per lane: the slope of a least-squares line
#: through ``run_batch_metrics`` times at 2 to 32 lanes. Unit sizing
#: costs batchable specs with it, so units stay wide enough to feed the
#: engine's vector width instead of being cut to a few traces each.
BATCH_SCHEME_COSTS: Dict[str, float] = {
    "MPC": 2.8,
    "RobustMPC": 2.9,
    "PANDA/CQ max-sum": 5.4,
    "PANDA/CQ max-min": 0.20,
    "RBA": 0.08,
}

#: Per-lane engine cost of the CAVA family (CAVA, its P1/P12 ablations
#: and tuned grid-search factories) and of any other batchable scheme:
#: the mean of the three CAVA variants' slopes (0.120, 0.079, 0.099).
BATCH_DEFAULT_COST = 0.10

#: Fixed lockstep-engine cost per unit, whatever its width: the
#: intercept of the same line, averaged over each decider family's
#: schemes. It is most of a narrow unit's engine time (numpy dispatch
#: per chunk step, plus building the unit's decider and stacked links).
#: With these tables the CAVA family breaks even at 8 lanes, RBA at 7
#: and the planner schemes at 2.
BATCH_UNIT_COSTS: Dict[str, float] = {
    "RBA": 4.5,
    "MPC": 15.8,
    "RobustMPC": 15.8,
    "PANDA/CQ max-sum": 13.0,
    "PANDA/CQ max-min": 13.0,
}

#: Fixed engine cost per unit of the CAVA family and of any other
#: batchable scheme (CAVA 6.34, CAVA-p1 6.16, CAVA-p12 6.41).
BATCH_DEFAULT_UNIT_COST = 6.3

#: Fewest lanes the engine ever runs: a one-trace unit stays on the
#: scalar loop, the reference path. The model alone would keep it there
#: for the CAVA family, RBA, MPC and RobustMPC but not for PANDA/CQ:
#: one max-min lane measured 8.6 ms on the engine against 17.3 ms for
#: one scalar session, one max-sum lane 24.3 against 17.3 ms.
MIN_ENGINE_LANES = 2

#: Target estimated cost per work unit, in CAVA-session equivalents:
#: large enough that task dispatch overhead stays a rounding error,
#: small enough that a pool of a few workers still load-balances.
TARGET_BATCH_COST = 24.0


def _cost_key(spec: SweepSpec) -> Optional[str]:
    """The scheme name the cost tables are keyed by.

    ``None`` for a tuned factory: grid search builds CAVA variants, so
    every table falls back to its CAVA default.
    """
    if spec.algorithm_factory is not None:
        return None
    try:
        return resolve_scheme_name(spec.scheme)
    except Exception:
        return spec.scheme


def session_cost(spec: SweepSpec) -> float:
    """Estimated per-session cost of one spec, in CAVA equivalents.

    Specs the batch-capability probe accepts are costed with the
    amortized lockstep numbers — only sizing reads these, so a spec
    whose decider later declines merely runs in larger-than-ideal
    scalar units.
    """
    batchable = batch_capability(
        spec.scheme,
        network=spec.network,
        algorithm_factory=spec.algorithm_factory,
        estimator_factory=spec.estimator_factory,
        fault_plan=spec.fault_plan,
    )
    key = _cost_key(spec)
    if batchable:
        return BATCH_SCHEME_COSTS.get(key, BATCH_DEFAULT_COST)
    return SCHEME_COSTS.get(key, 1.0)


def engine_break_even(spec: SweepSpec) -> int:
    """Fewest lanes at which the lockstep engine is cheaper for ``spec``.

    The engine runs a unit of ``n`` lanes only when ``n * scalar > fixed
    + n * lane`` (:data:`SCHEME_COSTS`, :data:`BATCH_UNIT_COSTS`,
    :data:`BATCH_SCHEME_COSTS`), and never below
    :data:`MIN_ENGINE_LANES`. Whether the engine *can* run the spec is
    :func:`~repro.experiments.batch.batch_capability`'s question, not
    this one's.
    """
    key = _cost_key(spec)
    saving = SCHEME_COSTS.get(key, 1.0) - BATCH_SCHEME_COSTS.get(
        key, BATCH_DEFAULT_COST
    )
    fixed = BATCH_UNIT_COSTS.get(key, BATCH_DEFAULT_UNIT_COST)
    return max(MIN_ENGINE_LANES, math.floor(fixed / saving) + 1)


def batch_bounds(
    num_traces: int,
    workers: int,
    cost_per_session: float = 1.0,
    batch_size: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Contiguous [start, stop) trace batches for one spec.

    Adaptive sizing: aim for :data:`TARGET_BATCH_COST` estimated cost
    units per batch (so cheap sessions amortize dispatch overhead),
    capped at ``ceil(num_traces / workers)`` (so the pool always has at
    least ~one batch per worker to balance). An explicit ``batch_size``
    overrides the adaptive choice.
    """
    if batch_size is not None:
        size = batch_size
    else:
        amortized = max(
            1, int(round(TARGET_BATCH_COST / max(cost_per_session, 1e-9)))
        )
        per_worker = max(1, -(-num_traces // workers))
        size = min(amortized, per_worker)
    return [
        (start, min(start + size, num_traces))
        for start in range(0, num_traces, size)
    ]


def contiguous_runs(indices: Sequence[int]) -> List[Tuple[int, int]]:
    """Group sorted trace indices into maximal [start, stop) runs.

    The output covers exactly the input indices, runs are disjoint and
    internally contiguous, and they appear in ascending order — the
    properties the distributed lease protocol leans on (pinned by the
    hypothesis tests in ``tests/experiments/test_scheduler.py``).
    """
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    prev = -2
    for index in indices:
        if start is None:
            start = index
        elif index != prev + 1:
            runs.append((start, prev + 1))
            start = index
        prev = index
    if start is not None:
        runs.append((start, prev + 1))
    return runs


def sweep_grid_id(keys: Sequence[Optional[Sequence[str]]]) -> str:
    """Deterministic identity of one sweep grid, from its store keys.

    Hashes every spec's per-trace session keys in spec order, so any two
    processes planning the same (specs, videos, traces, config) grid —
    on any host — derive the same id and therefore the same lease
    directory. Raises :class:`UncacheableValueError` when any spec has
    no store keys (multi-host coordination requires content identity).
    """
    hasher = hashlib.blake2b(digest_size=12)
    for spec_keys in keys:
        if spec_keys is None:
            raise UncacheableValueError(
                "multi-host sweeps require every spec to be cacheable "
                "(module-level factories, no lambdas/closures)"
            )
        hasher.update(b"S")
        for key in spec_keys:
            hasher.update(key.encode("ascii") + b";")
    return hasher.hexdigest()


#: No-op telemetry hooks (the scheduler never *requires* a registry).
def _no_count(name: str, help_text: str, amount: int = 1) -> None:
    return None


def _no_timer(name: str, help_text: str) -> ContextManager:
    return nullcontext()


class SweepScheduler:
    """Grid planning shared by every executor backend.

    Owns the logic that used to be welded into ``ParallelSweepRunner``:

    - **partition** — split every spec's trace set into cached hits and
      contiguous missing runs against the session store;
    - **plan_units** — cost-aware batch sizing of the missing runs into
      :class:`WorkUnit` submissions (the pool work breakdown);
    - **plan_grid_units** — the *canonical* full-grid breakdown every
      cooperating process derives identically (the multi-host lease
      catalogue, independent of any one process's store snapshot);
    - **assemble** — deterministic merge of cached + computed parts
      into ordered :class:`SweepResult` lists.

    Telemetry is injected through two optional callbacks (``count`` and
    ``timed``) so the scheduler itself stays backend- and
    telemetry-agnostic.
    """

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        batch_size: Optional[int] = None,
        count: Callable[..., None] = _no_count,
        timed: Callable[[str, str], ContextManager] = _no_timer,
    ) -> None:
        self.store = store
        self.batch_size = batch_size
        self.count = count
        self.timed = timed

    # -- store partitioning --------------------------------------------

    def partition(
        self,
        specs: Sequence[SweepSpec],
        videos: Mapping[str, VideoAsset],
        traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
        config: SessionConfig,
    ) -> Tuple[
        List[Dict[int, SessionMetrics]],
        List[Optional[List[str]]],
        List[List[Tuple[int, int]]],
    ]:
        """Split every spec's trace set into cached hits and missing runs.

        Returns, aligned with ``specs``: per-spec ``{trace_idx: cached
        metrics}``, per-spec store keys (None when the spec is
        uncacheable or there is no store), and per-spec contiguous
        [start, stop) runs of *missing* trace indices. Without a store
        every spec has one run covering its whole trace set, which is
        exactly the historical behaviour.
        """
        from repro.telemetry.metrics import (
            STORE_LOOKUP_SECONDS_METRIC,
            STORE_UNCACHEABLE_METRIC,
        )

        cached: List[Dict[int, SessionMetrics]] = [dict() for _ in specs]
        keys: List[Optional[List[str]]] = [None for _ in specs]
        runs: List[List[Tuple[int, int]]] = []
        for spec_idx, spec in enumerate(specs):
            plan_traces = traces_by_plan[spec.fault_plan]
            if self.store is None:
                runs.append([(0, len(plan_traces))])
                continue
            video = videos[spec.video_key]
            spec_keys = self.keys_for(spec, video, plan_traces, config)
            if spec_keys is None:
                self.count(
                    STORE_UNCACHEABLE_METRIC,
                    "specs bypassing the session store (no stable digest)",
                )
                runs.append([(0, len(plan_traces))])
                continue
            keys[spec_idx] = spec_keys
            missing: List[int] = []
            with self.timed(
                STORE_LOOKUP_SECONDS_METRIC,
                "session-store lookup scan per spec (seconds)",
            ):
                for trace_idx, key in enumerate(spec_keys):
                    metrics = self.store.get(key)
                    if metrics is None:
                        missing.append(trace_idx)
                    else:
                        cached[spec_idx][trace_idx] = metrics
            runs.append(contiguous_runs(missing))
        return cached, keys, runs

    def keys_for(
        self,
        spec: SweepSpec,
        video: VideoAsset,
        traces: Sequence[NetworkTrace],
        config: SessionConfig,
    ) -> Optional[List[str]]:
        """Per-trace store keys for one spec (None when uncacheable)."""
        if self.store is None:
            return None
        try:
            return self.store.keys_for(spec, video, traces, config)
        except UncacheableValueError:
            return None

    # -- unit planning --------------------------------------------------

    def plan_units(
        self,
        specs: Sequence[SweepSpec],
        runs: Sequence[List[Tuple[int, int]]],
        workers: int,
    ) -> List[WorkUnit]:
        """Cost-sized work units covering every spec's *missing* runs."""
        units: List[WorkUnit] = []
        for spec_idx, spec in enumerate(specs):
            cost = session_cost(spec)
            for rstart, rstop in runs[spec_idx]:
                for start, stop in batch_bounds(
                    rstop - rstart, workers, cost, self.batch_size
                ):
                    units.append(
                        WorkUnit(
                            len(units), spec_idx, rstart + start, rstart + stop
                        )
                    )
        return units

    def plan_grid_units(
        self,
        specs: Sequence[SweepSpec],
        traces_by_plan: Mapping[Optional[FaultPlan], Sequence[NetworkTrace]],
        workers: int,
    ) -> List[WorkUnit]:
        """The canonical full-grid work breakdown for multi-host leasing.

        Unlike :meth:`plan_units` this ignores the local store snapshot:
        every cooperating process — whenever it joins — derives the same
        unit catalogue from the grid alone, so lease-file names line up
        across hosts. Units whose sessions are already in the shared
        store are simply observed as complete without being leased.
        It is :meth:`plan_units` with every trace of every spec missing.
        """
        full = [[(0, len(traces_by_plan[spec.fault_plan]))] for spec in specs]
        return self.plan_units(specs, full, workers)

    # -- result assembly ------------------------------------------------

    @staticmethod
    def assemble(
        specs: Sequence[SweepSpec],
        videos: Mapping[str, VideoAsset],
        parts: Sequence[Dict[int, List[SessionMetrics]]],
        failures: Sequence[List[FailedUnit]],
    ) -> List[SweepResult]:
        """Merge per-spec part dictionaries into ordered sweep results.

        ``parts[spec_idx]`` maps a starting trace index to the metric
        run that begins there (cached singletons and computed batches
        alike); starts are disjoint, so sorting the keys restores exact
        trace order — the determinism contract every backend shares.
        """
        results: List[SweepResult] = []
        for spec, chunks, spec_failures in zip(specs, parts, failures):
            video = videos[spec.video_key]
            metrics = [m for start in sorted(chunks) for m in chunks[start]]
            ordered_failures = sorted(spec_failures, key=lambda f: f.start)
            results.append(
                SweepResult(
                    scheme=spec.scheme,
                    video_name=video.name,
                    network=spec.network,
                    metrics=metrics,
                    failures=ordered_failures,
                )
            )
        return results
