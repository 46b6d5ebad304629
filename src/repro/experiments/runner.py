"""Sweep runner: schemes x videos x traces, the §6 evaluation grid.

The runner owns the conventions the whole evaluation shares (§6.1):

- the quality metric follows the network (VMAF phone on LTE, TV on FCC);
- every scheme uses the harmonic-mean bandwidth estimator unless a
  controlled-error study overrides it;
- PANDA/CQ gets the quality-annotated manifest, everyone else the
  standard one;
- one classifier per video, reused across schemes, so Q4 means the same
  chunks for everyone.

Results come back as plain lists of :class:`SessionMetrics`; the figure
and table modules aggregate from there.

This module holds one session (:func:`run_one_session`), the result
types and :func:`aggregate`. Sweeps are not run here:
:func:`run_scheme_on_traces` and :func:`run_comparison` hand their
arguments to :class:`repro.experiments.parallel.ParallelSweepRunner`, the
one sweep path, which memoizes manifests, classifiers and links in an
:class:`~repro.experiments.artifacts.ArtifactCache` and runs batchable
units on the lockstep batch engine. Set ``n_workers`` on
:func:`run_comparison` for multi-core execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # annotation only; the engine imports it for real
    from repro.experiments.store import SessionStore
    from repro.faults.plan import FaultPlan
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.pipeline import ProgressBoard
    from repro.telemetry.spans import SpanTracer

from repro.abr.base import ABRAlgorithm
from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments.artifacts import ArtifactCache
from repro.network.estimator import BandwidthEstimator
from repro.network.traces import NetworkTrace
from repro.player.metrics import SessionMetrics, metric_for_network, summarize_session
from repro.player.session import SessionConfig, StreamingSession
from repro.video.model import VideoAsset

__all__ = [
    "FailedUnit",
    "SweepResult",
    "run_one_session",
    "run_scheme_on_traces",
    "run_comparison",
    "aggregate",
]

EstimatorFactory = Callable[[NetworkTrace], Optional[BandwidthEstimator]]


@dataclass(frozen=True)
class FailedUnit:
    """A sweep work unit dropped under a non-raising failure policy.

    Identifies the (scheme, video, trace-range) unit that failed, the
    trace the worker blamed, how many attempts were made, and the error
    text — everything needed to re-run exactly the missing slice.
    """

    scheme: str
    video_name: str
    network: str
    trace_name: str
    start: int
    stop: int
    attempts: int
    error: str

    @property
    def num_traces(self) -> int:
        """Sessions missing from the sweep because of this unit."""
        return self.stop - self.start

    def __str__(self) -> str:
        return (
            f"failed unit: scheme={self.scheme!r} video={self.video_name!r} "
            f"traces[{self.start}:{self.stop}] at {self.trace_name!r} "
            f"after {self.attempts} attempt(s): {self.error}"
        )


@dataclass
class SweepResult:
    """All session metrics for one (scheme, video, trace-set) sweep.

    ``failures`` carries the work units a graceful-degradation policy
    dropped (``on_error="skip"``/exhausted retries); it is empty for a
    fault-free sweep, and ``metrics`` then covers every trace.
    """

    scheme: str
    video_name: str
    network: str
    metrics: List[SessionMetrics]
    failures: List[FailedUnit] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when no work unit was dropped."""
        return not self.failures

    def __post_init__(self) -> None:
        # Per-field metric vectors, built lazily on first access. Not a
        # dataclass field so equality/repr stay defined by the data.
        self._values_cache: Dict[str, np.ndarray] = {}

    def values(self, field_name: str) -> np.ndarray:
        """Vector of one metric across traces (for CDFs).

        The vector is computed once per field and cached; the returned
        array is marked read-only because callers share it.
        """
        cached = self._values_cache.get(field_name)
        if cached is None:
            cached = np.array(
                [getattr(m, field_name) for m in self.metrics], dtype=float
            )
            cached.setflags(write=False)
            self._values_cache[field_name] = cached
        return cached

    def mean(self, field_name: str) -> float:
        """Across-trace mean of one metric."""
        return float(np.mean(self.values(field_name)))


def run_one_session(
    scheme: str,
    video: VideoAsset,
    trace: NetworkTrace,
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    estimator_factory: Optional[EstimatorFactory] = None,
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None,
    cache: Optional[ArtifactCache] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SessionMetrics:
    """Run and summarize a single (scheme, video, trace) session.

    The sweep engine's scalar loop runs each session of a unit the
    lockstep engine does not take through here; ``cache`` supplies (or
    memoizes) the manifest, classifier, and link artifacts.

    ``fault_plan`` applies only the plan's *link-level* faults (latency
    spikes) here. Trace-level perturbations are applied once per trace
    by the sweep engine before traces reach a session, so perturbed
    timelines are built once — pass an already-perturbed ``trace`` if
    calling this directly with a plan that rewrites throughput.
    """
    if cache is None:
        cache = ArtifactCache()
    metric = metric_for_network(network)
    include_quality = needs_quality_manifest(scheme)
    classifier = cache.classifier(video)
    manifest = cache.manifest(video, include_quality)
    if algorithm_factory is not None:
        algorithm = algorithm_factory()
    else:
        algorithm = make_scheme(scheme, metric=metric)
    link = cache.link(trace)
    if fault_plan is not None:
        link = fault_plan.wrap_link(link)
    estimator = estimator_factory(trace) if estimator_factory else None
    outcome = StreamingSession(config).run(algorithm, manifest, link, estimator)
    return summarize_session(outcome, video, metric, classifier)


def run_scheme_on_traces(
    scheme: str,
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    estimator_factory: Optional[EstimatorFactory] = None,
    algorithm_factory: Optional[Callable[[], ABRAlgorithm]] = None,
) -> SweepResult:
    """Run one scheme over a trace set and summarize each session.

    ``algorithm_factory`` overrides the registry (used by parameter
    sweeps); ``estimator_factory`` lets the §6.7 study install a
    controlled-error estimator per trace. A one-spec, in-process run of
    the sweep engine (:class:`~repro.experiments.parallel.
    ParallelSweepRunner`), so a failing session raises its
    :class:`~repro.experiments.scheduler.SweepWorkerError`.
    """
    from repro.experiments.parallel import ParallelSweepRunner

    return ParallelSweepRunner(n_workers=1).run_scheme(
        scheme, video, traces, network, config,
        estimator_factory, algorithm_factory,
    )


def run_comparison(
    schemes: Sequence[str],
    video: VideoAsset,
    traces: Sequence[NetworkTrace],
    network: str = "lte",
    config: SessionConfig = SessionConfig(),
    n_workers: Optional[int] = 1,
    registry: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    on_error: str = "raise",
    max_retries: int = 2,
    store: Optional[SessionStore] = None,
    tracer: Optional[SpanTracer] = None,
    progress: Optional[ProgressBoard] = None,
    executor: str = "pool",
) -> Dict[str, SweepResult]:
    """Run several schemes under identical conditions (same traces).

    The arguments go straight to :class:`repro.experiments.parallel.
    ParallelSweepRunner`, so every option behaves the same at every
    worker count. ``n_workers=1`` (the default) runs in this process,
    ``None`` uses all cores, any other value that many workers. Results
    are bit-identical and identically ordered regardless of worker
    count.

    ``registry`` attaches sweep telemetry (sessions, per-unit wall time,
    cache hits — see :mod:`repro.telemetry.metrics`); ``fault_plan``
    replays the grid under injected adverse conditions; ``on_error`` /
    ``max_retries`` select the failure policy (``"raise"`` raises the
    failing unit's :class:`~repro.experiments.scheduler.SweepWorkerError`);
    ``store`` attaches a :class:`~repro.experiments.store.SessionStore`
    so previously computed sessions are read back instead of re-run.
    ``tracer`` (a :class:`~repro.telemetry.spans.SpanTracer`) records the
    stitched sweep span timeline for Chrome-trace export, and
    ``progress`` (a :class:`~repro.telemetry.pipeline.ProgressBoard`)
    streams live progress for ``repro top``. ``executor`` selects the
    backend that runs the planned units (``"pool"`` or ``"multihost"`` —
    see :mod:`repro.experiments.executors`); both backends return
    bit-identical results.
    """
    from repro.experiments.parallel import ParallelSweepRunner

    engine = ParallelSweepRunner(
        n_workers=n_workers,
        registry=registry,
        fault_plan=fault_plan,
        on_error=on_error,
        max_retries=max_retries,
        store=store,
        tracer=tracer,
        progress=progress,
        executor=executor,
    )
    return engine.run_comparison(schemes, video, traces, network, config)


def aggregate(results: Dict[str, SweepResult], field_name: str) -> Dict[str, float]:
    """Across-trace mean of one metric for every scheme."""
    return {scheme: result.mean(field_name) for scheme, result in results.items()}
