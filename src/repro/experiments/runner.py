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

Expensive per-video and per-trace artifacts (manifests, classifiers,
cumulative-bits tables) are memoized through an
:class:`~repro.experiments.artifacts.ArtifactCache`; pass one cache to
several calls to share artifacts across schemes. For multi-core
execution, set ``n_workers`` on :func:`run_comparison` (or use
:class:`repro.experiments.parallel.ParallelSweepRunner` directly).
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
from repro.experiments.batch import batch_capability, run_batch_metrics
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

    The unit of work shared by the serial runner and the parallel sweep
    engine's workers; ``cache`` supplies (or memoizes) the manifest,
    classifier, and link artifacts.

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
    cache: Optional[ArtifactCache] = None,
) -> SweepResult:
    """Run one scheme over a trace set and summarize each session.

    ``algorithm_factory`` overrides the registry (used by parameter
    sweeps); ``estimator_factory`` lets the §6.7 study install a
    controlled-error estimator per trace; ``cache`` shares artifacts
    with other sweeps in the same process.

    Multi-trace sweeps of batchable configurations are executed on the
    lockstep batch engine (:mod:`repro.experiments.batch`) — results
    are bit-identical to the scalar loop, just an order of magnitude
    faster; anything the :func:`~repro.experiments.batch.
    batch_capability` probe rejects (or a decider declines) falls back
    to the per-trace loop below.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if cache is None:
        cache = ArtifactCache()
    if batch_capability(
        scheme,
        network=network,
        algorithm_factory=algorithm_factory,
        estimator_factory=estimator_factory,
        num_traces=len(traces),
    ):
        batched = run_batch_metrics(
            scheme, video, traces, network, config, cache, algorithm_factory
        )
        if batched is not None:
            return SweepResult(
                scheme=scheme,
                video_name=video.name,
                network=network,
                metrics=batched,
            )
    results = [
        run_one_session(
            scheme, video, trace, network, config,
            estimator_factory, algorithm_factory, cache,
        )
        for trace in traces
    ]
    return SweepResult(scheme=scheme, video_name=video.name, network=network, metrics=results)


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

    ``n_workers`` routes the sweep through the process-pool engine:
    ``1`` (the default) runs serially in this process, ``None`` uses all
    cores, any other value that many workers. Results are bit-identical
    and identically ordered regardless of worker count.

    ``registry`` attaches sweep telemetry (sessions, per-unit wall time,
    cache hits — see :mod:`repro.telemetry.metrics`); ``fault_plan``
    replays the grid under injected adverse conditions; ``on_error`` /
    ``max_retries`` select the failure policy; ``store`` attaches a
    :class:`~repro.experiments.store.SessionStore` so previously
    computed sessions are read back instead of re-run (see
    :class:`repro.experiments.parallel.ParallelSweepRunner`). ``tracer``
    (a :class:`~repro.telemetry.spans.SpanTracer`) records the stitched
    sweep span timeline for Chrome-trace export, and ``progress`` (a
    :class:`~repro.telemetry.pipeline.ProgressBoard`) streams live
    progress for ``repro top``. ``executor`` selects the backend that
    runs the planned units (``"pool"`` or ``"multihost"`` — see
    :mod:`repro.experiments.executors`); both backends return
    bit-identical results. Any non-default value routes through the
    engine so serial and pooled runs behave identically.
    """
    if (
        n_workers != 1
        or registry is not None
        or fault_plan is not None
        or on_error != "raise"
        or store is not None
        or tracer is not None
        or progress is not None
        or executor != "pool"
    ):
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
    cache = ArtifactCache()
    return {
        scheme: run_scheme_on_traces(
            scheme, video, traces, network, config, cache=cache
        )
        for scheme in schemes
    }


def aggregate(results: Dict[str, SweepResult], field_name: str) -> Dict[str, float]:
    """Across-trace mean of one metric for every scheme."""
    return {scheme: result.mean(field_name) for scheme, result in results.items()}
