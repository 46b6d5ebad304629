"""Fleet orchestration: shard edges over a worker pool, merge bit-stably.

The sharding unit is the **edge**: each edge's population is an
independent sub-simulation (its arrivals, capacity trace and RNG
streams are derived from ``(seed, edge_index)`` alone), so edges can
run anywhere in any order and the merge — performed parent-side in
ascending edge order — produces the same :class:`FleetResult` for any
worker count and start method. That is the fleet's determinism
contract, pinned by ``tests/fleet/test_runner.py``.

Pooled runs go through the same process-pool drain as sweep work units
(:func:`repro.experiments.executors.drain_pool`): videos and edge
traces are published once into the shared-memory data plane (inline
initializer pickles when shared memory is unavailable), each edge is
one unit run by :func:`run_edge_in_worker`, and a worker death is
recovered once — the pool is respawned and the unfinished edges rerun.
A second pool break aborts the run. So does an edge that raises, serial
or pooled alike, with a ``RuntimeError`` naming the edge. Telemetry
rides the existing rails — fleet spans (a pooled traced run ships each
edge's stage spans back from its worker) stitch into the parent
:class:`~repro.telemetry.spans.SpanTracer`, counters/gauges land in a
:class:`~repro.telemetry.metrics.MetricsRegistry` (servable live via
``repro fleet --serve-metrics``), and a
:class:`~repro.telemetry.pipeline.ProgressBoard` feeds ``repro top``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.executors import drain_pool
from repro.experiments.worker import WORKER_STATE
from repro.fleet.sim import EdgeResult, simulate_edge
from repro.fleet.spec import FleetSpec
from repro.network.traces import MIN_TRACE_DURATION_S, NetworkTrace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.pipeline import (
    SPAN_FLEET_DRAIN,
    SPAN_FLEET_EDGE,
    SPAN_FLEET_MERGE,
    SPAN_FLEET_PLAN,
    ProgressBoard,
)
from repro.telemetry.spans import SpanTracer, StageTimer, maybe_span
from repro.util.rng import derive_rng
from repro.video.dataset import build_video, standard_dataset_specs
from repro.video.model import VideoAsset

__all__ = [
    "FleetResult",
    "FleetRunner",
    "run_fleet",
    "synthesize_edge_trace",
    "FLEET_SESSIONS_METRIC",
    "FLEET_LIVE_SESSIONS_METRIC",
    "FLEET_CHUNKS_METRIC",
    "FLEET_DELIVERED_BITS_METRIC",
    "FLEET_STALL_SECONDS_METRIC",
    "FLEET_EDGES_METRIC",
    "FLEET_PEAK_CONCURRENCY_METRIC",
    "FLEET_MEAN_QOE_METRIC",
    "FLEET_REBUFFER_RATIO_METRIC",
    "FLEET_UTILIZATION_METRIC",
    "FLEET_CONCURRENCY_SERIES",
]

# Prometheus names of the fleet surface (same registry conventions as
# the sweep engine's counters in experiments/parallel.py).
FLEET_SESSIONS_METRIC = "repro_fleet_sessions_total"
FLEET_LIVE_SESSIONS_METRIC = "repro_fleet_live_sessions_total"
FLEET_CHUNKS_METRIC = "repro_fleet_chunks_total"
FLEET_DELIVERED_BITS_METRIC = "repro_fleet_delivered_bits_total"
FLEET_STALL_SECONDS_METRIC = "repro_fleet_stall_seconds_total"
FLEET_EDGES_METRIC = "repro_fleet_edges_total"
FLEET_PEAK_CONCURRENCY_METRIC = "repro_fleet_peak_concurrent_sessions"
FLEET_MEAN_QOE_METRIC = "repro_fleet_mean_qoe"
FLEET_REBUFFER_RATIO_METRIC = "repro_fleet_rebuffer_ratio"
FLEET_UTILIZATION_METRIC = "repro_fleet_mean_edge_utilization"
FLEET_CONCURRENCY_SERIES = "repro_fleet_concurrency"


def synthesize_edge_trace(spec: FleetSpec, edge_index: int) -> NetworkTrace:
    """One edge's capacity trace — pure function of ``(spec, edge)``.

    Lognormal per-interval jitter around ``edge_capacity_mbps`` with the
    mean correction ``exp(-sigma^2 / 2)``, so dimensioning statements
    ("220 Mbps edges") stay true in expectation under any jitter.
    """
    rng = derive_rng(spec.seed, "fleet", "capacity", str(edge_index))
    n = int(
        math.ceil(
            max(spec.duration_s, MIN_TRACE_DURATION_S) / spec.capacity_interval_s
        )
    )
    sigma = spec.capacity_jitter
    noise = rng.normal(-0.5 * sigma * sigma, sigma, size=n) if sigma > 0 else np.zeros(n)
    throughputs = spec.edge_capacity_mbps * 1e6 * np.exp(noise)
    return NetworkTrace(
        f"edge-{edge_index:03d}", spec.capacity_interval_s, throughputs
    )


def _fleet_videos(spec: FleetSpec) -> Dict[str, VideoAsset]:
    by_name = {s.name: s for s in standard_dataset_specs()}
    videos: Dict[str, VideoAsset] = {}
    for name in spec.videos:
        if name not in by_name:
            raise ValueError(
                f"unknown video {name!r} (have: {', '.join(sorted(by_name))})"
            )
        videos[name] = build_video(by_name[name], seed=spec.seed)
    return videos


def _edge_traces(spec: FleetSpec) -> List[NetworkTrace]:
    traces = [synthesize_edge_trace(spec, i) for i in range(spec.n_edges)]
    if spec.fault_plan is not None:
        traces = [spec.fault_plan.perturb_trace(t)[0] for t in traces]
    return traces


@dataclass
class FleetResult:
    """Merged outcome of one fleet simulation.

    Bucket curves are fleet-wide sums over edges (padded to the longest
    edge); derived rates (concurrency, utilization, rebuffer ratio) are
    computed by :meth:`report` so the stored arrays stay raw integrals.
    """

    spec: FleetSpec
    edges: List[EdgeResult]
    wall_s: float
    # Fleet-wide bucket sums:
    delivered_bits: np.ndarray = field(init=False)
    capacity_bits: np.ndarray = field(init=False)
    concurrency_s: np.ndarray = field(init=False)
    download_s: np.ndarray = field(init=False)
    stall_s: np.ndarray = field(init=False)
    arrivals: np.ndarray = field(init=False)
    finishes: np.ndarray = field(init=False)
    qoe_sum: np.ndarray = field(init=False)
    qoe_count: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = max(edge.n_buckets for edge in self.edges)

        def summed(attr: str) -> np.ndarray:
            out = np.zeros(n, dtype=np.float64)
            # Fixed ascending-edge fold: float sums are order-sensitive,
            # and this order is part of the bit-identity contract.
            for edge in self.edges:
                series = getattr(edge, attr)
                out[: series.size] += series
            return out

        self.delivered_bits = summed("delivered_bits")
        self.capacity_bits = summed("capacity_bits")
        self.concurrency_s = summed("concurrency_s")
        self.download_s = summed("download_s")
        self.stall_s = summed("stall_s")
        self.arrivals = summed("arrivals")
        self.finishes = summed("finishes")
        self.qoe_sum = summed("qoe_sum")
        self.qoe_count = summed("qoe_count")

    # -- scalar totals (ascending-edge folds) -----------------------------

    @property
    def sessions(self) -> int:
        return sum(edge.sessions for edge in self.edges)

    @property
    def live_sessions(self) -> int:
        return sum(edge.live_sessions for edge in self.edges)

    @property
    def chunks(self) -> int:
        return sum(edge.chunks for edge in self.edges)

    @property
    def bits(self) -> float:
        return math.fsum(edge.bits for edge in self.edges)

    @property
    def stall_total_s(self) -> float:
        return math.fsum(edge.stall_total_s for edge in self.edges)

    @property
    def qoe_mean(self) -> float:
        total = sum(edge.sessions for edge in self.edges)
        if not total:
            return 0.0
        return math.fsum(edge.qoe_total for edge in self.edges) / total

    @property
    def mean_quality(self) -> float:
        total = self.sessions
        if not total:
            return 0.0
        return math.fsum(edge.sum_mean_quality for edge in self.edges) / total

    @property
    def peak_concurrency(self) -> float:
        """Peak of the fleet mean-concurrency curve (viewers)."""
        curve = self.concurrency_curve
        return float(curve.max()) if curve.size else 0.0

    @property
    def concurrency_curve(self) -> np.ndarray:
        """Mean concurrent viewers per bucket, fleet-wide."""
        return self.concurrency_s / self.spec.bucket_s

    @property
    def utilization_curve(self) -> np.ndarray:
        """Delivered / deliverable bits per bucket (0 where idle)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                self.capacity_bits > 0.0,
                self.delivered_bits / self.capacity_bits,
                0.0,
            )
        return out

    @property
    def rebuffer_ratio_curve(self) -> np.ndarray:
        """Stall seconds per viewer-second, per bucket."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                self.concurrency_s > 0.0, self.stall_s / self.concurrency_s, 0.0
            )
        return out

    @property
    def rebuffer_ratio(self) -> float:
        total_time = float(self.concurrency_s.sum())
        return float(self.stall_s.sum()) / total_time if total_time > 0 else 0.0

    @property
    def mean_utilization(self) -> float:
        cap = float(self.capacity_bits.sum())
        return float(self.delivered_bits.sum()) / cap if cap > 0 else 0.0

    def report(self) -> Dict[str, object]:
        """JSON-safe summary: totals, derived curves, per-edge rows."""
        spec = self.spec
        n = self.delivered_bits.size
        centers = (np.arange(n) + 0.5) * spec.bucket_s
        return {
            "spec": {
                "seed": spec.seed,
                "duration_s": spec.duration_s,
                "n_edges": spec.n_edges,
                "arrivals_per_s": spec.arrivals_per_s,
                "edge_capacity_mbps": spec.edge_capacity_mbps,
                "diurnal_amplitude": spec.diurnal_amplitude,
                "flash_crowds": [
                    {
                        "start_s": c.start_s,
                        "duration_s": c.duration_s,
                        "multiplier": c.multiplier,
                        "ramp_s": c.ramp_s,
                    }
                    for c in spec.flash_crowds
                ],
                "videos": list(spec.videos),
                "schemes": list(spec.schemes),
                "live_fraction": spec.live_fraction,
                "mean_watch_chunks": spec.mean_watch_chunks,
                "bucket_s": spec.bucket_s,
                "faults": spec.fault_plan.describe() if spec.fault_plan else None,
            },
            "totals": {
                "sessions": self.sessions,
                "live_sessions": self.live_sessions,
                "chunks": self.chunks,
                "delivered_gbits": self.bits / 1e9,
                "stall_s": self.stall_total_s,
                "mean_qoe": self.qoe_mean,
                "mean_quality": self.mean_quality,
                "rebuffer_ratio": self.rebuffer_ratio,
                "mean_utilization": self.mean_utilization,
                "peak_concurrency": self.peak_concurrency,
                "peak_concurrency_edge_sum": sum(
                    e.peak_concurrency for e in self.edges
                ),
                "peak_downloads_edge_sum": sum(e.peak_downloads for e in self.edges),
                "events": sum(e.events for e in self.edges),
                "wall_s": self.wall_s,
            },
            "curves": {
                "t_s": centers.tolist(),
                "concurrency": self.concurrency_curve.tolist(),
                "utilization": self.utilization_curve.tolist(),
                "rebuffer_ratio": self.rebuffer_ratio_curve.tolist(),
                "arrivals_per_s": (self.arrivals / spec.bucket_s).tolist(),
                "qoe": np.where(
                    self.qoe_count > 0, self.qoe_sum / np.maximum(self.qoe_count, 1.0), 0.0
                ).tolist(),
            },
            "edges": [
                {
                    "edge": edge.edge_index,
                    "sessions": edge.sessions,
                    "peak_concurrency": edge.peak_concurrency,
                    "peak_downloads": edge.peak_downloads,
                    "stall_s": edge.stall_total_s,
                    "utilization": (
                        float(edge.delivered_bits.sum() / edge.capacity_bits.sum())
                        if edge.capacity_bits.sum() > 0
                        else 0.0
                    ),
                    "wall_s": edge.wall_s,
                }
                for edge in self.edges
            ],
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def run_edge_in_worker(edge_index: int):
    """Pool task: simulate one edge inside a :func:`drain_pool` worker.

    :func:`~repro.experiments.worker.init_worker` pinned the fleet spec
    (the one entry of ``specs``), the videos and the edge traces (the
    unperturbed ``None`` plan; fault plans were applied parent-side).
    Returns the drain's ``(result, snapshot, error, spans)`` shape; an
    edge that raises propagates through its future. Under a tracer the
    edge loop times its stages, shipped back as aggregate stage spans
    tagged with the edge, the same spans a serial traced run records.
    """
    tracer = (
        SpanTracer(f"worker-{os.getpid()}") if WORKER_STATE["spans"] else None
    )
    timer = StageTimer() if tracer is not None else None
    edge = simulate_edge(
        WORKER_STATE["specs"][0],  # type: ignore[index]
        edge_index,
        WORKER_STATE["videos"],  # type: ignore[arg-type]
        WORKER_STATE["traces_by_plan"][None][edge_index],  # type: ignore[index]
        stage_timer=timer,
    )
    if tracer is None:
        return edge, None, None, None
    tracer.record_stages(timer, cat="fleet", edge=edge_index)
    return edge, None, None, tracer.snapshot()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _edge_failure(edge_index: int, error: BaseException) -> RuntimeError:
    """The error a fleet run aborts with when an edge raises, on either drain."""
    return RuntimeError(
        f"fleet edge {edge_index} failed: {type(error).__name__}: {error}"
    )


class FleetRunner:
    """Plan, shard, drain and merge one fleet simulation."""

    def __init__(
        self,
        spec: FleetSpec,
        n_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        progress: Optional[ProgressBoard] = None,
    ) -> None:
        self.spec = spec
        cpus = os.cpu_count() or 1
        self.n_workers = max(
            1, min(n_workers if n_workers is not None else cpus, spec.n_edges)
        )
        self.mp_context = mp_context
        self.registry = registry
        self.tracer = tracer
        self.progress = progress
        self._sessions_done = 0

    def run(self) -> FleetResult:
        spec = self.spec
        t0 = time.perf_counter()
        if self.progress is not None:
            self.progress.update(
                phase="fleet.plan", total_units=spec.n_edges, done_units=0
            )
        with maybe_span(
            self.tracer, SPAN_FLEET_PLAN, "fleet",
            edges=spec.n_edges, videos=len(spec.videos),
        ):
            videos = _fleet_videos(spec)
            traces = _edge_traces(spec)
        if self.n_workers <= 1:
            edges = self._drain_serial(videos, traces)
        else:
            edges = []
            drain_pool(
                run_edge_in_worker,
                [(index,) for index in range(spec.n_edges)],
                self._edge_settle(edges),
                specs=[spec],
                config=None,
                videos=videos,
                traces_by_plan={None: traces},
                workers=self.n_workers,
                mp_context=self.mp_context,
                registry=self.registry,
                tracer=self.tracer,
                cat="fleet",
                drain_span=SPAN_FLEET_DRAIN,
                merge_span=SPAN_FLEET_MERGE,
            )
        # Both drains return the edges in ascending edge order.
        with maybe_span(self.tracer, SPAN_FLEET_MERGE, "fleet"):
            result = FleetResult(spec, edges, wall_s=time.perf_counter() - t0)
        self._publish_metrics(result)
        if self.progress is not None:
            self.progress.close(
                phase="done",
                done_units=spec.n_edges,
                completed_sessions=result.sessions,
                total_sessions=result.sessions,
            )
        return result

    # -- drain strategies -------------------------------------------------

    def _drain_serial(self, videos, traces) -> List[EdgeResult]:
        edges: List[EdgeResult] = []
        tracer = self.tracer
        with maybe_span(tracer, SPAN_FLEET_DRAIN, "fleet", workers=1):
            for index in range(self.spec.n_edges):
                # Stage timing pays per-event clock reads, so the loop
                # only times itself when a trace is wanted.
                timer = StageTimer() if tracer is not None else None
                try:
                    edge = simulate_edge(
                        self.spec, index, videos, traces[index], stage_timer=timer
                    )
                except Exception as exc:
                    raise _edge_failure(index, exc) from exc
                if timer is not None:
                    tracer.record_stages(timer, cat="fleet", edge=index)
                edges.append(edge)
                self._note_edge(edge, len(edges))
        return edges

    def _edge_settle(self, edges: List[EdgeResult]):
        """The pool drain's settle step: collect edges in edge order.

        Edges finish in any order; each is noted (span, progress) once
        every lower edge has been, so the parent's timeline and progress
        read the same on every run. A failing edge aborts the fleet with
        an error naming it.
        """
        ready: Dict[int, EdgeResult] = {}

        def settle(edge_index, _attempt, edge, error) -> bool:
            if error is not None:
                raise _edge_failure(edge_index, error) from error
            ready[edge_index] = edge
            while len(edges) in ready:
                edges.append(ready.pop(len(edges)))
                self._note_edge(edges[-1], len(edges))
            return False

        return settle

    def _note_edge(self, edge: EdgeResult, done: int) -> None:
        if self.tracer is not None:
            self.tracer.record(
                SPAN_FLEET_EDGE,
                start_s=edge.started_at,
                dur_s=edge.wall_s,
                cpu_s=edge.cpu_s,
                cat="fleet",
                edge=edge.edge_index,
                sessions=edge.sessions,
                events=edge.events,
            )
        self._sessions_done += edge.sessions
        if self.progress is not None:
            self.progress.update(
                phase="fleet.drain",
                done_units=done,
                total_units=self.spec.n_edges,
                completed_sessions=self._sessions_done,
            )

    # -- telemetry --------------------------------------------------------

    def _publish_metrics(self, result: FleetResult) -> None:
        registry = self.registry
        if registry is None:
            return
        registry.counter(
            FLEET_SESSIONS_METRIC, "sessions simulated by the fleet"
        ).inc(result.sessions)
        registry.counter(
            FLEET_LIVE_SESSIONS_METRIC, "live sessions simulated"
        ).inc(result.live_sessions)
        registry.counter(FLEET_CHUNKS_METRIC, "chunks downloaded").inc(result.chunks)
        registry.counter(
            FLEET_DELIVERED_BITS_METRIC, "bits delivered across edges"
        ).inc(result.bits)
        registry.counter(
            FLEET_STALL_SECONDS_METRIC, "rebuffering seconds accumulated"
        ).inc(result.stall_total_s)
        registry.counter(FLEET_EDGES_METRIC, "edges simulated").inc(
            len(result.edges)
        )
        registry.gauge(
            FLEET_PEAK_CONCURRENCY_METRIC, "peak concurrent viewers"
        ).set(result.peak_concurrency)
        registry.gauge(FLEET_MEAN_QOE_METRIC, "mean per-session QoE").set(
            result.qoe_mean
        )
        registry.gauge(
            FLEET_REBUFFER_RATIO_METRIC, "stall seconds per viewer-second"
        ).set(result.rebuffer_ratio)
        registry.gauge(
            FLEET_UTILIZATION_METRIC, "delivered / deliverable bits"
        ).set(result.mean_utilization)
        series = registry.timeseries(
            FLEET_CONCURRENCY_SERIES,
            "fleet concurrency curve (sim-time buckets)",
            capacity=max(result.delivered_bits.size, 1),
        )
        curve = result.concurrency_curve
        for index in range(curve.size):
            series.observe(float(curve[index]), t=(index + 0.5) * result.spec.bucket_s)


def run_fleet(
    spec: FleetSpec,
    n_workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    progress: Optional[ProgressBoard] = None,
) -> FleetResult:
    """One-call convenience wrapper around :class:`FleetRunner`."""
    return FleetRunner(
        spec,
        n_workers=n_workers,
        mp_context=mp_context,
        registry=registry,
        tracer=tracer,
        progress=progress,
    ).run()
