"""Pipeline observability plane: timeline exports, resource sampling,
live progress, and metrics serving.

:mod:`repro.telemetry.spans` records *where time went*; this module
turns those recordings (plus the metrics registry) into the three
consumer-facing surfaces:

- **Chrome trace-event JSON** (:func:`chrome_trace`) — load the file in
  Perfetto / ``chrome://tracing`` and see the scheduler, every worker,
  and every batch stage on their own lanes (``repro run/compare
  --profile out.json``);
- **live terminal dashboard** (:class:`ProgressBoard` writes,
  :func:`render_top` draws — ``repro top <metrics-dir>``) — units
  done/cached/failed, sessions/s, ETA, per-scheme stage breakdown,
  refreshed while a sweep runs in another process;
- **Prometheus HTTP endpoint** (:class:`MetricsServer`, ``repro compare
  --serve-metrics PORT``) — the scrape surface the fleet simulator will
  reuse; renders the same registry the ``--metrics-out`` dump does.

A background :class:`ResourceSampler` feeds per-process RSS and CPU%
time series (ring buffers in the registry) that export both ways:
latest-value gauges in Prometheus, counter tracks in the Chrome trace.

Stage-name vocabulary (the ``(worker, unit, stage)`` timeline key):

======================  ================================================
span name               recorded by
======================  ================================================
``sweep.plan``          scheduler: spec validation + fault perturbation
``store.partition``     scheduler: cached-vs-missing store scan
``shm.publish``         scheduler: shared-memory data-plane packing
``pool.spawn``          scheduler: process-pool construction
``sweep.drain``         scheduler: the submit/consume event loop
``sweep.merge``         scheduler: result assembly + snapshot merging
``unit.run``            worker: one (spec, trace-batch) work unit (a
                        worker's first carries ``shm_attach_s``, its
                        initializer's data-plane attach time); a
                        co-unit's members nest, one span each
``unit.batch``          worker: the (co-)unit's lockstep batch-engine run
``session.scalar``      worker: one scalar-path session
``batch.prepare``       batch engine: decider + stacked-link build
``batch.estimate``      lockstep loop: bandwidth prediction (aggregate)
``batch.decide``        lockstep loop: level selection (aggregate, one
                        per scheme of the slice)
``batch.advance``       lockstep loop: download + state update (aggregate)
======================  ================================================
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.telemetry.exporters import registry_to_prometheus
from repro.telemetry.metrics import (
    CPU_PERCENT_METRIC,
    RSS_BYTES_METRIC,
    MetricsRegistry,
    TimeSeries,
)
from repro.util.atomic import write_atomic

__all__ = [
    "SPAN_SWEEP_PLAN",
    "SPAN_STORE_PARTITION",
    "SPAN_SHM_PUBLISH",
    "SPAN_POOL_SPAWN",
    "SPAN_SWEEP_DRAIN",
    "SPAN_SWEEP_MERGE",
    "SPAN_LEASE_CLAIM",
    "SPAN_LEASE_RECLAIM",
    "SPAN_STORE_MERGE",
    "SPAN_UNIT_RUN",
    "SPAN_UNIT_BATCH",
    "SPAN_SESSION_SCALAR",
    "SPAN_FLEET_PLAN",
    "SPAN_FLEET_DRAIN",
    "SPAN_FLEET_MERGE",
    "SPAN_FLEET_EDGE",
    "STAGE_PREPARE",
    "STAGE_ESTIMATE",
    "STAGE_DECIDE",
    "STAGE_ADVANCE",
    "chrome_trace",
    "write_chrome_trace",
    "stage_breakdown",
    "span_totals",
    "ResourceSampler",
    "MetricsServer",
    "ProgressBoard",
    "load_progress",
    "render_top",
]

# Scheduler-side spans.
SPAN_SWEEP_PLAN = "sweep.plan"
SPAN_STORE_PARTITION = "store.partition"
SPAN_SHM_PUBLISH = "shm.publish"
SPAN_POOL_SPAWN = "pool.spawn"
SPAN_SWEEP_DRAIN = "sweep.drain"
SPAN_SWEEP_MERGE = "sweep.merge"
# Multi-host lease protocol spans (recorded by the leasing executor:
# claim brackets one leased unit's compute, reclaim one stale-lease
# steal, store.merge the final read-back of the full grid).
SPAN_LEASE_CLAIM = "lease.claim"
SPAN_LEASE_RECLAIM = "lease.reclaim"
SPAN_STORE_MERGE = "store.merge"
# Worker-side spans.
SPAN_UNIT_RUN = "unit.run"
SPAN_UNIT_BATCH = "unit.batch"
SPAN_SESSION_SCALAR = "session.scalar"
# Fleet-simulator spans (parent-side except fleet.edge, which is
# recorded from each worker's measured wall/cpu time).
SPAN_FLEET_PLAN = "fleet.plan"
SPAN_FLEET_DRAIN = "fleet.drain"
SPAN_FLEET_MERGE = "fleet.merge"
SPAN_FLEET_EDGE = "fleet.edge"
# Batch-engine stages (aggregate spans, cat="stage").
STAGE_PREPARE = "batch.prepare"
STAGE_ESTIMATE = "batch.estimate"
STAGE_DECIDE = "batch.decide"
STAGE_ADVANCE = "batch.advance"


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def chrome_trace(
    spans: Sequence[Mapping[str, object]],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Render stitched spans (plus registry time series) as a Chrome trace.

    Returns the trace-event JSON object format: complete (``"X"``)
    events for spans and counter (``"C"``) events for every
    :class:`~repro.telemetry.metrics.TimeSeries` in ``registry``.
    Each distinct span ``track`` (scheduler, worker-<pid>, ...) becomes
    its own named process lane, so Perfetto shows the scheduler and
    every worker stacked, with span nesting derived from the time
    intervals recorded on one lane.

    Timestamps are microseconds relative to the earliest event, so the
    file is small and stable to diff modulo durations.
    """
    events: List[Dict[str, object]] = []
    track_pids: Dict[str, int] = {}

    def pid_for(track: str) -> int:
        pid = track_pids.get(track)
        if pid is None:
            pid = len(track_pids) + 1
            track_pids[track] = pid
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        return pid

    starts = [float(span["start_s"]) for span in spans]
    series: List[TimeSeries] = []
    if registry is not None:
        series = [m for m in registry.metrics() if isinstance(m, TimeSeries)]
        for metric in series:
            starts.extend(t for t, _v in metric.points)
    if not starts:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(starts)

    for span in spans:
        meta = dict(span.get("meta") or {})
        meta["cpu_ms"] = round(float(span.get("cpu_s", 0.0)) * 1e3, 3)
        events.append(
            {
                "ph": "X",
                "name": str(span["name"]),
                "cat": str(span.get("cat") or "span"),
                "ts": round((float(span["start_s"]) - t0) * 1e6, 1),
                "dur": round(float(span["dur_s"]) * 1e6, 1),
                "pid": pid_for(str(span.get("track") or "main")),
                "tid": 0,
                "args": meta,
            }
        )
    for metric in series:
        label = ",".join(f"{k}={v}" for k, v in metric.labels)
        name = f"{metric.name}{{{label}}}" if label else metric.name
        pid = pid_for("resources")
        for t, value in metric.points:
            events.append(
                {
                    "ph": "C",
                    "name": name,
                    "ts": round((t - t0) * 1e6, 1),
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    events.sort(key=lambda e: (e.get("ts", -1), e.get("pid", 0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Sequence[Mapping[str, object]],
    path: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    """Write :func:`chrome_trace` output to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, registry)) + "\n")
    return path


# ----------------------------------------------------------------------
# Aggregations (repro top, bench spans block)
# ----------------------------------------------------------------------


def span_totals(
    spans: Iterable[Mapping[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Total wall/CPU seconds and entry count per span name."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            str(span["name"]), {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
        )
        entry["wall_s"] += float(span.get("dur_s", 0.0))
        entry["cpu_s"] += float(span.get("cpu_s", 0.0))
        entry["count"] += int(span.get("meta", {}).get("count", 1) or 1)
    return totals


def stage_breakdown(
    spans: Iterable[Mapping[str, object]],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-scheme stage cost: ``{scheme: {stage: {wall_s, cpu_s, count}}}``.

    Reads the aggregate ``cat="stage"`` spans the batch engine emits
    (each tagged with its unit's scheme); the per-scheme view is what
    the encoding-ladder optimizer needs to attribute sweep budget.
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for span in spans:
        if span.get("cat") != "stage":
            continue
        meta = span.get("meta") or {}
        scheme = str(meta.get("scheme", "(all)"))
        entry = out.setdefault(scheme, {}).setdefault(
            str(span["name"]), {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
        )
        entry["wall_s"] += float(span.get("dur_s", 0.0))
        entry["cpu_s"] += float(span.get("cpu_s", 0.0))
        entry["count"] += int(meta.get("count", 1) or 1)
    return out


# ----------------------------------------------------------------------
# Background resource sampler
# ----------------------------------------------------------------------

_PROC_AVAILABLE = os.path.isdir("/proc/self")


def _clock_ticks_per_s() -> float:
    try:
        return float(os.sysconf("SC_CLK_TCK"))
    except (AttributeError, ValueError, OSError):
        return 100.0


def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 4096


def _read_proc_sample(pid: int) -> Optional[Dict[str, float]]:
    """RSS bytes + cumulative CPU ticks of one process, via /proc."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
        with open(f"/proc/{pid}/statm", "rb") as fh:
            statm = fh.read().split()
    except OSError:
        return None
    # comm (field 2) may contain spaces/parens; fields resume after the
    # last closing paren.
    rest = raw.rsplit(")", 1)[-1].split()
    if len(rest) < 13 or len(statm) < 2:
        return None
    utime, stime = float(rest[11]), float(rest[12])  # fields 14/15, 1-based
    return {
        "rss_bytes": float(int(statm[1]) * _page_size()),
        "cpu_ticks": utime + stime,
    }


def _child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (pool workers), via /proc task lists."""
    children: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return children
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", "rb") as fh:
                children.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return children


class ResourceSampler:
    """Background thread feeding per-process RSS/CPU time series.

    Samples this process and (optionally) its direct children — the pool
    workers — every ``interval_s``, appending to
    :data:`~repro.telemetry.metrics.RSS_BYTES_METRIC` /
    :data:`~repro.telemetry.metrics.CPU_PERCENT_METRIC` time series
    labeled ``{pid, role}``. CPU% is the utime+stime delta between
    consecutive samples, so the first sample of each pid records RSS
    only. On platforms without ``/proc`` the sampler degrades to RSS of
    the current process via :mod:`resource`.

    Use as a context manager around the instrumented region::

        with ResourceSampler(registry):
            engine.run_specs(...)
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 0.5,
        include_children: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self.include_children = include_children
        self._pid = os.getpid()
        self._ticks_per_s = _clock_ticks_per_s()
        self._prev: Dict[int, Dict[str, float]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- sampling -------------------------------------------------------

    def _record(self, pid: int, role: str, now: float) -> None:
        sample = _read_proc_sample(pid)
        if sample is None:
            return
        labels = {"pid": str(pid), "role": role}
        self.registry.timeseries(
            RSS_BYTES_METRIC, "resident set size per process", labels=labels
        ).observe(sample["rss_bytes"], t=now)
        prev = self._prev.get(pid)
        if prev is not None and now > prev["t"]:
            cpu_pct = (
                (sample["cpu_ticks"] - prev["cpu_ticks"])
                / self._ticks_per_s
                / (now - prev["t"])
                * 100.0
            )
            self.registry.timeseries(
                CPU_PERCENT_METRIC, "CPU utilization per process (%)", labels=labels
            ).observe(max(cpu_pct, 0.0), t=now)
        self._prev[pid] = {"t": now, "cpu_ticks": sample["cpu_ticks"]}

    def sample_once(self) -> None:
        """Take one sample of the parent (and children) right now."""
        now = time.time()
        if not _PROC_AVAILABLE:
            try:
                import resource as _resource

                rss_kb = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
            except Exception:  # noqa: BLE001 - sampling must never raise
                return
            self.registry.timeseries(
                RSS_BYTES_METRIC,
                "resident set size per process",
                labels={"pid": str(self._pid), "role": "parent"},
            ).observe(float(rss_kb) * 1024.0, t=now)
            return
        self._record(self._pid, "parent", now)
        if self.include_children:
            for child in _child_pids(self._pid):
                self._record(child, "worker", now)

    # -- lifecycle ------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - a dead sampler beats a dead sweep
                return

    def start(self) -> "ResourceSampler":
        """Begin sampling on a daemon thread (idempotent)."""
        if self._thread is None:
            self.sample_once()  # immediate baseline point
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001
                pass

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Prometheus HTTP endpoint
# ----------------------------------------------------------------------


class MetricsServer:
    """Serve a registry over HTTP in the Prometheus text format.

    ``GET /metrics`` (or ``/``) renders
    :func:`~repro.telemetry.exporters.registry_to_prometheus` of the
    live registry — the sweep keeps mutating it, every scrape sees the
    current state. ``port=0`` binds an ephemeral port (tests);
    :attr:`port` reports the bound one either way.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.registry = registry

        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                body = registry_to_prometheus(server.registry).encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-scrape noise
                return

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=2.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Live progress (repro top)
# ----------------------------------------------------------------------

PROGRESS_FILENAME = "progress.json"


class ProgressBoard:
    """Sweep-side writer of the live progress file ``repro top`` reads.

    The engine calls :meth:`update` from its drain loop; the board
    coalesces writes (at most one per ``min_interval_s``, plus a forced
    final write) and replaces ``<dir>/progress.json`` atomically, so a
    concurrent reader never sees a torn file. Derived rates (sessions/s,
    ETA) are computed at write time from the accumulated counts.
    """

    def __init__(
        self, directory: Union[str, Path], min_interval_s: float = 0.25
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / PROGRESS_FILENAME
        self.min_interval_s = min_interval_s
        self._started = time.time()
        self._last_write = 0.0
        self._state: Dict[str, object] = {"phase": "starting"}

    def update(self, force: bool = False, **fields) -> None:
        """Merge ``fields`` into the board state; maybe write the file."""
        self._state.update(fields)
        now = time.time()
        if not force and now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        payload = dict(self._state)
        elapsed = max(now - self._started, 1e-9)
        payload["started_at"] = self._started
        payload["updated_at"] = now
        payload["elapsed_s"] = round(elapsed, 3)
        completed = float(payload.get("completed_sessions", 0) or 0)
        cached = float(payload.get("cached_sessions", 0) or 0)
        total = float(payload.get("total_sessions", 0) or 0)
        rate = completed / elapsed
        payload["sessions_per_s"] = round(rate, 2)
        remaining = max(total - completed - cached, 0.0)
        payload["eta_s"] = round(remaining / rate, 1) if rate > 0 else None
        raw = json.dumps(payload, indent=2) + "\n"
        write_atomic(str(self.path), raw.encode("utf-8"))

    def close(self, **fields) -> None:
        """Final forced write (phase defaults to ``done``)."""
        fields.setdefault("phase", "done")
        self.update(force=True, **fields)


def load_progress(directory: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read the progress file under ``directory``; None when absent/torn."""
    path = Path(directory) / PROGRESS_FILENAME
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(float(seconds), 0.0)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_top(progress: Mapping[str, object], width: int = 72) -> str:
    """One refresh frame of the ``repro top`` dashboard (plain text)."""
    lines: List[str] = []
    phase = progress.get("phase", "?")
    workers = progress.get("workers", "?")
    lines.append(
        f"repro sweep — phase {phase} — workers {workers} — "
        f"elapsed {_fmt_duration(progress.get('elapsed_s'))}"
    )
    total_units = int(progress.get("total_units", 0) or 0)
    done_units = int(progress.get("done_units", 0) or 0)
    failed_units = int(progress.get("failed_units", 0) or 0)
    completed = int(progress.get("completed_sessions", 0) or 0)
    cached = int(progress.get("cached_sessions", 0) or 0)
    total = int(progress.get("total_sessions", 0) or 0)
    lines.append(
        f"units {done_units}/{total_units} done ({failed_units} failed)   "
        f"sessions {completed + cached}/{total} "
        f"({cached} cached)   "
        f"{progress.get('sessions_per_s', 0)} sessions/s   "
        f"ETA {_fmt_duration(progress.get('eta_s'))}"
    )
    if total > 0:
        frac = min((completed + cached) / total, 1.0)
        filled = int(frac * (width - 10))
        lines.append(
            "[" + "#" * filled + "-" * (width - 10 - filled) + f"] {frac * 100:5.1f}%"
        )
    schemes = progress.get("schemes") or {}
    if schemes:
        lines.append("")
        lines.append(f"{'scheme':24s} {'sessions':>9s} {'unit s':>8s}  stage breakdown")
        for label in sorted(schemes):
            info = schemes[label] or {}
            stages = info.get("stages") or {}
            stage_text = "  ".join(
                f"{name.split('.', 1)[-1]}={stages[name].get('wall_s', 0.0):.2f}s"
                for name in sorted(stages)
            )
            lines.append(
                f"{label[:24]:24s} {int(info.get('sessions', 0)):>9d} "
                f"{float(info.get('unit_seconds', 0.0)):>8.2f}  {stage_text}"
            )
    return "\n".join(lines) + "\n"
