"""Telemetry exporters: JSONL event/trace streams and Prometheus text.

Three output formats, matched to three consumers:

- **JSONL** (:func:`trace_to_jsonl`, :func:`events_to_jsonl`,
  :func:`write_jsonl`) — one JSON object per line, the archival format
  that greps and streams well;
- **Prometheus text exposition** (:func:`registry_to_prometheus`) — the
  ``# HELP`` / ``# TYPE`` / sample-line format scrape pipelines and CI
  artifact diffing understand;
- plain-dict JSON for whole objects (``SessionTrace.to_dict``,
  ``SessionResult.to_dict``) handled by the callers.

Everything here is pure formatting — no I/O except the explicit
``write_jsonl`` convenience — so the functions are trivially testable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, List, Union

from repro.player.events import SessionEvent
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.telemetry.tracer import SessionTrace

__all__ = [
    "trace_to_jsonl",
    "events_to_jsonl",
    "write_jsonl",
    "registry_to_prometheus",
]


def trace_to_jsonl(trace: SessionTrace) -> str:
    """Serialize a trace as JSONL: one header line, then one line per chunk.

    The header carries the session identity (kind ``"session"``); each
    subsequent line is one :class:`~repro.telemetry.tracer.ChunkRecord`
    (kind ``"chunk"``), followed by any estimator events (kind
    ``"bandwidth"``).
    """
    lines: List[str] = [
        json.dumps(
            {
                "kind": "session",
                "scheme": trace.scheme,
                "video_name": trace.video_name,
                "trace_name": trace.trace_name,
                "num_chunks": trace.num_chunks,
                "startup_delay_s": trace.startup_delay_s,
            }
        )
    ]
    for record in trace.records:
        payload = record.to_dict()
        payload["kind"] = "chunk"
        lines.append(json.dumps(payload))
    for event in trace.bandwidth_events:
        lines.append(
            json.dumps(
                {
                    "kind": "bandwidth",
                    "event": event.kind,
                    "now_s": event.now_s,
                    "bandwidth_bps": event.bandwidth_bps,
                }
            )
        )
    return "\n".join(lines) + "\n"


def events_to_jsonl(events: Iterable[SessionEvent]) -> str:
    """One JSON object per timeline event."""
    lines = [
        json.dumps(
            {
                "time_s": event.time_s,
                "event": event.kind,
                "chunk_index": event.chunk_index,
                "detail": event.detail,
            }
        )
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(text: str, path: Union[str, Path]) -> Path:
    """Write a JSONL string to ``path`` (parent directories created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, +Inf spelled out."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` string per the text exposition format.

    Backslash and newline are the two characters the format escapes in
    help text; anything else passes through. Without this, a help string
    containing a newline splits the dump into an unparseable line.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double quote, newline.

    Scheme aliases and trace names flow into label values verbatim
    (``cava-p123`` is tame, but nothing stops a quote or newline), so
    every rendered value goes through here.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels, extra: str = "") -> str:
    """``{k="v",...}`` for a metric's label pairs (empty string if none).

    ``extra`` is a pre-rendered pair (the histogram ``le``) appended
    after the metric's own labels.
    """
    parts = [f'{key}="{_escape_label_value(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Metrics are emitted sorted by (name, labels) so the dump is diffable
    across runs. ``# HELP`` / ``# TYPE`` headers appear exactly once per
    metric *family* — labeled series of one name share them — and help
    strings and label values are escaped per the format (backslash,
    newline, and ``"`` in label values), so hostile scheme aliases can't
    corrupt the dump. Histograms expose the standard
    ``_bucket{le=...}`` (cumulative), ``_sum``, and ``_count`` series;
    time series export their latest point as a gauge (a scrape is a
    point-in-time read).
    """
    lines: List[str] = []
    seen_families = set()
    for metric in registry.metrics():
        if metric.name not in seen_families:
            seen_families.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            kind = "gauge" if isinstance(metric, TimeSeries) else metric.kind
            lines.append(f"# TYPE {metric.name} {kind}")
        labels = _render_labels(metric.labels)
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
        elif isinstance(metric, TimeSeries):
            lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                bucket = _render_labels(
                    metric.labels, extra=f'le="{_format_value(bound)}"'
                )
                lines.append(f"{metric.name}_bucket{bucket} {cumulative}")
            cumulative += metric.counts[-1]
            bucket = _render_labels(metric.labels, extra='le="+Inf"')
            lines.append(f"{metric.name}_bucket{bucket} {cumulative}")
            lines.append(f"{metric.name}_sum{labels} {_format_value(metric.sum)}")
            lines.append(f"{metric.name}_count{labels} {cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")
