"""Network substrate: throughput traces (LTE / FCC analogues of §6.1),
a trace-driven fluid download link, and the bandwidth estimators the
evaluation uses (harmonic-mean and §6.7's controlled-error oracle)."""

from repro.network.estimator import (
    BandwidthEstimator,
    ControlledErrorEstimator,
    HarmonicMeanEstimator,
)
from repro.network.link import DownloadResult, TraceLink
from repro.network.shared import SharedLink
from repro.network.traces import (
    NetworkTrace,
    load_trace_file,
    save_trace_file,
    synthesize_fcc_trace,
    synthesize_fcc_traces,
    synthesize_lte_trace,
    synthesize_lte_traces,
)

__all__ = [
    "BandwidthEstimator",
    "ControlledErrorEstimator",
    "HarmonicMeanEstimator",
    "DownloadResult",
    "TraceLink",
    "SharedLink",
    "NetworkTrace",
    "load_trace_file",
    "save_trace_file",
    "synthesize_fcc_trace",
    "synthesize_fcc_traces",
    "synthesize_lte_trace",
    "synthesize_lte_traces",
]
