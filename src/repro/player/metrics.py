"""QoE metrics of §6.1, computed from a session record plus ground truth.

The five evaluation metrics:

(i)   **quality of Q4 chunks** — perceptual quality (VMAF) delivered for
      the most complex scenes; higher is better;
(ii)  **low-quality chunk percentage** — fraction of played chunks whose
      VMAF is below 40 ("poor or unacceptable"); lower is better;
(iii) **rebuffering duration** — total stall seconds; lower is better;
(iv)  **average quality change per chunk** — mean |q_{i+1} - q_i| over
      consecutive chunks; lower is better;
(v)   **data usage** — total bytes downloaded; lower is better.

The paper uses the VMAF *phone* model for LTE (cellular → handheld
viewing) and the *TV* model for FCC traces (home → big screen);
:func:`metric_for_network` encodes that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.player.session import LockstepRecord, SessionResult
from repro.util.units import bits_to_megabytes
from repro.video.classify import ChunkClassifier
from repro.video.model import VideoAsset

__all__ = [
    "LOW_QUALITY_VMAF",
    "GOOD_QUALITY_VMAF",
    "SessionMetrics",
    "QoeWeights",
    "composite_qoe",
    "quality_series",
    "summarize_session",
    "summarize_lockstep",
    "metric_for_network",
]

#: VMAF below this is "poor or unacceptable" quality (§6.1, citing [50]).
LOW_QUALITY_VMAF = 40.0

#: VMAF above this is "good quality" (§6.3, citing [50]).
GOOD_QUALITY_VMAF = 60.0


def metric_for_network(network: str) -> str:
    """The paper's viewing-model convention: phone on LTE, TV on FCC."""
    if network == "lte":
        return "vmaf_phone"
    if network == "fcc":
        return "vmaf_tv"
    raise ValueError(f"unknown network {network!r}; expected 'lte' or 'fcc'")


def quality_series(result: SessionResult, video: VideoAsset, metric: str) -> np.ndarray:
    """Per-chunk delivered quality: ground truth joined on chosen levels."""
    if result.num_chunks != video.num_chunks:
        raise ValueError(
            f"session has {result.num_chunks} chunks but video has {video.num_chunks}"
        )
    return video.quality_table(metric)[result.levels, np.arange(result.num_chunks)]


@dataclass(frozen=True)
class SessionMetrics:
    """The §6.1 metric vector for one session (plus useful extras)."""

    scheme: str
    video_name: str
    trace_name: str
    metric: str
    q4_quality_mean: float
    q4_quality_median: float
    q13_quality_mean: float
    mean_quality: float
    low_quality_fraction: float
    rebuffer_s: float
    quality_change_per_chunk: float
    data_usage_mb: float
    startup_delay_s: float
    mean_level: float
    level_switches: int

    def as_dict(self) -> Dict[str, float]:
        """Metric values keyed by name (for tabulation)."""
        return {
            "q4_quality_mean": self.q4_quality_mean,
            "q4_quality_median": self.q4_quality_median,
            "q13_quality_mean": self.q13_quality_mean,
            "mean_quality": self.mean_quality,
            "low_quality_fraction": self.low_quality_fraction,
            "rebuffer_s": self.rebuffer_s,
            "quality_change_per_chunk": self.quality_change_per_chunk,
            "data_usage_mb": self.data_usage_mb,
            "startup_delay_s": self.startup_delay_s,
            "mean_level": self.mean_level,
            "level_switches": float(self.level_switches),
        }


@dataclass(frozen=True)
class QoeWeights:
    """Weights of the linear QoE score used across the ABR literature
    (MPC's objective, Pensieve's reward): mean quality minus weighted
    rebuffering minus weighted quality churn minus weighted startup.

    The paper argues single scores hide the multi-dimensional trade-offs
    (hence its five metrics), but a composite remains useful for quick
    rankings and regression tracking — so it is provided, not imposed.
    """

    rebuffer_per_s: float = 3.0
    quality_change: float = 1.0
    startup_per_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rebuffer_per_s", "quality_change", "startup_per_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def composite_qoe(metrics: "SessionMetrics", weights: QoeWeights = QoeWeights()) -> float:
    """Linear QoE score of one session (higher is better).

    ``mean_quality - w_r * rebuffer_s - w_c * quality_change_per_chunk -
    w_s * startup_delay_s``, with quality on the VMAF scale.
    """
    return (
        metrics.mean_quality
        - weights.rebuffer_per_s * metrics.rebuffer_s
        - weights.quality_change * metrics.quality_change_per_chunk
        - weights.startup_per_s * metrics.startup_delay_s
    )


def summarize_session(
    result: SessionResult,
    video: VideoAsset,
    metric: str = "vmaf_phone",
    classifier: Optional[ChunkClassifier] = None,
    low_quality_threshold: float = LOW_QUALITY_VMAF,
) -> SessionMetrics:
    """Compute the full §6.1 metric vector for one session."""
    if classifier is None:
        classifier = ChunkClassifier.from_video(video)
    qualities = quality_series(result, video, metric)
    q4_mask = classifier.categories == classifier.num_classes
    if not np.any(q4_mask):
        raise ValueError("classifier produced no Q4 chunks")

    changes = np.abs(np.diff(qualities))
    level_changes = np.diff(result.levels)

    return SessionMetrics(
        scheme=result.scheme,
        video_name=result.video_name,
        trace_name=result.trace_name,
        metric=metric,
        q4_quality_mean=float(np.mean(qualities[q4_mask])),
        q4_quality_median=float(np.median(qualities[q4_mask])),
        q13_quality_mean=float(np.mean(qualities[~q4_mask])),
        mean_quality=float(np.mean(qualities)),
        low_quality_fraction=float(np.mean(qualities < low_quality_threshold)),
        rebuffer_s=result.total_stall_s,
        quality_change_per_chunk=float(np.mean(changes)) if changes.size else 0.0,
        data_usage_mb=bits_to_megabytes(result.data_usage_bits),
        startup_delay_s=result.startup_delay_s,
        mean_level=float(np.mean(result.levels)),
        level_switches=int(np.count_nonzero(level_changes)),
    )


def summarize_lockstep(
    record: LockstepRecord,
    video: VideoAsset,
    metric: str = "vmaf_phone",
    classifier: Optional[ChunkClassifier] = None,
    low_quality_threshold: float = LOW_QUALITY_VMAF,
) -> List[SessionMetrics]:
    """:func:`summarize_session` of every lane of a lockstep record.

    Reduces the record's ``(chunks, lanes)`` matrices directly: each
    matrix the metrics need is transposed once into a C-contiguous
    ``(lanes, chunks)`` copy, quality is joined with one gather, and
    every metric is one ``axis=1`` reduction, so summarizing a slice
    costs a handful of numpy ops and no per-lane session records.

    **Bit-identity**: every value equals what :func:`summarize_session`
    returns for that lane's :class:`SessionResult`. The quality join is
    a pure gather; medians, boolean fractions and integer-valued means
    are exact in any summation order. The float sums and means rely on
    ``np.add.reduce(m, axis=1)`` over a C-contiguous ``m`` running the
    same pairwise summation on each row as the scalar path's 1-D
    ``np.sum``/``np.mean``. That holds only for C-contiguous rows: the
    Q4 and Q13 blocks come from boolean column indexing, whose result is
    not C-contiguous and sums some rows an ulp differently, so both
    blocks are copied contiguous before they are reduced.
    """
    if classifier is None:
        classifier = ChunkClassifier.from_video(video)
    num_chunks = video.num_chunks
    if record.num_chunks != num_chunks:
        raise ValueError(
            f"session has {record.num_chunks} chunks but video has {num_chunks}"
        )
    q4_mask = classifier.categories == classifier.num_classes
    if not np.any(q4_mask):
        raise ValueError("classifier produced no Q4 chunks")

    levels = np.ascontiguousarray(record.levels.T)
    qualities = video.quality_table(metric)[levels, np.arange(num_chunks)]
    q4_block = np.ascontiguousarray(qualities[:, q4_mask])
    q13_block = np.ascontiguousarray(qualities[:, ~q4_mask])
    # A classifiable video has at least four chunks, so ``changes`` is
    # never empty (the scalar path's 0.0 fallback cannot arise here).
    changes = np.abs(np.diff(qualities, axis=1))

    q4_means = np.add.reduce(q4_block, axis=1) / q4_block.shape[1]
    q4_medians = np.median(q4_block, axis=1)
    q13_means = np.add.reduce(q13_block, axis=1) / q13_block.shape[1]
    means = np.add.reduce(qualities, axis=1) / num_chunks
    low_fractions = np.mean(qualities < low_quality_threshold, axis=1)
    change_means = np.add.reduce(changes, axis=1) / changes.shape[1]
    stalls = np.add.reduce(np.ascontiguousarray(record.stall_s.T), axis=1)
    bits = np.add.reduce(np.ascontiguousarray(record.sizes_bits.T), axis=1)
    mean_levels = np.mean(levels, axis=1)
    level_switches = np.count_nonzero(np.diff(levels, axis=1), axis=1)

    data_mb = [bits_to_megabytes(lane_bits) for lane_bits in bits.tolist()]
    # One row per lane, in SessionMetrics field order after ``metric``.
    rows = zip(
        q4_means.tolist(),
        q4_medians.tolist(),
        q13_means.tolist(),
        means.tolist(),
        low_fractions.tolist(),
        stalls.tolist(),
        change_means.tolist(),
        data_mb,
        record.startup_delay_s.tolist(),
        mean_levels.tolist(),
        level_switches.tolist(),
    )
    return [
        SessionMetrics(record.scheme, record.video_name, trace_name, metric, *row)
        for trace_name, row in zip(record.trace_names, rows)
    ]
