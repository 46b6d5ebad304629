"""Network throughput traces: model, synthesis, and file I/O.

The paper replays two real-world trace sets (§6.1):

- **LTE**: 200 cellular traces captured on a coast-to-coast US drive,
  stored as per-second throughput of a bulk download — highly dynamic,
  with deep fades and occasional outages;
- **FCC**: 200 fixed-broadband traces from the FCC Measuring Broadband
  America dataset, stored as per-5-second throughput — much smoother.

Each trace holds at least 18 minutes of samples so a ~10-minute video
never outruns the trace. We synthesize statistically matched trace sets
with seeded generators (a Markov regime chain with within-regime
lognormal variation for LTE; a stable mean with rare dips for FCC), and
support loading/saving the simple one-value-per-line format real trace
files use, so users with the actual datasets can drop them in.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.util.rng import derive_rng
from repro.util.stats import coefficient_of_variation
from repro.util.units import mbps_to_bps
from repro.util.validation import check_positive

__all__ = [
    "NetworkTrace",
    "synthesize_lte_trace",
    "synthesize_fcc_trace",
    "synthesize_lte_traces",
    "synthesize_fcc_traces",
    "load_trace_file",
    "save_trace_file",
]

#: Minimum trace length used by the paper (§6.1): 18 minutes.
MIN_TRACE_DURATION_S = 18 * 60.0


@dataclass
class NetworkTrace:
    """A piecewise-constant throughput timeline.

    ``throughputs_bps[k]`` is the available bandwidth during
    ``[k * interval_s, (k + 1) * interval_s)``. Queries past the end wrap
    around (periodic extension), the standard convention for replaying
    finite traces against arbitrary-length sessions.
    """

    name: str
    interval_s: float
    throughputs_bps: np.ndarray

    def __post_init__(self) -> None:
        check_positive(self.interval_s, "interval_s")
        self.throughputs_bps = np.asarray(self.throughputs_bps, dtype=float)
        if self.throughputs_bps.ndim != 1 or self.throughputs_bps.size == 0:
            raise ValueError("throughputs_bps must be a non-empty 1-D array")
        if np.any(~np.isfinite(self.throughputs_bps)) or np.any(self.throughputs_bps < 0):
            raise ValueError("throughputs must be finite and non-negative")

    @property
    def num_intervals(self) -> int:
        """Number of constant-throughput intervals."""
        return int(self.throughputs_bps.size)

    @property
    def duration_s(self) -> float:
        """Length of one full pass through the trace."""
        return self.num_intervals * self.interval_s

    @property
    def mean_bps(self) -> float:
        """Time-average throughput."""
        return float(np.mean(self.throughputs_bps))

    @property
    def cov(self) -> float:
        """Coefficient of variation of per-interval throughput."""
        return coefficient_of_variation(self.throughputs_bps)

    def digest(self) -> str:
        """Stable content digest of the timeline (hex).

        Two traces digest equally iff their name, interval, and exact
        float64 timeline bytes match. The digest is computed from raw
        content with BLAKE2 (no salted ``hash()``, no ``id()``), so it is
        identical across processes and across fork/spawn start methods
        and can key persistent caches such as the session store.
        """
        timeline = np.ascontiguousarray(self.throughputs_bps, dtype=np.float64)
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(self.name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(float(self.interval_s).hex().encode("ascii"))
        hasher.update(b"\x00")
        hasher.update(timeline.dtype.str.encode("ascii"))
        hasher.update(timeline.tobytes())
        return hasher.hexdigest()

    def throughput_at(self, t_s: float) -> float:
        """Throughput in bits/second at absolute time ``t_s`` (wraps)."""
        if t_s < 0:
            raise ValueError(f"time must be non-negative, got {t_s}")
        index = int(t_s / self.interval_s) % self.num_intervals
        return float(self.throughputs_bps[index])

    def with_throughputs(
        self, throughputs_bps: np.ndarray, name: Optional[str] = None
    ) -> "NetworkTrace":
        """A copy with a replaced throughput timeline (same interval).

        The fault-injection layer uses this to build perturbed variants;
        by default the name is kept, because a faulted sweep is the same
        grid replayed under adverse conditions.
        """
        return NetworkTrace(
            name=name if name is not None else self.name,
            interval_s=self.interval_s,
            throughputs_bps=throughputs_bps,
        )

    def scaled(self, factor: float) -> "NetworkTrace":
        """A copy with every throughput multiplied by ``factor``."""
        check_positive(factor, "factor")
        return NetworkTrace(
            name=f"{self.name}*{factor:g}",
            interval_s=self.interval_s,
            throughputs_bps=self.throughputs_bps * factor,
        )

    def __repr__(self) -> str:
        return (
            f"NetworkTrace({self.name!r}, {self.num_intervals} x {self.interval_s:g}s, "
            f"mean {self.mean_bps / 1e6:.2f} Mbps)"
        )


# ----------------------------------------------------------------------
# LTE synthesis: Markov regime chain
# ----------------------------------------------------------------------

#: LTE regimes: (mean multiplier on the trace's base rate, mean dwell
#: intervals). "outage" models tunnels / dead zones on a drive.
_LTE_REGIMES = (
    ("good", 1.6, 25.0),
    ("medium", 0.9, 20.0),
    ("poor", 0.35, 12.0),
    ("outage", 0.03, 4.0),
)

#: Regime transition matrix (row = current regime), loosely matching the
#: burstiness of drive-test LTE captures: mostly good/medium with
#: excursions to poor and rare short outages.
_LTE_TRANSITIONS = np.array(
    [
        [0.00, 0.70, 0.25, 0.05],
        [0.55, 0.00, 0.35, 0.10],
        [0.35, 0.45, 0.00, 0.20],
        [0.15, 0.35, 0.50, 0.00],
    ]
)

#: Per-row CDFs of ``_LTE_TRANSITIONS``, built the way
#: ``Generator.choice(p=row)`` builds them (``cumsum``, then divide by the
#: last entry), so ``bisect_right(cdf, rng.random())`` draws the same
#: regime as ``rng.choice(4, p=row)`` and consumes the same single double.
_LTE_SWITCH_CDFS = tuple(
    (row.cumsum() / row.cumsum()[-1]).tolist() for row in _LTE_TRANSITIONS
)


def synthesize_lte_trace(
    name: str,
    rng: np.random.Generator,
    duration_s: float = MIN_TRACE_DURATION_S,
    interval_s: float = 1.0,
) -> NetworkTrace:
    """One synthetic per-second LTE drive trace.

    The per-trace base rate is lognormal (median ~1.9 Mbps, spanning
    roughly 0.7–5 Mbps across traces) so that the *set* of traces covers the
    band where the six-track ladder's decisions are actually contested.
    """
    check_positive(duration_s, "duration_s")
    n = int(math.ceil(duration_s / interval_s))
    base_bps = mbps_to_bps(float(rng.lognormal(np.log(1.9), 0.55)))

    regime = int(rng.integers(0, 2))  # start in good or medium
    remaining = float(rng.exponential(_LTE_REGIMES[regime][2]))
    smooth = _LTE_REGIMES[regime][1]
    smooths: List[float] = []
    fades: List[np.ndarray] = []
    while len(smooths) < n:
        if remaining <= 0:
            regime = bisect_right(_LTE_SWITCH_CDFS[regime], rng.random())
            remaining = float(rng.exponential(_LTE_REGIMES[regime][2]))
        # The dwell's length comes from its countdown, which draws
        # nothing, so its per-second fades are one block draw.
        steps = 1
        remaining -= 1.0
        while remaining > 0 and len(smooths) + steps < n:
            remaining -= 1.0
            steps += 1
        fades.append(rng.lognormal(0.0, 0.30, size=steps))
        # AR(1) pull toward the regime mean, on plain floats: the
        # recursion is sequential and its operand order fixes the bits.
        target = _LTE_REGIMES[regime][1]
        for _ in range(steps):
            smooth = 0.7 * smooth + 0.3 * target
            smooths.append(smooth)
    # Per-second fading noise on the smoothed regime level.
    samples = base_bps * np.array(smooths) * np.concatenate(fades)
    throughputs = np.maximum(samples, 1_000.0)  # never exactly zero
    return NetworkTrace(name=name, interval_s=interval_s, throughputs_bps=throughputs)


def synthesize_fcc_trace(
    name: str,
    rng: np.random.Generator,
    duration_s: float = MIN_TRACE_DURATION_S,
    interval_s: float = 5.0,
) -> NetworkTrace:
    """One synthetic per-5-second fixed-broadband (FCC-style) trace.

    Broadband links are provisioned at a fairly stable rate (median
    ~6 Mbps across traces, matching the mid-2010s FCC distribution) with
    mild utilization noise and occasional congestion dips.
    """
    check_positive(duration_s, "duration_s")
    n = int(math.ceil(duration_s / interval_s))
    base_bps = mbps_to_bps(float(rng.lognormal(np.log(6.0), 0.60)))
    noise = rng.lognormal(0.0, 0.08, size=n)
    throughputs = base_bps * noise
    # Occasional congestion episodes: a few contiguous dips to 30–70%.
    num_dips = int(rng.poisson(2.0))
    for _ in range(num_dips):
        start = int(rng.integers(0, n))
        length = int(rng.integers(2, 8))
        depth = float(rng.uniform(0.3, 0.7))
        throughputs[start : start + length] *= depth
    throughputs = np.maximum(throughputs, 10_000.0)
    return NetworkTrace(name=name, interval_s=interval_s, throughputs_bps=throughputs)


def synthesize_lte_traces(
    count: int = 200, seed: int = 0, duration_s: float = MIN_TRACE_DURATION_S
) -> List[NetworkTrace]:
    """The 200-trace LTE set analogue of §6.1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [
        synthesize_lte_trace(f"lte-{i:03d}", derive_rng(seed, "trace", "lte", str(i)), duration_s)
        for i in range(count)
    ]


def synthesize_fcc_traces(
    count: int = 200, seed: int = 0, duration_s: float = MIN_TRACE_DURATION_S
) -> List[NetworkTrace]:
    """The 200-trace FCC broadband set analogue of §6.1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [
        synthesize_fcc_trace(f"fcc-{i:03d}", derive_rng(seed, "trace", "fcc", str(i)), duration_s)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# File I/O: one throughput value per line (Mbps), the common public format
# ----------------------------------------------------------------------


def load_trace_file(path: Path, interval_s: float, name: Optional[str] = None) -> NetworkTrace:
    """Load a trace from a text file with one Mbps value per line.

    Blank lines and ``#`` comments are ignored. This matches the format
    commonly used to distribute the FCC/HSDPA/LTE trace sets, so the
    synthetic sets can be swapped for real captures.
    """
    path = Path(path)
    values: List[float] = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(mbps_to_bps(float(text)))
            except ValueError:
                raise ValueError(f"{path}:{line_number}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no throughput samples found")
    return NetworkTrace(
        name=name or path.stem, interval_s=interval_s, throughputs_bps=np.array(values)
    )


def save_trace_file(trace: NetworkTrace, path: Path) -> None:
    """Write a trace in the one-Mbps-value-per-line format."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# trace {trace.name}, interval {trace.interval_s:g}s\n")
        for value in trace.throughputs_bps:
            handle.write(f"{value / 1e6:.9f}\n")
