"""Trace-driven download link.

The simulator's contract with the network is a single primitive: *start a
download of S bits at time t; when does it finish?* The link answers by
integrating the trace's piecewise-constant throughput from ``t`` forward
until S bits have been delivered (the fluid model used by every
trace-driven ABR study, including this paper's §6.1 setup — TCP dynamics,
RTT, and loss are folded into the measured throughput).

A cumulative-bits table over one trace period makes each query
O(log n) via binary search, with periodic wrap-around for sessions that
outlast the trace.

Single-download queries are the per-chunk hot path of every session, so
they run on a **scalar fast path**: the cumulative table and the
per-interval rates are mirrored into plain Python float lists on first
scalar use, and lookups use :func:`bisect.bisect_left` plus Python
float arithmetic — bit-identical to the numpy formulation (both are IEEE
doubles, the operations are applied in the same order) but without
per-call ndarray and ufunc dispatch overhead. The numpy cumulative table
is kept alongside for vectorized / whole-window analyses
(:meth:`TraceLink.bits_in_windows`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.traces import NetworkTrace
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "TraceLink",
    "StackedLinks",
    "DownloadResult",
    "MIN_DOWNLOAD_DURATION_S",
    "cumulative_bits_table",
]

#: Floor on reported download duration: every download takes strictly
#: positive wall time, so rate math downstream (estimators divide by the
#: duration) always stays finite.
MIN_DOWNLOAD_DURATION_S = 1e-9

_INF = math.inf


def cumulative_bits_table(trace: NetworkTrace) -> np.ndarray:
    """``table[k]`` = bits deliverable in ``[0, k * interval_s)``.

    The single definition of the link's lookup table: both
    :class:`TraceLink` (when constructed bare) and the sweep engine's
    shared-memory data plane (which computes the table once in the parent
    and publishes it to workers) call this, so a published table is
    bit-identical to one computed locally.
    """
    return np.concatenate(
        [[0.0], np.cumsum(trace.throughputs_bps * float(trace.interval_s))]
    )


@dataclass(frozen=True)
class DownloadResult:
    """Outcome of one chunk download over the link."""

    start_s: float
    finish_s: float
    size_bits: float

    @property
    def duration_s(self) -> float:
        """Wall-clock download time."""
        return self.finish_s - self.start_s

    @property
    def throughput_bps(self) -> float:
        """Average throughput experienced by this download (always finite)."""
        return self.size_bits / max(self.duration_s, MIN_DOWNLOAD_DURATION_S)


class TraceLink:
    """Fluid download model over a :class:`NetworkTrace`.

    The link is stateless between calls — concurrency is not modelled
    because DASH/HLS players download chunks sequentially (one outstanding
    request), as all the schemes in the paper do.
    """

    def __init__(
        self, trace: NetworkTrace, cumulative_bits: Optional[np.ndarray] = None
    ) -> None:
        self.trace = trace
        self._interval = float(trace.interval_s)
        self._period_s = float(trace.duration_s)
        # cumulative_bits[k] = bits deliverable in [0, k * interval).
        # A caller that already holds the table — the sweep engine's
        # shared-memory data plane computes it once in the parent and
        # publishes it to every worker — can pass it in (directly or via
        # a ``shared_cumulative_bits`` attribute on the trace) and skip
        # the per-process cumsum. The table must be exactly what the
        # fallback below would compute; the data plane guarantees that by
        # running the same expression on the same float64 timeline.
        if cumulative_bits is None:
            cumulative_bits = getattr(trace, "shared_cumulative_bits", None)
        if cumulative_bits is None:
            cumulative_bits = cumulative_bits_table(trace)
        else:
            cumulative_bits = np.asarray(cumulative_bits, dtype=float)
            if cumulative_bits.shape != (trace.num_intervals + 1,):
                raise ValueError(
                    f"cumulative_bits must have shape ({trace.num_intervals + 1},), "
                    f"got {cumulative_bits.shape}"
                )
            if cumulative_bits[0] != 0.0:
                raise ValueError("cumulative_bits must start at 0.0")
        self._cumulative_bits = cumulative_bits
        self._bits_per_period = float(self._cumulative_bits[-1])
        if self._bits_per_period <= 0:
            raise ValueError("trace delivers zero bits per period")
        self._num_intervals = int(trace.num_intervals)
        # Memoized crossing-interval hint for the fleet edge loop's
        # completion search (repro.fleet.sim): consecutive queries land
        # in the same trace interval far more often than not, so the
        # bisection is skipped whenever the cached index still brackets
        # the new target. Pure cache — a miss falls back to the exact
        # bisect_left.
        self._finish_hint = 0

    def _build_scalar_tables(self) -> list:
        """Build the scalar fast path's tables; returns the cumulative one.

        The same tables as Python floats: ``list.__getitem__`` and
        ``bisect`` on a list avoid ndarray indexing (which returns numpy
        scalars) and ufunc dispatch in the per-download hot loop. They
        are built on the link's first scalar query, so links that only
        feed the lockstep engine (which stacks the numpy tables) never
        pay for the copies. Plain attribute assignment, not
        ``functools.cached_property``: a class-level descriptor would
        keep CPython from specializing the hot reads, and writing
        through ``__dict__`` would slow every other attribute read on
        the link.
        """
        self._cumulative_list = self._cumulative_bits.tolist()
        self._rates_list = self.trace.throughputs_bps.tolist()
        return self._cumulative_list

    def bits_in_window(self, start_s: float, end_s: float) -> float:
        """Bits deliverable in ``[start_s, end_s)`` (periodic extension)."""
        check_non_negative(start_s, "start_s")
        if end_s < start_s:
            raise ValueError(f"end_s ({end_s}) must be >= start_s ({start_s})")
        return self._cumulative_at(end_s) - self._cumulative_at(start_s)

    def bits_in_windows(self, starts_s: np.ndarray, ends_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bits_in_window` over aligned start/end arrays.

        The numpy path for window queries: analysis code that scans many
        windows at once (bandwidth maps, fault audits) should use this
        instead of looping over the scalar API.
        """
        starts = np.asarray(starts_s, dtype=float)
        ends = np.asarray(ends_s, dtype=float)
        if starts.shape != ends.shape:
            raise ValueError(f"shape mismatch: {starts.shape} vs {ends.shape}")
        if starts.size and float(np.min(starts)) < 0:
            raise ValueError("starts_s must be non-negative")
        if np.any(ends < starts):
            raise ValueError("every end_s must be >= its start_s")
        return self._cumulative_at_array(ends) - self._cumulative_at_array(starts)

    def _cumulative_at(self, t_s: float) -> float:
        """Bits deliverable in [0, t_s), handling wrap-around."""
        if t_s < self._period_s:
            # divmod fast path: for 0 <= x < y, divmod(x, y) is exactly
            # (0.0, x) — fmod returns x unchanged — and queries rarely
            # outlive the trace period.
            periods = 0.0
            remainder = t_s
        else:
            periods, remainder = divmod(t_s, self._period_s)
            if remainder >= self._period_s:
                # Float divmod can return remainder == divisor (documented
                # quirk); fold it into one extra whole period.
                periods += 1.0
                remainder = 0.0
        index = remainder / self._interval
        whole = int(index)
        if whole >= self._num_intervals:
            # Period-boundary rounding can land the interval index on
            # (or past) the table edge; clamp and carry the overshoot
            # into the fraction so the value stays continuous.
            whole = self._num_intervals - 1
        frac = index - whole
        try:
            partial = self._cumulative_list[whole]
        except AttributeError:  # first scalar query on this link
            partial = self._build_scalar_tables()[whole]
        if frac > 0:
            partial += self._rates_list[whole] * frac * self._interval
        return periods * self._bits_per_period + partial

    def _cumulative_at_array(self, t_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_cumulative_at` (numpy path, same semantics)."""
        periods, remainder = np.divmod(t_s, self._period_s)
        wrap = remainder >= self._period_s
        if np.any(wrap):
            periods = periods + wrap
            remainder = np.where(wrap, 0.0, remainder)
        index = remainder / self._interval
        whole = np.minimum(index.astype(int), self._num_intervals - 1)
        frac = index - whole
        partial = self._cumulative_bits[whole] + np.where(
            frac > 0, self.trace.throughputs_bps[whole] * frac * self._interval, 0.0
        )
        return periods * self._bits_per_period + partial

    def download(self, size_bits: float, start_s: float) -> DownloadResult:
        """Download ``size_bits`` starting at ``start_s``; returns timing."""
        # Fast-accept validation: the comparisons reject NaN, infinity,
        # and out-of-range values in one branch; the helpers then re-raise
        # with the standard message on the (cold) failure path.
        if not 0.0 < size_bits < _INF:
            check_positive(size_bits, "size_bits")
        if not 0.0 <= start_s < _INF:
            check_non_negative(start_s, "start_s")
        target = self._cumulative_at(start_s) + size_bits

        if target < self._bits_per_period:
            # divmod fast path (see _cumulative_at).
            periods = 0.0
            within = target
        else:
            periods, within = divmod(target, self._bits_per_period)
        # Find the interval where the cumulative-bits table crosses
        # `within`. bisect_left gives earliest-crossing semantics (the
        # same index as np.searchsorted(..., side="left")): a download
        # whose last bit lands exactly on an outage boundary finishes
        # *before* the zero-rate run, not after it. (_cumulative_at above
        # has built the list tables.)
        index = bisect_left(self._cumulative_list, within) - 1
        if index < 0:
            index = 0
        elif index >= self._num_intervals:
            index = self._num_intervals - 1
        already = self._cumulative_list[index]
        rate = self._rates_list[index]
        if within <= already:
            # Crossed at (or before) this interval's start — only
            # reachable when `within` is exactly 0 after the divmod.
            offset = index * self._interval
        elif rate <= 0:
            # Zero-rate interval (real trace files and injected outages
            # contain zeros): no bits arrive here, skip to its end.
            offset = (index + 1) * self._interval
        else:
            offset = index * self._interval + (within - already) / rate
        finish_s = periods * self._period_s + offset
        if finish_s <= start_s:
            # Floor zero/negative durations (floating-point regression,
            # or a download so small the fluid integral rounds to zero
            # wall time): downstream rate math requires duration > 0.
            finish_s = start_s + max(
                size_bits / max(rate, 1.0), MIN_DOWNLOAD_DURATION_S
            )
            if finish_s <= start_s:  # addition underflow at large start_s
                finish_s = math.nextafter(start_s, _INF)
        return DownloadResult(start_s=start_s, finish_s=finish_s, size_bits=size_bits)

    def average_bandwidth(self, start_s: float, window_s: float) -> float:
        """Mean available bandwidth over ``[start_s, start_s + window_s)``.

        Used by oracle-style estimators (§6.7's controlled-error study
        perturbs the *true* bandwidth, so something must report it).
        """
        check_positive(window_s, "window_s")
        return self.bits_in_window(start_s, start_s + window_s) / window_s


class StackedLinks:
    """N trace links answering one download query per numpy op (lane-wise).

    The lockstep batch engine's data plane: the per-link cumulative-bits
    tables (possibly shared-memory views published by the sweep data
    plane) are stacked into one dense ``(rows, width)`` matrix, one row
    per link, padded with ``+inf`` so short rows never participate in
    the crossing search. ``rows`` maps each lane to the row it downloads
    over, so several lanes can stream one trace: the schemes of a sweep
    that share a lockstep slice give each trace one lane per scheme but
    one row. The default is one lane per link. ``download_finish`` then
    advances every lane with a handful of vectorized operations, so one
    call costs about the same at 2 lanes as at 64.

    **Bit-identity contract**: each lane's result is the exact double
    :meth:`TraceLink.download` over its row's link would produce. Every
    branch of the scalar path becomes a mask:

    - the wrap fold and interval split mirror ``_cumulative_at_array``
      (the scalar method's proven numpy twin);
    - ``bisect_left(cum_row, within)`` is the index of the first table
      entry not below ``within`` (left insertion point), found by one
      ``searchsorted`` over every row's table at once (see
      :meth:`_bisect_left`) — ``+inf`` padding is never below a finite
      target, so it never moves the result;
    - the three offset branches (already-crossed / zero-rate / fractional
      interval) select between expressions evaluated with the scalar
      path's operand order, with a guarded divisor so the masked-out
      division never warns;
    - the positive-duration floor and the ``nextafter`` underflow guard
      apply elementwise.

    Branches no lane takes cost no array op: a scalar pre-test on the
    extreme lane (``x[x.argmax()]``) rules them out first. No lane can
    wrap its period while the latest lane is short of the shortest
    period, and the fractional branch alone applies while every lane's
    target lies above its interval start and every crossing interval's
    rate is positive.

    Callers must uphold the engine's invariants: ``size_bits`` strictly
    positive and ``start_s`` finite and non-negative per lane (the
    session loop guarantees both), so the scalar path's fast-accept
    validation has no batch counterpart.
    """

    def __init__(
        self, links: Sequence[TraceLink], rows: Optional[Sequence[int]] = None
    ) -> None:
        if not links:
            raise ValueError("need at least one link")
        links = list(links)
        num_rows = len(links)
        if rows is None:
            rows = np.arange(num_rows)
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or not rows.size:
                raise ValueError("rows must map at least one lane")
            if rows.min() < 0 or rows.max() >= num_rows:
                raise ValueError(f"rows must lie in 0..{num_rows - 1}")
        self.lanes = len(rows)
        self.trace_names = [links[row].trace.name for row in rows.tolist()]
        # Per-lane constants: each row's value, gathered through the map.
        self._interval = np.array([link._interval for link in links])[rows]
        self._period_s = np.array([link._period_s for link in links])[rows]
        self._bits_per_period = np.array(
            [link._bits_per_period for link in links]
        )[rows]
        self._min_period_s = float(self._period_s.min())
        self._min_bits_per_period = float(self._bits_per_period.min())
        self._last_interval = np.array(
            [link._num_intervals - 1 for link in links], dtype=np.int64
        )[rows]
        # Row width: the longest table (num_intervals + 1 entries) plus
        # one +inf entry, so every row ends in +inf (see _bisect_left).
        width = max(link._num_intervals for link in links) + 2
        cum = np.full((num_rows, width), _INF)
        rates = np.zeros((num_rows, width))
        for j, link in enumerate(links):
            n_j = link._num_intervals
            cum[j, : n_j + 1] = link._cumulative_bits
            rates[j, :n_j] = link.trace.throughputs_bps
        # Flat tables + per-lane row offsets: ``take`` on a 1-D array is
        # measurably cheaper than a 2-D fancy gather on this hot path.
        self._cum_flat = cum.ravel()
        self._rates_flat = rates.ravel()
        self._row_offset = rows * width
        # The crossing search's keys: entry k of row j is the complex
        # number j + 1j * cum[j, k]. numpy orders complex numbers by real
        # part, then imaginary part, so the flat table is sorted (rows
        # ascend, each row is non-decreasing) and the query j + 1j * x
        # lands inside row j; no arithmetic touches the table values.
        self._keys = np.empty(num_rows * width, dtype=complex)
        self._keys.real = np.repeat(np.arange(num_rows, dtype=float), width)
        self._keys.imag = self._cum_flat
        self._queries = np.empty(self.lanes, dtype=complex)
        self._queries.real = rows

    def _bisect_left(self, within: np.ndarray) -> np.ndarray:
        """Per-lane ``bisect_left(cum_row, within)`` (left insertion point).

        ``bisect_left`` is the index of the first entry not below
        ``within``. ``searchsorted`` (left side) over the lexicographic
        keys returns the flat position of the first key not below
        ``r + 1j * within[j]``, where ``r`` is lane ``j``'s row: the
        first entry of row ``r`` not below ``within[j]``, and one always
        exists because every row ends in ``+inf``. The row offset turns
        it into the same exact integer the scalar ``bisect_left``
        returns.
        """
        queries = self._queries
        queries.imag = within
        return self._keys.searchsorted(queries) - self._row_offset

    def cumulative_at(self, t_s: np.ndarray) -> np.ndarray:
        """Per-lane bits deliverable in ``[0, t_s)``; mirrors the scalar
        ``_cumulative_at`` through the same expressions as the proven
        ``_cumulative_at_array`` twin, with per-lane tables.

        Like the scalar path, the period fold runs only when some lane
        has reached its period end: ``divmod(t, period)`` of a smaller
        non-negative ``t`` is exactly ``(0.0, t)``, and ``0.0 * bits +
        partial`` is ``partial``. The scalar path adds the partial
        interval only when ``frac > 0``; rates are finite and
        non-negative, so the product is exactly ``0.0`` when ``frac ==
        0`` and adding it leaves the table entry unchanged.
        """
        periods = None
        remainder = t_s
        if t_s[t_s.argmax()] >= self._min_period_s and np.count_nonzero(
            t_s >= self._period_s
        ):
            periods, remainder = np.divmod(t_s, self._period_s)
            wrap = remainder >= self._period_s
            if np.count_nonzero(wrap):
                periods = periods + wrap
                remainder = np.where(wrap, 0.0, remainder)
        index = remainder / self._interval
        whole = np.minimum(index.astype(np.int64), self._last_interval)
        frac = index - whole
        flat_idx = self._row_offset + whole
        partial = self._cum_flat.take(flat_idx) + (
            self._rates_flat.take(flat_idx) * frac * self._interval
        )
        if periods is None:
            return partial
        return periods * self._bits_per_period + partial

    def download_finish(self, size_bits: np.ndarray, start_s: np.ndarray) -> np.ndarray:
        """Per-lane finish time of downloading ``size_bits`` from ``start_s``."""
        target = self.cumulative_at(start_s) + size_bits
        # Same period fold as cumulative_at: skipped unless some lane's
        # target reaches a whole period.
        periods = None
        within = target
        if target[target.argmax()] >= self._min_bits_per_period and np.count_nonzero(
            target >= self._bits_per_period
        ):
            periods, within = np.divmod(target, self._bits_per_period)
        # The scalar path clamps the interval index into [0, n - 1]. Only
        # the lower clamp can bind: ``within`` never exceeds the row's
        # last finite entry (the whole-period total it was reduced by),
        # so at most n entries lie below it.
        index = np.maximum(self._bisect_left(within) - 1, 0)
        flat_idx = self._row_offset + index
        already = self._cum_flat.take(flat_idx)
        rate = self._rates_flat.take(flat_idx)
        interval_start = index * self._interval
        gap = within - already
        # For finite doubles a - b > 0 exactly when a > b, so a positive
        # smallest gap and a positive smallest rate leave every lane in
        # the fractional branch, with ``rate`` itself as the safe divisor.
        if gap[gap.argmin()] > 0.0 and rate[rate.argmin()] > 0.0:
            offset = interval_start + gap / rate
        else:
            rate_safe = np.where(rate > 0, rate, 1.0)
            offset = np.where(
                within <= already,
                interval_start,
                np.where(
                    rate <= 0,
                    (index + 1) * self._interval,
                    interval_start + gap / rate_safe,
                ),
            )
        finish_s = offset if periods is None else periods * self._period_s + offset
        floored = finish_s <= start_s
        if np.count_nonzero(floored):
            fallback = start_s + np.maximum(
                size_bits / np.maximum(rate, 1.0), MIN_DOWNLOAD_DURATION_S
            )
            finish_s = np.where(floored, fallback, finish_s)
            underflow = finish_s <= start_s
            if np.count_nonzero(underflow):
                finish_s = np.where(
                    underflow, np.nextafter(start_s, _INF), finish_s
                )
        return finish_s
