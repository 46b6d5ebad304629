"""MPC and RobustMPC (Yin et al. [47]), run VBR-aware per §6.1.

Every chunk, MPC plans the next N chunks: for each candidate level
sequence it rolls the buffer forward under the predicted bandwidth using
the chunks' **actual sizes** (the paper's recommended VBR treatment) and
maximizes the standard QoE objective

    sum_k  q(l_k)  -  lambda * |q(l_k) - q(l_{k-1})|  -  mu * rebuffer,

with ``q`` the declared average bitrate of the track in Mbps (the
bitrate-utility instantiation of the MPC paper), ``lambda = 1`` and
``mu`` a large rebuffer penalty. Only the first step of the best plan is
executed.

**RobustMPC** additionally tracks the recent relative prediction error
and divides the bandwidth prediction by ``1 + max recent error`` — the
conservative correction that makes it stall far less than plain MPC
under volatile bandwidth (and why §6.3 compares CAVA against RobustMPC
rather than MPC).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.abr.base import (
    ABRAlgorithm,
    BatchDecider,
    BatchDecisionContext,
    DecisionContext,
)
from repro.abr.horizon import (
    HorizonPlanner,
    SparsePlanRollout,
    horizon_sizes,
    level_sequences,
    plan_level_digits,
    plan_stall_free,
    planner_for,
)
from repro.util.validation import check_non_negative, check_positive
from repro.video.model import Manifest

__all__ = ["MPCAlgorithm", "RobustMPCAlgorithm"]


@lru_cache(maxsize=64)
def _score_rows(
    utilities_key: Tuple[float, ...], smoothness_weight: float, h: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First levels and bandwidth-independent base score rows of every plan.

    Row ``p < L`` is ``utility - w * (|u[l0] - u[p]| + steps)`` over the
    plans of :func:`level_sequences` for previous level ``p``; row ``L``
    is the chunk-0 row, with no previous level and so no switch cost. A
    decision scores ``row - mu * rebuffer``. The scalar argmax, the
    batch decider and :func:`_survivor_plans` all read these exact rows.

    Cached by value: sweeps build a fresh MPC per session over equal
    ladders, and the tables depend on nothing else.
    """
    utilities = np.asarray(utilities_key)
    sequences = level_sequences(utilities.shape[0], h)
    first = sequences[:, 0]
    utility = utilities[sequences].sum(axis=1)
    if h > 1:
        steps = np.abs(np.diff(utilities[sequences], axis=1)).sum(axis=1)
    else:
        steps = 0.0
    smooth = np.vstack(
        [np.abs(utilities[first] - utilities[:, None]), np.zeros(first.shape)]
    )
    rows = utility - smoothness_weight * (smooth + steps)
    rows.setflags(write=False)
    return first, rows


@lru_cache(maxsize=32)
def _survivor_plans(
    utilities_key: Tuple[float, ...], smoothness_weight: float, h: int
) -> np.ndarray:
    """Plans that can win MPC's argmax under level-monotone chunk sizes.

    Under base row ``r`` (one of :func:`_score_rows`), plan B is
    *dominated* by plan A when they start at the same level, A's later
    levels are componentwise <= B's, ``r[A] >= r[B]`` and A's plan index
    is smaller. When chunk sizes are nondecreasing in level at every
    step of the window, A's per-step download times are componentwise
    <= B's, so A rebuffers no more than B (the ``max``/``+``/``-``
    recurrence is monotone operation-by-operation under IEEE rounding),
    and ``r[A] - mu * reb[A] >= r[B] - mu * reb[B]`` is again monotone
    rounding. So a plan dominated under ``r`` cannot be the *first*
    argmax of the scores built on ``r``: A scores at least as high with
    a smaller index.

    A plan survives if no row dominates it, in at least one row. The
    first argmax under every row therefore survives, and the argmax
    over the ascending survivor set keeps the first-occurrence
    tie-break bitwise. Dominance is decided on the exact rows the
    scores use: rows that are equal in real arithmetic round apart by
    an ulp, so one shared formula for all rows would prune true
    argmaxes.

    The set depends only on the utility vector, the smoothness weight,
    and the horizon — not on the chunk index — so one table (about a
    fifth of ``L**h`` for the paper's ladders) serves every decision.
    Callers must verify the per-window size monotonicity precondition
    and fall back to the dense trellis where it fails.
    """
    first, rows = _score_rows(utilities_key, smoothness_weight, h)
    num_levels = len(utilities_key)
    tails = level_sequences(num_levels, h)[:, 1:]
    alive = np.zeros(first.shape[0], dtype=bool)
    block = 512
    for level in range(num_levels):
        idx = np.nonzero(first == level)[0]
        group_tails = tails[idx]
        group_rows = rows[:, idx]
        for start in range(0, idx.size, block):
            blk = slice(start, start + block)
            candidates = (group_tails[:, None, :] <= group_tails[None, blk, :]).all(
                axis=2
            ) & (idx[:, None] < idx[None, blk])
            for row in group_rows:
                dominated = (candidates & (row[:, None] >= row[None, blk])).any(axis=0)
                alive[idx[blk]] |= ~dominated
    plans = np.nonzero(alive)[0]
    plans.setflags(write=False)
    return plans


class MPCAlgorithm(ABRAlgorithm):
    """Model-predictive rate adaptation with exhaustive N-step lookahead.

    The per-decision cost is dominated by the buffer rollout, delegated
    to the shared one-lane :class:`~repro.abr.horizon.HorizonPlanner`
    of :func:`~repro.abr.horizon.planner_for` — the same trellis the
    batch decider rolls over many lanes. The
    bandwidth-independent score terms — per-sequence utility, internal
    smoothness steps, and the first-step switch cost against each
    possible previous level — are precomputed per (ladder, smoothness
    weight, effective horizon) by :func:`_score_rows` and cached, so a
    decision reduces to one trellis rollout plus ``score = base - mu *
    rebuffer`` and an argmax. Every cached row is built with the exact
    numpy expressions of the original per-sequence formulation, so
    scores (and argmax ties, resolved to the lexicographically smallest
    sequence) are bit-identical.
    """

    name = "MPC"

    def __init__(
        self,
        horizon: int = 5,
        smoothness_weight: float = 1.0,
        rebuffer_penalty_per_s: float = 10.0,
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        check_non_negative(smoothness_weight, "smoothness_weight")
        check_positive(rebuffer_penalty_per_s, "rebuffer_penalty_per_s")
        self.horizon = horizon
        self.smoothness_weight = smoothness_weight
        self.rebuffer_penalty_per_s = rebuffer_penalty_per_s

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        self._utilities_key = tuple(manifest.declared_avg_bitrates_bps / 1e6)
        self._planner = planner_for(manifest.num_tracks, self.horizon)

    def _score_rows(self, h: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(first levels, base rows)`` for effective horizon ``h``.

        ``h`` is shorter than ``self.horizon`` only for the truncated
        tails at video end, so at most ``horizon`` tables exist per
        (ladder, smoothness weight).
        """
        return _score_rows(self._utilities_key, self.smoothness_weight, h)

    def _predicted_bandwidth(self, ctx: DecisionContext) -> float:
        return ctx.bandwidth_bps

    def select_level(self, ctx: DecisionContext) -> int:
        manifest = self.manifest
        sizes = horizon_sizes(manifest, ctx.chunk_index, self.horizon)
        h = sizes.shape[1]
        first, rows = self._score_rows(h)
        bandwidth = max(self._predicted_bandwidth(ctx), 1_000.0)

        rebuffer = self._planner.rollout_rebuffer(
            sizes,
            np.array([bandwidth], dtype=float),
            np.array([ctx.buffer_s], dtype=float),
            manifest.chunk_duration_s,
        )
        row = manifest.num_tracks if ctx.last_level is None else ctx.last_level
        score = rows[row] - self.rebuffer_penalty_per_s * rebuffer[0]
        best = int(np.argmax(score))
        return int(first[best])

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        if type(self) is not MPCAlgorithm:
            return None
        return _BatchMpcDecider(self, manifest, lanes)


class RobustMPCAlgorithm(MPCAlgorithm):
    """MPC with the max-recent-error bandwidth discount of [47]."""

    name = "RobustMPC"

    def __init__(
        self,
        horizon: int = 5,
        smoothness_weight: float = 1.0,
        rebuffer_penalty_per_s: float = 10.0,
        error_window: int = 5,
    ) -> None:
        super().__init__(horizon, smoothness_weight, rebuffer_penalty_per_s)
        if error_window < 1:
            raise ValueError(f"error_window must be >= 1, got {error_window}")
        self.error_window = error_window
        self._errors: Deque[float] = deque(maxlen=error_window)
        self._pending_prediction: Optional[float] = None

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        self._errors.clear()
        self._pending_prediction = None

    def _predicted_bandwidth(self, ctx: DecisionContext) -> float:
        discount = 1.0 + (max(self._errors) if self._errors else 0.0)
        robust = ctx.bandwidth_bps / discount
        self._pending_prediction = ctx.bandwidth_bps
        return robust

    def notify_download(
        self,
        chunk_index: int,
        level: int,
        size_bits: float,
        download_s: float,
        buffer_s: float,
        now_s: float,
    ) -> None:
        if self._pending_prediction is None or download_s <= 0:
            return
        actual = size_bits / download_s
        error = abs(self._pending_prediction - actual) / max(actual, 1.0)
        self._errors.append(error)
        self._pending_prediction = None

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        if type(self) is not RobustMPCAlgorithm:
            return None
        return _BatchRobustMpcDecider(self, manifest, lanes)


class _BatchMpcDecider(BatchDecider):
    """Vectorized MPC: one batched trellis rollout plus a per-lane gather
    of the cached bandwidth-independent score rows.

    :func:`_score_rows` stacks one base row per previous level plus the
    chunk-0 row into an ``(L + 1, L^h)`` matrix, so ``rows[row_of]``
    hands every lane the exact row the scalar ``select_level`` reads.
    ``np.argmax(..., axis=1)`` keeps the scalar first-occurrence
    tie-break per lane.

    Best-plan fast path: per lane, simulate only the cached first-argmax
    plan of the lane's base row (``p*``). When :func:`plan_stall_free`
    proves it stall-free, ``p*`` wins the full argmax outright — every
    plan's score is bounded by its base (``rebuffer >= 0``), plans
    before ``p*`` have *strictly* smaller base (``p*`` is the first
    argmax), and ``score[p*] = base[p*] - penalty * 0.0 == base[p*]``
    bitwise — so the first-occurrence ``np.argmax`` over scores lands on
    ``p*`` exactly. Only lanes whose best-base plan would stall — the
    cases where MPC actually has a trade-off to weigh — pay for a
    rollout.

    Survivor pruning: those risky lanes normally roll only the plans of
    :func:`_survivor_plans` through a
    :class:`~repro.abr.horizon.SparsePlanRollout`. Each pruned plan is
    dominated under every base row's exact scores by a plan with a
    smaller index that rebuffers no more, so it can never be the first
    argmax, and the survivors contain the winner with its tie-break.
    The precondition — chunk sizes nondecreasing in level at every step
    of the window — is checked once per manifest; the rare non-monotone
    windows take the full ``(lanes, L^h)`` rollout instead, on the
    planner's leading scratch rows.
    """

    def __init__(self, algorithm: MPCAlgorithm, manifest: Manifest, lanes: int) -> None:
        algorithm.prepare(manifest)
        self._algorithm = algorithm
        self._manifest = manifest
        self._planner = HorizonPlanner(lanes, manifest.num_tracks, algorithm.horizon)
        self._best: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # Running count of chunks whose sizes are NOT nondecreasing in
        # level: a window is survivor-safe iff its count is flat.
        mono = (np.diff(manifest.chunk_sizes_bits, axis=0) >= 0).all(axis=0)
        self._mono_bad = np.cumsum(~mono)
        self._sparse: Dict[int, Tuple[np.ndarray, np.ndarray, SparsePlanRollout]] = {}

    def _window_monotone(self, index: int, h: int) -> bool:
        prior = self._mono_bad[index - 1] if index else 0
        return bool(self._mono_bad[index + h - 1] == prior)

    def _best_plans(self, h: int, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per base row: the first argmax ``p*`` and its ``(h,)`` levels."""
        best = self._best.get(h)
        if best is None:
            argbest = np.argmax(rows, axis=1)
            best = (argbest, plan_level_digits(argbest, self._manifest.num_tracks, h))
            self._best[h] = best
        return best

    def _sparse_for(
        self, h: int, first: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, SparsePlanRollout]:
        """Survivors' first levels, base rows and rollout for horizon ``h``."""
        sparse = self._sparse.get(h)
        if sparse is None:
            algorithm = self._algorithm
            plans = _survivor_plans(
                algorithm._utilities_key, algorithm.smoothness_weight, h
            )
            rollout = SparsePlanRollout(
                self._planner.lanes, self._manifest.num_tracks, h, plans
            )
            sparse = (first[plans], rows[:, plans], rollout)
            self._sparse[h] = sparse
        return sparse

    def _bandwidth_bps(self, ctx: BatchDecisionContext) -> np.ndarray:
        return ctx.bandwidth_bps

    def select_levels(self, ctx: BatchDecisionContext) -> np.ndarray:
        algorithm = self._algorithm
        manifest = self._manifest
        sizes = horizon_sizes(manifest, ctx.chunk_index, algorithm.horizon)
        h = sizes.shape[1]
        first, rows = algorithm._score_rows(h)
        bandwidth = np.maximum(self._bandwidth_bps(ctx), 1_000.0)
        lanes = bandwidth.shape[0]
        row_of = ctx.last_levels
        if row_of is None:  # chunk 0: every lane scores on the last row
            row_of = np.full(lanes, manifest.num_tracks)

        argbest, digits = self._best_plans(h, rows)
        safe = plan_stall_free(
            sizes[digits[row_of], np.arange(h)],
            bandwidth,
            ctx.buffer_s,
            manifest.chunk_duration_s,
        )
        levels = first[argbest[row_of]]
        if safe.all():
            return levels

        # Risky lanes: the full batch needs no gather.
        sub = slice(None) if not safe.any() else np.nonzero(~safe)[0]
        if self._window_monotone(ctx.chunk_index, h):
            # Survivor path: argmax over the ascending survivors selects
            # the same plan (and tie-break) as the full argmax — see
            # _survivor_plans.
            first, rows, rollout = self._sparse_for(h, first, rows)
        else:
            rollout = self._planner
        rebuffer = rollout.rollout_rebuffer(
            sizes, bandwidth[sub], ctx.buffer_s[sub], manifest.chunk_duration_s
        )
        score = rows[row_of[sub]] - algorithm.rebuffer_penalty_per_s * rebuffer
        levels[sub] = first[np.argmax(score, axis=1)]
        return levels


class _BatchRobustMpcDecider(_BatchMpcDecider):
    """Vectorized RobustMPC: the error history becomes an ``(lanes,
    window)`` ring with a uniform fill count (lockstep lanes observe one
    download per chunk), so the max-recent-error discount is a row-wise
    max over the filled columns — order-insensitive, hence identical to
    the scalar deque max."""

    def __init__(
        self, algorithm: RobustMPCAlgorithm, manifest: Manifest, lanes: int
    ) -> None:
        super().__init__(algorithm, manifest, lanes)
        self._errors = np.empty((lanes, algorithm.error_window))
        self._error_count = 0
        self._error_pos = 0
        self._pending_prediction: Optional[np.ndarray] = None

    def _bandwidth_bps(self, ctx: BatchDecisionContext) -> np.ndarray:
        bandwidth = ctx.bandwidth_bps
        if self._error_count:
            discount = 1.0 + np.max(self._errors[:, : self._error_count], axis=1)
        else:
            # Scalar: 1.0 + 0.0; division by exactly 1.0 is the identity.
            discount = 1.0
        robust = bandwidth / discount
        self._pending_prediction = bandwidth
        return robust

    def notify_downloads(
        self,
        chunk_index: int,
        levels: np.ndarray,
        sizes_bits: np.ndarray,
        download_s: np.ndarray,
        buffer_s: np.ndarray,
        now_s: np.ndarray,
    ) -> None:
        # The scalar guard also skips download_s <= 0, but TraceLink
        # (and StackedLinks) guarantee strictly positive durations, so
        # the batch skip condition stays uniform across lanes.
        if self._pending_prediction is None:
            return
        actual = sizes_bits / download_s
        error = np.abs(self._pending_prediction - actual) / np.maximum(actual, 1.0)
        window = self._errors.shape[1]
        self._errors[:, self._error_pos] = error
        self._error_pos = (self._error_pos + 1) % window
        if self._error_count < window:
            self._error_count += 1
        self._pending_prediction = None
