"""PANDA/CQ (Li et al. [23]): quality-aware windowed optimization.

PANDA/CQ assumes the server exposes **per-chunk quality values** — extra
support that today's DASH/HLS pipelines lack (§6.1) — and plans over a
window of N future chunks using those values directly:

- **max-sum** maximizes the *sum* of quality over the window (average
  quality, tolerating occasional bad chunks);
- **max-min** maximizes the *minimum* quality over the window (protects
  the worst chunk — which is why it treats Q4 chunks better than
  max-sum, §6.3).

Both are subject to not stalling: candidate plans are rolled forward
under the predicted bandwidth with actual chunk sizes, and any plan that
rebuffers is penalized out unless every plan rebuffers. Like MPC, only
the first step of the winning plan is committed.

The quality metric the optimizer consumes is configurable; the
evaluation uses the viewing-appropriate VMAF model (phone for LTE, TV
for FCC), giving PANDA/CQ its best case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, BatchDecider, BatchDecisionContext, DecisionContext
from repro.abr.horizon import (
    HorizonPlanner,
    horizon_sizes,
    level_sequences,
    plan_level_digits,
    plan_rebuffers,
    plan_stall_free,
    planner_for,
)
from repro.util.pinned import PinnedMemo
from repro.util.validation import check_positive
from repro.video.model import Manifest

__all__ = ["PandaCQAlgorithm"]

#: Lane-independent per-chunk plan tables (max-min threshold candidates,
#: max-sum objective rankings), shared across the batch deciders of
#: every lane slice and session over the same manifest. Capacity is
#: small because the ranked tables are the largest caches in the
#: planning stack (~100 KB per chunk); sweeps visit videos sequentially,
#: so two pinned manifests cover the steady state.
_PLAN_TABLES = PinnedMemo(capacity=2)


def _window_objective(quality: np.ndarray, objective: str) -> np.ndarray:
    """Objective of every plan over one window, shape ``(L**h,)``.

    ``quality`` is the window's ``(L, h)`` per-(level, step) quality.
    The objective never reads bandwidth or buffer, so one vector serves
    every lane and every start buffer. It folds step by step over the
    shared-prefix layout of :func:`~repro.abr.horizon.level_sequences`
    (child ``parent * L + level``): the running sum reproduces numpy's
    sequential left fold ``gathered.sum(axis=1)`` over the ``h`` (< 8)
    window columns, and the running minimum is order-insensitive — both
    bit-identical to gathering the ``(L**h, h)`` plan-quality matrix and
    reducing it. max-min scales by ``h`` to be comparable to a sum.
    """
    fold = np.add if objective == "max-sum" else np.minimum
    h = quality.shape[1]
    acc = quality[:, 0]
    for k in range(1, h):
        acc = fold(acc[:, None], quality[:, k]).ravel()
    return acc if objective == "max-sum" else acc * h


class PandaCQAlgorithm(ABRAlgorithm):
    """Windowed quality optimization; ``objective`` is 'max-sum' or 'max-min'."""

    def __init__(
        self,
        objective: str = "max-min",
        metric: str = "vmaf_phone",
        horizon: int = 5,
        rebuffer_penalty_per_s: float = 100.0,
    ) -> None:
        if objective not in ("max-sum", "max-min"):
            raise ValueError(f"objective must be 'max-sum' or 'max-min', got {objective!r}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        check_positive(rebuffer_penalty_per_s, "rebuffer_penalty_per_s")
        self.objective = objective
        self.metric = metric
        self.horizon = horizon
        self.rebuffer_penalty_per_s = rebuffer_penalty_per_s
        self.name = f"PANDA/CQ {objective}"

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        if not manifest.has_quality:
            raise ValueError(
                "PANDA/CQ requires per-chunk quality in the manifest; build it "
                "with video.manifest(include_quality=True)"
            )
        if self.metric not in manifest.quality:
            raise KeyError(
                f"manifest lacks quality metric {self.metric!r}; "
                f"available: {sorted(manifest.quality)}"
            )
        self._quality = manifest.quality[self.metric]
        self._planner = planner_for(manifest.num_tracks, self.horizon)

    def _objective(self, i: int, h: int) -> np.ndarray:
        """:func:`_window_objective` of the window at chunk ``i``."""
        return _window_objective(self._quality[:, i : i + h], self.objective)

    def select_level(self, ctx: DecisionContext) -> int:
        manifest = self.manifest
        i = ctx.chunk_index
        sizes = horizon_sizes(manifest, i, self.horizon)
        h = sizes.shape[1]
        bandwidth = max(ctx.bandwidth_bps, 1_000.0)

        rebuffer = self._planner.rollout_rebuffer(
            sizes,
            np.array([bandwidth], dtype=float),
            np.array([ctx.buffer_s], dtype=float),
            manifest.chunk_duration_s,
        )
        score = self._objective(i, h) - self.rebuffer_penalty_per_s * rebuffer[0]
        best = int(np.argmax(score))
        return int(level_sequences(manifest.num_tracks, h)[best, 0])

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        if type(self) is not PandaCQAlgorithm:
            return None
        return _BatchPandaDecider(self, manifest, lanes)


#: Max-sum ranked scan: evaluate at most this many plans exactly, in
#: descending-objective order, before falling back to the full trellis
#: for still-unresolved lanes. The measured first-safe-rank distribution
#: has p50 ~= 36 with a heavy tail, so a few hundred ranks resolve the
#: bulk of decisions at a fraction of the ``L**h`` rollout.
_SCAN_RANK_CAP = 1536
_SCAN_BLOCK = 512


class _BatchPandaDecider(BatchDecider):
    """Vectorized PANDA/CQ with lane-independent plan shortlists.

    The quality objective never reads bandwidth or buffer, so the
    objective vector is shared by every lane and per-chunk plan
    structure can be precomputed once. ``score = objective - mu *
    rebuffer`` with ``rebuffer >= 0`` then bounds every plan's score by
    its objective, which supports three exact shortcuts (each preserving
    the scalar first-occurrence argmax tie-break bitwise):

    - **max-min candidates**: when quality and sizes are nondecreasing
      in level over the window, the winner is always among the <=
      ``L * h`` *threshold candidates* — for each distinct quality value
      ``t`` in the window, the componentwise-smallest plan whose every
      step has quality >= ``t``. Any plan ``p`` is dominated by the
      candidate at its own window-minimum quality: componentwise <=
      levels mean a <= plan index, <= download times, <= rebuffer, and a
      >= objective, hence a >= score for every lane. Evaluating the
      candidates exactly (:func:`plan_rebuffers`) and taking the first
      max attainer in ascending plan order reproduces the full argmax.
    - **max-sum ranked scan**: plans are pre-sorted by (objective
      descending, plan index ascending — a stable argsort). A lane is
      *resolved* once some evaluated rank is stall-free (score equals
      its objective exactly) and that rank's objective tie-run is fully
      evaluated: every later plan has a strictly smaller objective,
      hence a strictly smaller score. The running (max score, min plan
      index attainer) over the evaluated prefix is then the full
      argmax. Lanes not resolved within :data:`_SCAN_RANK_CAP` ranks
      take the full trellis rollout. No monotonicity precondition.
    - **best-plan gate** (max-sum fast path): rank 0 is the objective
      argmax ``p*``; a lane where :func:`plan_stall_free` proves ``p*``
      stall-free needs no scan at all.

    Non-monotone windows under max-min fall back to the dense path:
    the ``p*`` gate plus one batched trellis rollout scored against the
    shared :func:`_window_objective` and a per-lane argmax."""

    def __init__(
        self, algorithm: PandaCQAlgorithm, manifest: Manifest, lanes: int
    ) -> None:
        algorithm.prepare(manifest)
        self._algorithm = algorithm
        self._manifest = manifest
        self._planner = HorizonPlanner(lanes, manifest.num_tracks, algorithm.horizon)
        self._best_plans: dict = {}
        # Running count of chunks where either sizes or quality are NOT
        # nondecreasing in level: a window admits the max-min candidate
        # shortcut iff its count is flat.
        mono = (np.diff(manifest.chunk_sizes_bits, axis=0) >= 0).all(axis=0) & (
            np.diff(algorithm._quality, axis=0) >= 0
        ).all(axis=0)
        self._mono_bad = np.cumsum(~mono)

    def _window_monotone(self, index: int, h: int) -> bool:
        prior = self._mono_bad[index - 1] if index else 0
        return bool(self._mono_bad[index + h - 1] == prior)

    def _candidates_for(self, i: int, sizes: np.ndarray, h: int) -> dict:
        """Threshold-candidate table for max-min at chunk ``i``."""

        def build() -> dict:
            num_levels = self._manifest.num_tracks
            quality = self._algorithm._quality[:, i : i + h]
            plan_set = set()
            for threshold in np.unique(quality):
                # Columns are sorted (monotone window), so the count of
                # levels below the threshold is the first level at or
                # above it.
                levels = (quality < threshold).sum(axis=0)
                if int(levels.max()) < num_levels:
                    index = 0
                    for k in range(h):
                        index = index * num_levels + int(levels[k])
                    plan_set.add(index)
            plans = np.array(sorted(plan_set), dtype=np.int64)
            digits = plan_level_digits(plans, num_levels, h)
            return {
                "plans": plans,
                "first": digits[:, 0],
                "objective": self._algorithm._objective(i, h)[plans],
                "seq_sizes": sizes[digits, np.arange(h)],
            }

        key = ("max-min", self._algorithm.metric, i, h)
        return _PLAN_TABLES.get(self._manifest, key, build)

    def _scan_for(self, i: int, sizes: np.ndarray, h: int) -> dict:
        """Descending-objective rank table for max-sum at chunk ``i``."""

        def build() -> dict:
            num_levels = self._manifest.num_tracks
            objective = self._algorithm._objective(i, h)
            order = np.argsort(-objective, kind="stable")
            obj_sorted = objective[order]
            total = order.shape[0]
            # Last rank of each objective tie-run (stable sort keeps
            # runs contiguous with ascending plan indices).
            boundary = np.nonzero(np.diff(obj_sorted) != 0)[0]
            ends = np.append(boundary, total - 1)
            starts = np.append(0, boundary + 1)
            last = np.repeat(ends, ends - starts + 1)
            rank_cap = min(_SCAN_RANK_CAP, total)
            digits = plan_level_digits(order[:rank_cap], num_levels, h)
            steps = np.arange(h)
            return {
                "plans": order[:rank_cap].astype(np.int64),
                "objective": obj_sorted[:rank_cap].copy(),
                "last": last[:rank_cap],
                "first": digits[:, 0],
                "seq_sizes": sizes[digits, steps],
            }

        key = ("max-sum", self._algorithm.metric, i, h, _SCAN_RANK_CAP)
        return _PLAN_TABLES.get(self._manifest, key, build)

    def _best_plan(self, i: int, h: int):
        """``(p*, its level digits)`` for chunk ``i`` — lane-independent."""
        cached = self._best_plans.get(i)
        if cached is None:
            best = int(np.argmax(self._algorithm._objective(i, h)))
            digits = plan_level_digits(best, self._manifest.num_tracks, h)
            cached = (best, digits)
            self._best_plans[i] = cached
        return cached

    def select_levels(self, ctx: BatchDecisionContext) -> np.ndarray:
        algorithm = self._algorithm
        manifest = self._manifest
        i = ctx.chunk_index
        sizes = horizon_sizes(manifest, i, algorithm.horizon)
        h = sizes.shape[1]
        bandwidth = np.maximum(ctx.bandwidth_bps, 1_000.0)
        if algorithm.objective == "max-sum":
            return self._select_max_sum(ctx, i, sizes, h, bandwidth)
        if self._window_monotone(i, h):
            return self._select_max_min(ctx, i, sizes, h, bandwidth)
        return self._select_dense(ctx, i, sizes, h, bandwidth)

    def _select_max_min(
        self,
        ctx: BatchDecisionContext,
        i: int,
        sizes: np.ndarray,
        h: int,
        bandwidth: np.ndarray,
    ) -> np.ndarray:
        cand = self._candidates_for(i, sizes, h)
        rebuffer = plan_rebuffers(
            cand["seq_sizes"],
            bandwidth,
            ctx.buffer_s,
            self._manifest.chunk_duration_s,
        )
        score = cand["objective"][None, :] - (
            self._algorithm.rebuffer_penalty_per_s * rebuffer
        )
        winners = score == score.max(axis=1)[:, None]
        # Candidates are in ascending plan order, so the first winner is
        # the minimum-index max attainer — the scalar argmax tie-break.
        return cand["first"][np.argmax(winners, axis=1)]

    def _select_max_sum(
        self,
        ctx: BatchDecisionContext,
        i: int,
        sizes: np.ndarray,
        h: int,
        bandwidth: np.ndarray,
    ) -> np.ndarray:
        algorithm = self._algorithm
        manifest = self._manifest
        lanes = bandwidth.shape[0]
        scan = self._scan_for(i, sizes, h)

        seq_sizes = np.broadcast_to(scan["seq_sizes"][0], (lanes, h))
        safe = plan_stall_free(
            seq_sizes, bandwidth, ctx.buffer_s, manifest.chunk_duration_s
        )
        if safe.all():
            return np.full(lanes, scan["first"][0])

        risky = ~safe
        sub = slice(None) if risky.all() else np.nonzero(risky)[0]
        bw_sub = bandwidth[sub]
        buf_sub = ctx.buffer_s[sub]
        nsub = bw_sub.shape[0]

        # A lane leaves the scan the moment it resolves — its running
        # (max score, min plan index) can no longer change, see the
        # class docstring — so later, rarely-needed blocks touch only
        # the hard lanes.
        levels_sub = np.empty(nsub, dtype=np.int64)
        active = np.arange(nsub)
        best_score = np.full(nsub, -np.inf)
        best_plan = np.zeros(nsub, dtype=np.int64)
        safe_rank = np.full(nsub, -1, dtype=np.int64)
        huge = np.iinfo(np.int64).max
        rank_cap = scan["plans"].shape[0]
        for start in range(0, rank_cap, _SCAN_BLOCK):
            if not active.size:
                break
            stop = min(start + _SCAN_BLOCK, rank_cap)
            rebuffer = plan_rebuffers(
                scan["seq_sizes"][start:stop],
                bw_sub[active],
                buf_sub[active],
                manifest.chunk_duration_s,
            )
            score = scan["objective"][start:stop][None, :] - (
                algorithm.rebuffer_penalty_per_s * rebuffer
            )
            block_max = score.max(axis=1)
            block_plan = np.where(
                score == block_max[:, None], scan["plans"][start:stop][None, :], huge
            ).min(axis=1)
            running_score = best_score[active]
            running_plan = best_plan[active]
            improve = block_max > running_score
            tie = block_max == running_score
            running_plan = np.where(
                improve,
                block_plan,
                np.where(tie, np.minimum(running_plan, block_plan), running_plan),
            )
            running_score = np.maximum(running_score, block_max)
            rank = safe_rank[active]
            free = rebuffer == 0.0
            newly = free.any(axis=1) & (rank < 0)
            rank = np.where(newly, start + np.argmax(free, axis=1), rank)
            best_score[active] = running_score
            best_plan[active] = running_plan
            safe_rank[active] = rank
            resolved = (rank >= 0) & (scan["last"][rank] < stop)
            if resolved.any():
                done = active[resolved]
                levels_sub[done] = best_plan[done] // manifest.num_tracks ** (h - 1)
                active = active[~resolved]
        if active.size:
            rebuffer = self._planner.rollout_rebuffer(
                sizes, bw_sub[active], buf_sub[active], manifest.chunk_duration_s
            )
            score = algorithm._objective(i, h) - (
                algorithm.rebuffer_penalty_per_s * rebuffer
            )
            levels_sub[active] = level_sequences(manifest.num_tracks, h)[
                np.argmax(score, axis=1), 0
            ]
        if isinstance(sub, slice):
            return levels_sub
        levels = np.empty(lanes, dtype=np.int64)
        levels[sub] = levels_sub
        levels[safe] = scan["first"][0]
        return levels

    def _select_dense(
        self,
        ctx: BatchDecisionContext,
        i: int,
        sizes: np.ndarray,
        h: int,
        bandwidth: np.ndarray,
    ) -> np.ndarray:
        algorithm = self._algorithm
        manifest = self._manifest
        first = level_sequences(manifest.num_tracks, h)[:, 0]
        lanes = bandwidth.shape[0]

        best_plan, digits = self._best_plan(i, h)
        seq_sizes = np.broadcast_to(sizes[digits, np.arange(h)], (lanes, h))
        safe = plan_stall_free(
            seq_sizes, bandwidth, ctx.buffer_s, manifest.chunk_duration_s
        )
        if safe.all():
            return np.full(lanes, first[best_plan])

        risky = ~safe
        sub = slice(None) if risky.all() else np.nonzero(risky)[0]
        rebuffer = self._planner.rollout_rebuffer(
            sizes, bandwidth[sub], ctx.buffer_s[sub], manifest.chunk_duration_s
        )
        score = algorithm._objective(i, h) - (
            algorithm.rebuffer_penalty_per_s * rebuffer
        )
        sub_best = np.argmax(score, axis=1)
        if isinstance(sub, slice):
            return first[sub_best]
        levels = np.empty(lanes, dtype=first.dtype)
        levels[sub] = first[sub_best]
        levels[safe] = first[best_plan]
        return levels
