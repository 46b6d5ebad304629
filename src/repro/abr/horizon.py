"""Shared machinery for finite-horizon lookahead schemes.

MPC/RobustMPC and PANDA/CQ all solve, every chunk, a small planning
problem over the next N chunks: enumerate candidate level sequences,
simulate the buffer forward under predicted bandwidth using the *actual*
per-chunk sizes (the VBR-aware way the paper runs these baselines, §6.1),
score each candidate, and commit only the first decision.

For N = 5 and 6 tracks the full space is 6^5 = 7776 sequences; we
enumerate it exactly but never materialize per-sequence work. All 7776
sequences share prefixes, so :class:`HorizonPlanner` rolls the buffer
forward level-by-level over a **trellis**: depth ``k`` holds one state
per length-``k`` prefix (``L^k`` states), and expanding a prefix by one
level costs a broadcasted ``(L^k, L)`` operation. Per decision that is
``L + L^2 + ... + L^h`` elements of arithmetic instead of ``L^h * h``,
and — because every elementwise operation is applied to the same operand
values in the same order as the flat per-sequence rollout —
the leaf results are **bit-identical** to simulating each sequence
independently. That flat rollout, ``simulate_buffer``, is kept in
``tests/abr/reference.py``, where the trellis tests pin every lane row
to it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.video.model import Manifest

__all__ = [
    "level_sequences",
    "horizon_sizes",
    "HorizonPlanner",
    "planner_for",
    "plan_level_digits",
    "plan_stall_free",
    "plan_rebuffers",
    "build_plan_trie",
    "SparsePlanRollout",
]


def plan_level_digits(plans, num_levels: int, h: int) -> np.ndarray:
    """Level sequence(s) of trellis plan index(es), shape ``(..., h)``.

    The trellis encodes a child as ``parent * L + level`` (C-order
    reshape), so a leaf index *is* its level sequence in base ``L`` with
    the most significant digit at step 0 — the same order
    :func:`level_sequences` enumerates. Accepts a scalar plan index or
    an array of them.
    """
    plans = np.asarray(plans)
    powers = num_levels ** np.arange(h - 1, -1, -1)
    return (plans[..., None] // powers) % num_levels


def plan_stall_free(
    seq_sizes_bits: np.ndarray,
    bandwidth_bps: np.ndarray,
    start_buffer_s: np.ndarray,
    chunk_duration_s: float,
) -> np.ndarray:
    """Per-lane: does *this* plan play stall-free? ``(lanes,)`` bool.

    ``seq_sizes_bits`` is ``(lanes, h)``: each lane's chunk sizes along
    one candidate plan (lanes may follow different plans). The gate
    behind the batch deciders' best-plan fast path: ``True`` guarantees
    the full trellis rollout would put **exactly** ``+0.0`` rebuffer on
    that plan's leaf for that lane, because the recurrence below applies
    the same division and the same ``max(buf - dl, 0) + delta`` update
    to the same operand values as the trellis, and every
    ``maximum(dl - buf, 0.0)`` stall term clamps a non-positive
    shortfall to ``+0.0``. The deciders combine this with a dominance
    argument (the plan being tested is the first argmax of the
    lane-independent part of the score) to skip the ``(lanes, L**h)``
    rollout for gated lanes without perturbing a single selection.
    """
    buf = start_buffer_s
    safe = None
    for k in range(seq_sizes_bits.shape[1]):
        dl = seq_sizes_bits[:, k] / bandwidth_bps
        ok = dl <= buf
        safe = ok if safe is None else (safe & ok)
        buf = np.maximum(buf - dl, 0.0) + chunk_duration_s
    return safe


def plan_rebuffers(
    seq_sizes_bits: np.ndarray,
    bandwidth_bps: np.ndarray,
    start_buffer_s: np.ndarray,
    chunk_duration_s: float,
) -> np.ndarray:
    """Exact leaf rebuffer of explicit plans, shape ``(lanes, n)``.

    ``seq_sizes_bits`` is ``(n, h)``: the chunk sizes along ``n``
    candidate plans, shared by every lane. Applies the same division,
    ``max(dl - buf, 0)`` stall, running-sum rebuffer, and
    ``max(buf - dl, 0) + delta`` update — to the same operand values —
    as the trellis rollout, so each entry equals the corresponding
    trellis leaf bitwise (IEEE addition is commutative, so accumulating
    ``reb += stall`` matches the trellis's ``src_reb + stall``). Lets
    the deciders price a small lane-independent candidate set without
    touching the ``(lanes, L**h)`` scratch.
    """
    dls = seq_sizes_bits[None, :, :] / bandwidth_bps[:, None, None]
    start_col = start_buffer_s[:, None]
    dl = dls[:, :, 0]
    reb = np.subtract(dl, start_col)  # shortfall = dl - buffer
    np.maximum(reb, 0.0, out=reb)  # stall; rebuffer = stall
    buf = np.subtract(start_col, dl)  # buffer - dl
    np.maximum(buf, 0.0, out=buf)
    np.add(buf, chunk_duration_s, out=buf)
    for k in range(1, dls.shape[2]):
        dl = dls[:, :, k]
        stall = np.subtract(dl, buf)  # shortfall
        np.maximum(stall, 0.0, out=stall)  # stall
        np.add(reb, stall, out=reb)  # rebuffer += stall
        np.subtract(buf, dl, out=buf)  # buffer - dl
        np.maximum(buf, 0.0, out=buf)
        np.add(buf, chunk_duration_s, out=buf)
    return reb


def build_plan_trie(plans: np.ndarray, num_levels: int, h: int) -> list:
    """Shared-prefix trie over an ascending set of plan indices.

    ``plans`` must be strictly increasing leaf indices in
    ``[0, num_levels**h)``. Returns a list of ``(levels, parents)``
    pairs, one per depth ``1..h``: node ``j`` at depth ``d`` extends
    node ``parents[j]`` at depth ``d-1`` with level ``levels[j]``.
    Nodes at each depth are ordered by their prefix value, so the
    depth-``h`` leaves enumerate ``plans`` in the given ascending
    order — a sparse rollout's leaf row ``j`` prices exactly
    ``plans[j]``, preserving first-occurrence argmax tie-breaks after
    any index-order-preserving pruning.
    """
    plans = np.asarray(plans, dtype=np.int64)
    if plans.ndim != 1 or plans.size == 0:
        raise ValueError("plans must be a non-empty 1-D array of leaf indices")
    if np.any(np.diff(plans) <= 0):
        raise ValueError("plans must be strictly increasing")
    if plans[0] < 0 or plans[-1] >= num_levels**h:
        raise ValueError(f"plan indices outside [0, {num_levels}**{h})")
    depths = []
    prev_codes = None
    for d in range(1, h + 1):
        codes = np.unique(plans // num_levels ** (h - d))
        levels = codes % num_levels
        if prev_codes is None:
            parents = np.zeros(codes.shape[0], dtype=np.int64)
        else:
            parents = np.searchsorted(prev_codes, codes // num_levels)
        depths.append((levels, parents))
        prev_codes = codes
    return depths


class SparsePlanRollout:
    """Trellis rebuffer rollout restricted to an explicit plan subset.

    Built once per (plan set, lane capacity); scratch buffers are
    preallocated per trie depth. The recurrence applies the *same* IEEE
    operations in the *same* per-step order to the same operand values
    as :class:`HorizonPlanner` — the trie merely skips states no
    surviving plan passes through — so leaf row ``j`` is bit-identical
    to column ``plans[j]`` of the full ``(lanes, L**h)`` rollout.
    Returned arrays are borrowed views; consume them before the next
    call. Like the dense planner, a call may use the leading subset of
    lanes.
    """

    def __init__(
        self, lanes: int, num_levels: int, h: int, plans: np.ndarray
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.lanes = lanes
        self.num_levels = num_levels
        self.h = h
        self.trie = build_plan_trie(plans, num_levels, h)
        self.num_plans = self.trie[-1][0].shape[0]
        self._dl = [np.empty((lanes, lv.shape[0])) for lv, _ in self.trie]
        self._buf = [np.empty((lanes, lv.shape[0])) for lv, _ in self.trie]
        self._reb = [np.empty((lanes, lv.shape[0])) for lv, _ in self.trie]
        # Gathered parent states (depth >= 2 only).
        self._gbuf = [np.empty((lanes, lv.shape[0])) for lv, _ in self.trie]
        self._greb = [np.empty((lanes, lv.shape[0])) for lv, _ in self.trie]

    def rollout_rebuffer(
        self,
        sizes_bits: np.ndarray,
        bandwidth_bps: np.ndarray,
        start_buffer_s: np.ndarray,
        chunk_duration_s: float,
    ) -> np.ndarray:
        """Per-lane rebuffer per plan, ``(lanes, num_plans)`` view."""
        if sizes_bits.shape != (self.num_levels, self.h):
            raise ValueError(
                f"sizes shape {sizes_bits.shape} != ({self.num_levels}, {self.h})"
            )
        lanes = bandwidth_bps.shape[0]
        if lanes > self.lanes:
            raise ValueError(f"{lanes} lanes exceed capacity {self.lanes}")
        bw_col = bandwidth_bps[:, None]
        start_col = start_buffer_s[:, None]

        levels, _ = self.trie[0]
        dl = self._dl[0][:lanes]
        buf = self._buf[0][:lanes]
        reb = self._reb[0][:lanes]
        np.divide(sizes_bits[levels, 0], bw_col, out=dl)
        np.subtract(dl, start_col, out=reb)  # shortfall = dl - buffer
        np.maximum(reb, 0.0, out=reb)  # stall; rebuffer = stall
        np.subtract(start_col, dl, out=buf)  # buffer - dl
        np.maximum(buf, 0.0, out=buf)
        np.add(buf, chunk_duration_s, out=buf)

        for d in range(1, len(self.trie)):
            levels, parents = self.trie[d]
            dl = self._dl[d][:lanes]
            gbuf = self._gbuf[d][:lanes]
            greb = self._greb[d][:lanes]
            new_buf = self._buf[d][:lanes]
            new_reb = self._reb[d][:lanes]
            np.divide(sizes_bits[levels, d], bw_col, out=dl)
            np.take(buf, parents, axis=1, out=gbuf)
            np.take(reb, parents, axis=1, out=greb)
            # Same op order as the dense trellis step; the gathers only
            # reposition parent values, never transform them.
            np.subtract(dl, gbuf, out=new_reb)  # shortfall
            np.maximum(new_reb, 0.0, out=new_reb)  # stall
            np.add(greb, new_reb, out=new_reb)  # rebuffer += stall
            np.subtract(gbuf, dl, out=new_buf)  # buffer - dl
            np.maximum(new_buf, 0.0, out=new_buf)
            np.add(new_buf, chunk_duration_s, out=new_buf)
            buf, reb = new_buf, new_reb

        return reb


@lru_cache(maxsize=32)
def level_sequences(num_levels: int, horizon: int) -> np.ndarray:
    """All ``num_levels ** horizon`` level sequences, shape (count, horizon).

    Cached: the (6, 5) table is built once per process and shared by all
    MPC/PANDA instances. The returned array is **read-only** — callers
    share one instance, so an in-place mutation would silently corrupt
    every other scheme's planning; writes raise instead.
    """
    if num_levels < 1 or horizon < 1:
        raise ValueError(f"need num_levels >= 1 and horizon >= 1, got {num_levels}, {horizon}")
    grids = np.meshgrid(*[np.arange(num_levels)] * horizon, indexing="ij")
    out = np.stack([g.ravel() for g in grids], axis=1)
    out.setflags(write=False)
    return out


def horizon_sizes(manifest: Manifest, start_index: int, horizon: int) -> np.ndarray:
    """Per-track actual sizes of chunks ``start_index .. +horizon``, in bits.

    Shape ``(num_tracks, h)`` where ``h`` may be shorter than ``horizon``
    at the end of the video.
    """
    if not 0 <= start_index < manifest.num_chunks:
        raise IndexError(f"start_index {start_index} out of range")
    end = min(start_index + horizon, manifest.num_chunks)
    return manifest.chunk_sizes_bits[:, start_index:end]


class HorizonPlanner:
    """Shared-prefix (trellis) rollout engine for ``lanes`` sessions of one
    ``(L, horizon)`` shape.

    The planner owns preallocated ``(lanes, L^horizon)`` ping-pong
    buffers, so a rollout allocates nothing beyond the broadcasting
    temporaries numpy cannot avoid. The batch deciders build one per
    lane slice; the scalar ``select_level`` paths roll on the shared
    one-lane instance of :func:`planner_for`.

    Bit-identity with the flat rollout (``simulate_buffer`` in
    ``tests/abr/reference.py``): the buffer/rebuffer
    recurrence is elementwise per (lane, sequence), so a leaf's value
    depends only on its lane's bandwidth and start buffer and its own
    level path. The trellis applies the *same* IEEE double operations in
    the *same* per-step order to the same operand values — it merely
    shares the prefix computations — and orders children as
    ``parent * L + level``, which reproduces the lexicographic
    (ravelled ``meshgrid`` ``'ij'``) layout of :func:`level_sequences`
    exactly. The lane axis changes which doubles sit next to each other
    in memory, never which operations touch a lane's values.

    Returned arrays are **borrowed views** into the scratch buffers:
    consume them (or copy) before the next rollout. Scratch memory is
    four doubles per leaf and lane; callers cap lanes accordingly (see
    :mod:`repro.experiments.batch`).
    """

    def __init__(self, lanes: int, num_levels: int, horizon: int) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if num_levels < 1 or horizon < 1:
            raise ValueError(
                f"need num_levels >= 1 and horizon >= 1, got {num_levels}, {horizon}"
            )
        self.lanes = lanes
        self.num_levels = num_levels
        self.horizon = horizon
        leaves = num_levels**horizon
        # Ping-pong pairs: step k reads prefix states from one array and
        # writes the expanded (lanes, P, L) states into the other.
        self._buf = (np.empty((lanes, leaves)), np.empty((lanes, leaves)))
        self._reb = (np.empty((lanes, leaves)), np.empty((lanes, leaves)))

    def rollout_rebuffer(
        self,
        sizes_bits: np.ndarray,
        bandwidth_bps: np.ndarray,
        start_buffer_s: np.ndarray,
        chunk_duration_s: float,
    ) -> np.ndarray:
        """Per-lane total rebuffer per sequence, ``(lanes, L^h)`` view.

        ``bandwidth_bps`` and ``start_buffer_s`` are matching 1-D arrays,
        one entry per lane. Rolling fewer lanes than the capacity (the
        stall-prone ones, after a decider's zero-rebuffer gate peeled
        the rest) reuses the leading scratch rows; lanes are
        independent, so a sub-rollout is bit-identical to the same rows
        of a full one.
        """
        num_levels = self.num_levels
        h = sizes_bits.shape[1]
        if sizes_bits.shape[0] != num_levels:
            raise ValueError(
                f"sizes cover {sizes_bits.shape[0]} tracks, planner has {num_levels}"
            )
        if not 1 <= h <= self.horizon:
            raise ValueError(f"horizon {h} outside planner range 1..{self.horizon}")
        if bandwidth_bps.ndim != 1 or start_buffer_s.shape != bandwidth_bps.shape:
            raise ValueError("bandwidth/buffer must be matching 1-D arrays")
        if (bandwidth_bps <= 0).any():
            raise ValueError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
        lanes = bandwidth_bps.shape[0]
        if lanes > self.lanes:
            raise ValueError(f"{lanes} lanes exceed planner capacity {self.lanes}")
        # (lanes, h, L): per-lane per-(step, level) download times —
        # elementwise, so identical to gathering per sequence and dividing.
        downloads = sizes_bits.T / bandwidth_bps[:, None, None]

        bufs, rebs = self._buf, self._reb
        cur = 0
        count = num_levels
        start_col = start_buffer_s[:, None]

        # Step 0: the empty prefix expands to L one-level states per lane.
        dls = downloads[:, 0]
        buf = bufs[0][:lanes, :count]
        reb = rebs[0][:lanes, :count]
        np.subtract(dls, start_col, out=reb)  # shortfall = dl - buffer
        np.maximum(reb, 0.0, out=reb)  # stall; rebuffer = 0 + stall = stall
        np.subtract(start_col, dls, out=buf)  # buffer - dl
        np.maximum(buf, 0.0, out=buf)
        np.add(buf, chunk_duration_s, out=buf)

        for k in range(1, h):
            nxt = count * num_levels
            dls = downloads[:, k, None, :]  # (lanes, 1, L)
            src_buf = bufs[cur][:lanes, :count, None]  # (lanes, P, 1)
            src_reb = rebs[cur][:lanes, :count, None]
            dst = 1 - cur
            new_buf = bufs[dst][:lanes, :nxt].reshape(lanes, count, num_levels)
            new_reb = rebs[dst][:lanes, :nxt].reshape(lanes, count, num_levels)
            # Same op order as the flat rollout's step k, broadcast over
            # (lanes, prefixes, levels); C-order reshape keeps child
            # p * L + l within each lane.
            np.subtract(dls, src_buf, out=new_reb)  # shortfall
            np.maximum(new_reb, 0.0, out=new_reb)  # stall
            np.add(src_reb, new_reb, out=new_reb)  # rebuffer += stall
            np.subtract(src_buf, dls, out=new_buf)  # buffer - dl
            np.maximum(new_buf, 0.0, out=new_buf)
            np.add(new_buf, chunk_duration_s, out=new_buf)
            cur = dst
            count = nxt

        return rebs[cur][:lanes, :count]


#: Process-wide cache of one-lane planners, one scratch set (~250 KB for
#: the (6, 5) shape) per (L, horizon), shared by every scalar algorithm
#: instance: sessions run sequentially within a process, while the fleet
#: holds one algorithm per concurrent session. Worker processes each get
#: their own cache.
_PLANNER_CACHE: Dict[Tuple[int, int], HorizonPlanner] = {}


def planner_for(num_levels: int, horizon: int) -> HorizonPlanner:
    """Shared one-lane :class:`HorizonPlanner` for a ``(num_levels, horizon)`` shape."""
    key = (num_levels, horizon)
    planner = _PLANNER_CACHE.get(key)
    if planner is None:
        if len(_PLANNER_CACHE) >= 8:
            # Unbounded growth only happens in pathological sweeps over
            # many shapes; dropping the cache merely costs reallocation.
            _PLANNER_CACHE.clear()
        planner = HorizonPlanner(1, num_levels, horizon)
        _PLANNER_CACHE[key] = planner
    return planner
