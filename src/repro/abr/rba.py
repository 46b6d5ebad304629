"""RBA: the myopic rate-based scheme of §4 (Zhang et al. [49]).

RBA selects, for the next chunk only, the highest track such that after
downloading that chunk the buffer still holds at least
``min_buffer_chunks`` chunks (four in the paper): with download time
``size / estimated_bandwidth``, require

    buffer - size / bandwidth >= min_buffer_chunks * chunk_duration.

Because it looks only at the immediate next chunk's actual size, it
mechanically picks very high tracks for small (simple) chunks and very
low tracks for large (complex) chunks — the anti-pattern Fig. 4 shows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, BatchDecider, BatchDecisionContext, DecisionContext
from repro.video.model import Manifest

__all__ = ["RateBasedAlgorithm"]


class RateBasedAlgorithm(ABRAlgorithm):
    """Myopic rate-based adaptation (RBA)."""

    name = "RBA"

    def __init__(self, min_buffer_chunks: float = 4.0) -> None:
        if min_buffer_chunks < 0:
            raise ValueError(f"min_buffer_chunks must be >= 0, got {min_buffer_chunks}")
        self.min_buffer_chunks = min_buffer_chunks

    def prepare(self, manifest: Manifest) -> None:
        if getattr(self, "_size_rows", None) is not None and self.manifest is manifest:
            # Pooled re-use on the identity-same manifest: RBA keeps no
            # per-session state, and every prepared table is a pure
            # function of the manifest — nothing to redo.
            return
        super().prepare(manifest)
        self._reserve_s = self.min_buffer_chunks * manifest.chunk_duration_s
        # Hot-path tables: size_rows[level][i] is chunk_size_bits(level, i)
        # bit for bit, without the ndarray index + float() per probe (the
        # feasibility scan probes up to num_tracks sizes per decision).
        self._size_rows = manifest.size_rows
        self._top = manifest.num_tracks - 1

    def select_level(self, ctx: DecisionContext) -> int:
        i = ctx.chunk_index
        bandwidth_bps = ctx.bandwidth_bps
        buffer_s = ctx.buffer_s
        reserve_s = self._reserve_s
        rows = self._size_rows
        for level in range(self._top, -1, -1):
            if buffer_s - rows[level][i] / bandwidth_bps >= reserve_s:
                return level
        return 0

    def batch_decider(
        self, manifest: Manifest, lanes: int
    ) -> Optional[BatchDecider]:
        if type(self) is not RateBasedAlgorithm:
            return None
        return _BatchRbaDecider(self, manifest, lanes)


class _BatchRbaDecider(BatchDecider):
    """Vectorized RBA: the descending feasibility scan becomes a row-wise
    ``argmax`` over the ``buffer - size / bandwidth >= reserve`` mask,
    laid out from the top level down (first True = highest feasible
    level). The mask's last column, level 0, is always True: the scan
    returns 0 whether or not level 0 is feasible, so it never needs the
    test."""

    def __init__(
        self, algorithm: RateBasedAlgorithm, manifest: Manifest, lanes: int
    ) -> None:
        algorithm.prepare(manifest)
        top = manifest.num_tracks - 1
        # Per chunk, the sizes of levels top..1 as one contiguous row.
        self._sizes_desc = np.ascontiguousarray(
            manifest.chunk_sizes_bits[:0:-1].T
        )
        self._reserve_s = algorithm._reserve_s
        self._top = top
        self._feasible = np.ones((lanes, top + 1), dtype=bool)
        self._tested = self._feasible[:, :top]

    def select_levels(self, ctx: BatchDecisionContext) -> np.ndarray:
        margin = np.divide(
            self._sizes_desc[ctx.chunk_index], ctx.bandwidth_bps[:, None]
        )
        np.subtract(ctx.buffer_s[:, None], margin, out=margin)
        np.greater_equal(margin, self._reserve_s, out=self._tested)
        return self._top - self._feasible.argmax(axis=1)
