"""BBA-1: the buffer-based scheme of Huang et al. [16], chunk-map variant.

BBA maps the current buffer occupancy to an allowed chunk size through a
"chunk map": below the reservoir it always requests the smallest chunks;
above the cushion it always requests the largest; in between the allowed
size rises linearly from the average chunk size of the lowest track to
that of the highest track. BBA-1 then picks, for the immediate next
chunk, the highest track whose *actual* chunk size fits under the map —
which is precisely why it is myopic for VBR (§4): a small Q1 chunk in a
high track fits easily, a large Q4 chunk does not.
"""

from __future__ import annotations

import math

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.util.validation import check_non_negative, check_positive
from repro.video.model import Manifest

__all__ = ["BBA1Algorithm"]

_INF = math.inf


class BBA1Algorithm(ABRAlgorithm):
    """Buffer-based adaptation with a chunk map (BBA-1)."""

    name = "BBA-1"

    def __init__(self, reservoir_s: float = 10.0, cushion_s: float = 80.0) -> None:
        check_positive(reservoir_s, "reservoir_s")
        check_positive(cushion_s, "cushion_s")
        if cushion_s <= reservoir_s:
            raise ValueError("cushion_s must exceed reservoir_s")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        delta = manifest.chunk_duration_s
        # Chunk map endpoints: average chunk size of lowest / highest track.
        self._min_chunk_bits = float(manifest.declared_avg_bitrates_bps[0]) * delta
        self._max_chunk_bits = float(manifest.declared_avg_bitrates_bps[-1]) * delta
        # size_rows[level][i] is chunk_size_bits(level, i) bit for bit, as
        # Python floats: the scan probes up to num_tracks sizes per decision.
        self._size_rows = manifest.size_rows
        self._top = manifest.num_tracks - 1

    def _allowed_chunk_bits(self, buffer_s: float) -> float:
        """The chunk map: allowed chunk size at a given buffer occupancy."""
        if not 0.0 <= buffer_s < _INF:
            check_non_negative(buffer_s, "buffer_s")  # cold: raises
        if buffer_s <= self.reservoir_s:
            return self._min_chunk_bits
        if buffer_s >= self.cushion_s:
            return self._max_chunk_bits
        fraction = (buffer_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
        return self._min_chunk_bits + fraction * (self._max_chunk_bits - self._min_chunk_bits)

    def select_level(self, ctx: DecisionContext) -> int:
        allowed = self._allowed_chunk_bits(ctx.buffer_s)
        i = ctx.chunk_index
        rows = self._size_rows
        for level in range(self._top, -1, -1):
            if rows[level][i] <= allowed:
                return level
        return 0
