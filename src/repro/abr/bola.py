"""BOLA-E (Spiteri et al. [37, 38]) with the paper's three size variants.

BOLA chooses the level maximizing the Lyapunov score

    score(l) = (V * (u_l + gp) - Q) / S_l,

where ``u_l = ln(S_l / S_0)`` is the utility of level ``l``, ``Q`` the
buffer in seconds, and ``V``/``gp`` are derived (as in dash.js's
BolaRule) from a minimum buffer and a buffer target so that the lowest
level wins near-empty and the highest wins near the target. When every
score is negative the player pauses — BOLA's deliberate "don't download
yet", one reason its data usage runs low (§6.8).

§6.8 evaluates three interpretations of ``S_l`` against CAVA:

- ``peak``: the track's peak bitrate — the single declared value the
  original implementation reads from the manifest; most conservative;
- ``avg``: the track's average bitrate — most aggressive;
- ``seg``: the actual per-chunk size, the modification the BOLA paper
  suggests for VBR; in between, but with *more* quality churn because
  per-chunk sizes swing the score chunk by chunk.

The BOLA-E practical enhancements modelled here are the throughput
safeguard on upswitches (don't jump above what the bandwidth estimate
sustains) and the insurance against oscillation (one-level cap per
upswitch), both present in the dash.js implementation §6.8 measures.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, DecisionContext
from repro.util.pinned import PinnedMemo
from repro.util.validation import check_positive
from repro.video.model import Manifest

__all__ = ["BolaEAlgorithm", "BOLA_VARIANTS"]

BOLA_VARIANTS = ("peak", "avg", "seg")


class _ChunkRow(NamedTuple):
    """One chunk's per-level decision table, as Python floats."""

    sizes: Tuple[float, ...]  # S_l, bits
    offsets: Tuple[float, ...]  # V * (u_l + gp): the buffer where score(l) = 0
    rates: Tuple[float, ...]  # S_l / chunk_duration_s, for the upswitch safeguard
    resume_at: float  # max(offsets): below it some score is non-negative


#: Per-chunk decision rows keyed by manifest identity and
#: ``(variant, minimum_buffer_s, buffer_target_s)``. They are pure
#: functions of that key, and sweeps build a fresh algorithm per session
#: on one manifest, so the logs are taken once per manifest, not per
#: decision.
_TABLES = PinnedMemo()


def _build_rows(
    manifest: Manifest, variant: str, minimum_buffer_s: float, buffer_target_s: float
) -> Tuple[_ChunkRow, ...]:
    # V and gp from declared average bitrates (as dash.js does), so the
    # control parameters stay fixed even for the seg variant.
    utilities = np.log(
        manifest.declared_avg_bitrates_bps / manifest.declared_avg_bitrates_bps[0]
    )
    u_max = float(utilities[-1])
    if u_max <= 1.0:
        raise ValueError("ladder too flat for BOLA utilities (u_max <= 1)")
    gp = (u_max - 1.0) / (buffer_target_s / minimum_buffer_s - 1.0)
    v = minimum_buffer_s / gp
    delta = manifest.chunk_duration_s

    def row(sizes: np.ndarray) -> _ChunkRow:
        # numpy takes the logs here, once per chunk row; select_level only
        # subtracts and divides these doubles, and elementwise IEEE "-"
        # and "/" round the same on Python floats as in numpy arrays.
        offsets = (v * (np.log(sizes / sizes[0]) + gp)).tolist()
        return _ChunkRow(
            tuple(sizes.tolist()), tuple(offsets), tuple((sizes / delta).tolist()), max(offsets)
        )

    if variant == "seg":  # per-chunk sizes
        sizes = manifest.chunk_sizes_bits
        return tuple(row(sizes[:, i]) for i in range(manifest.num_chunks))
    declared = (
        manifest.declared_peak_bitrates_bps
        if variant == "peak"
        else manifest.declared_avg_bitrates_bps
    )
    return (row(declared * delta),) * manifest.num_chunks


class BolaEAlgorithm(ABRAlgorithm):
    """BOLA-E; ``variant`` selects the chunk-size interpretation (§6.8)."""

    def __init__(
        self,
        variant: str = "seg",
        minimum_buffer_s: float = 10.0,
        buffer_target_s: float = 30.0,
    ) -> None:
        if variant not in BOLA_VARIANTS:
            raise ValueError(f"variant must be one of {BOLA_VARIANTS}, got {variant!r}")
        check_positive(minimum_buffer_s, "minimum_buffer_s")
        check_positive(buffer_target_s, "buffer_target_s")
        if buffer_target_s <= minimum_buffer_s:
            raise ValueError("buffer_target_s must exceed minimum_buffer_s")
        self.variant = variant
        self.minimum_buffer_s = minimum_buffer_s
        self.buffer_target_s = buffer_target_s
        self.name = f"BOLA-E ({variant})"

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def prepare(self, manifest: Manifest) -> None:
        super().prepare(manifest)
        key = (self.variant, self.minimum_buffer_s, self.buffer_target_s)
        self._rows = _TABLES.get(manifest, key, lambda: _build_rows(manifest, *key))
        self._top = manifest.num_tracks - 1

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def requested_idle_s(self, ctx: DecisionContext) -> float:
        """Pause while every level's score is negative (buffer too full).

        ``score(l) >= 0`` exactly when the buffer is at most level ``l``'s
        offset, so the pause lasts until the buffer drains to the largest
        offset, where the best level's score returns to zero.
        """
        idle = ctx.buffer_s - self._rows[ctx.chunk_index].resume_at
        return idle if idle > 0.0 else 0.0

    def select_level(self, ctx: DecisionContext) -> int:
        sizes, offsets, rates, _ = self._rows[ctx.chunk_index]
        buffer_s = ctx.buffer_s
        # argmax of the scores; strict ">" keeps the first maximum.
        candidate = 0
        best = (offsets[0] - buffer_s) / sizes[0]
        for level in range(1, self._top + 1):
            score = (offsets[level] - buffer_s) / sizes[level]
            if score > best:
                best = score
                candidate = level

        last = ctx.last_level
        if last is not None and candidate > last:
            # BOLA-E upswitch safeguard (as in dash.js): when BOLA wants a
            # level above what the throughput estimate sustains, settle for
            # the sustainable level, but never below the current one.
            bandwidth_bps = ctx.bandwidth_bps
            sustainable = 0
            for level in range(self._top, 0, -1):
                if rates[level] <= bandwidth_bps:
                    sustainable = level
                    break
            if candidate > sustainable:
                candidate = int(max(sustainable, last))
        return candidate
