"""Playback buffer accounting.

A deliberately small state machine: the buffer holds seconds of video;
wall-clock time drains it while playing; completed downloads fill it one
chunk-duration at a time. Keeping it separate from the session loop makes
the stall arithmetic unit-testable (and property-testable) in isolation.
"""

from __future__ import annotations

import math

from repro.util.validation import check_non_negative, check_positive

__all__ = ["PlaybackBuffer"]

_INF = math.inf


class PlaybackBuffer:
    """Seconds-denominated playback buffer with stall accounting.

    Attributes
    ----------
    level_s:
        Seconds of video currently buffered.
    total_stall_s:
        Accumulated rebuffering time across the session.
    """

    # A plain slotted class, not ``@dataclass(slots=True)`` (a Python
    # 3.10 keyword): the scalar session loops touch it once per chunk.
    __slots__ = ("level_s", "total_stall_s")

    def __init__(self, level_s: float = 0.0, total_stall_s: float = 0.0) -> None:
        self.level_s = level_s
        self.total_stall_s = total_stall_s

    def fill(self, duration_s: float) -> None:
        """Add one downloaded chunk's worth of playback time."""
        # Fast-accept validation (hot path: one fill per chunk): the
        # comparison rejects NaN / inf / <= 0 in one branch, and the
        # helper re-raises with the standard message when it fails.
        if not 0.0 < duration_s < _INF:
            check_positive(duration_s, "duration_s")
        self.level_s += duration_s

    def drain(self, wall_clock_s: float) -> float:
        """Play for ``wall_clock_s`` seconds; return the stall time incurred.

        If the buffer runs dry mid-way, the remainder of the interval is a
        stall: playback halts, time still passes. The stall is both
        returned and accumulated in :attr:`total_stall_s`.
        """
        if not 0.0 <= wall_clock_s < _INF:
            check_non_negative(wall_clock_s, "wall_clock_s")
        if wall_clock_s <= self.level_s:
            self.level_s -= wall_clock_s
            return 0.0
        stall = wall_clock_s - self.level_s
        self.level_s = 0.0
        self.total_stall_s += stall
        return stall

    def time_until_level(self, target_s: float) -> float:
        """Playback seconds until the buffer drains down to ``target_s``."""
        if not 0.0 <= target_s < _INF:
            check_non_negative(target_s, "target_s")
        return max(0.0, self.level_s - target_s)

    @property
    def is_empty(self) -> bool:
        """True when no playable media remains."""
        return self.level_s <= 0.0
