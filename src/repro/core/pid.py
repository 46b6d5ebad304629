"""The PID feedback control block of §5.2 (Eqs. 1–2).

The controller output

    u_t = Kp (x_r(t) - x_t) + Ki * integral(x_r - x) dtau + 1(x_t >= Delta)

is a unitless relative buffer-filling rate: the inner controller turns it
into a bitrate budget via ``R = C / u`` (Eq. 1). The indicator term
linearizes the loop (it contributes the "steady-state 1" once at least a
chunk is buffered), following the PIA design [33] the paper builds on.

Two standard practical guards are applied, as in PIA: the integral is
clamped (anti-windup) and the output saturates at ``[u_min, u_max]`` —
without them a long startup or a deep outage would wind the integral far
past any useful value.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import CavaConfig
from repro.util.validation import check_non_negative

__all__ = ["PIDController", "BatchPIDController"]

_INF = math.inf


class PIDController:
    """Stateful PID block; one instance per streaming session."""

    # A plain slotted class, not ``@dataclass(slots=True)`` (a Python
    # 3.10 keyword): the controller state and the gains hoisted from the
    # frozen config are read once per chunk on the scalar hot path.
    __slots__ = (
        "config",
        "chunk_duration_s",
        "_integral",
        "_last_time_s",
        "_last_error_s",
        "_kp",
        "_ki",
        "_integral_limit",
        "_u_min",
        "_u_max",
    )

    def __init__(self, config: CavaConfig, chunk_duration_s: float) -> None:
        if chunk_duration_s <= 0:
            raise ValueError("chunk_duration_s must be positive")
        self.config = config
        self.chunk_duration_s = chunk_duration_s
        self._integral = 0.0
        self._last_time_s = 0.0
        self._last_error_s = 0.0
        # Gains and limits hoisted out of the per-decision update();
        # CavaConfig is frozen, so the copies cannot go stale.
        self._kp = config.kp
        self._ki = config.ki
        self._integral_limit = config.integral_limit
        self._u_min = config.u_min
        self._u_max = config.u_max

    def reset(self) -> None:
        """Clear the integral and the clock (new session)."""
        self._integral = 0.0
        self._last_time_s = 0.0
        self._last_error_s = 0.0

    @property
    def integral(self) -> float:
        """Accumulated (clamped) integral of the buffer error, in s^2."""
        return self._integral

    @property
    def last_error_s(self) -> float:
        """The error ``x_r(t) - x_t`` of the most recent update (Eq. 2).

        Telemetry reads this after each decision to trace PID
        convergence without recomputing the target/buffer difference.
        """
        return self._last_error_s

    def update(self, now_s: float, buffer_s: float, target_s: float) -> float:
        """Advance the controller to ``now_s`` and return u_t.

        The integral term accumulates error over the wall-clock time since
        the previous update (decisions are event-driven — one per chunk —
        so the integration step is the inter-decision gap).
        """
        # Fast-accept validation (hot path: one update per chunk); the
        # comparisons reject NaN / inf / negatives in one branch each and
        # the helpers re-raise with the standard message when they fail.
        if not 0.0 <= now_s < _INF:
            check_non_negative(now_s, "now_s")
        if not 0.0 <= buffer_s < _INF:
            check_non_negative(buffer_s, "buffer_s")
        if not 0.0 <= target_s < _INF:
            check_non_negative(target_s, "target_s")
        # Conditional clamps replace the max/min builtin chains: for the
        # non-NaN operands the validation guarantees, the selected value
        # is the same double (ties return the same float either way).
        elapsed = now_s - self._last_time_s
        dt = elapsed if elapsed > 0.0 else 0.0
        self._last_time_s = now_s

        error = target_s - buffer_s
        self._last_error_s = error
        limit = self._integral_limit
        integral = self._integral + error * dt
        if integral > limit:
            integral = limit
        elif integral < -limit:
            integral = -limit
        self._integral = integral

        indicator = 1.0 if buffer_s >= self.chunk_duration_s else 0.0
        u = self._kp * error + self._ki * integral + indicator
        if u > self._u_max:
            return self._u_max
        if u < self._u_min:
            return self._u_min
        return u


class BatchPIDController:
    """N lockstep :class:`PIDController` lanes advanced one array per op.

    Lane ``j`` of every update is the exact sequence of IEEE doubles the
    scalar controller would produce for session ``j``: the conditional
    clamps become ``np.maximum``/``np.minimum`` (same result for the
    non-NaN operands the engine passes), the indicator branch becomes a
    0/1 mask added as ``1.0``/``0.0``, and the state arrays replace the
    scalar integral/clock. The float ufuncs write into buffers owned by
    the controller.
    """

    def __init__(self, config: CavaConfig, chunk_duration_s: float, lanes: int) -> None:
        if chunk_duration_s <= 0:
            raise ValueError("chunk_duration_s must be positive")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.config = config
        self.chunk_duration_s = chunk_duration_s
        self.lanes = lanes
        self._integral = np.zeros(lanes)
        self._last_time_s = np.zeros(lanes)
        self._kp = config.kp
        self._ki = config.ki
        self._integral_limit = config.integral_limit
        self._u_min = config.u_min
        self._u_max = config.u_max
        self._error = np.empty(lanes)
        self._scratch = np.empty(lanes)
        self._u = np.empty(lanes)

    def update(
        self, now_s: np.ndarray, buffer_s: np.ndarray, target_s: float
    ) -> np.ndarray:
        """Advance every lane to its ``now_s`` and return u_t, (lanes,).

        ``target_s`` is scalar: the outer controller's target depends
        only on the chunk index, which lockstep lanes share. The result
        is the controller's own buffer, valid until the next update.
        """
        scratch = self._scratch
        # dt = max(0, now - last), then the clock advances.
        np.subtract(now_s, self._last_time_s, out=scratch)
        np.maximum(0.0, scratch, out=scratch)
        self._last_time_s[:] = now_s

        error = np.subtract(target_s, buffer_s, out=self._error)
        limit = self._integral_limit
        integral = self._integral
        np.multiply(error, scratch, out=scratch)
        np.add(integral, scratch, out=integral)
        np.minimum(limit, integral, out=integral)
        np.maximum(-limit, integral, out=integral)

        # kp * error + ki * integral + indicator, left to right; the
        # boolean indicator adds exactly 1.0 or 0.0.
        u = np.multiply(self._kp, error, out=self._u)
        np.add(u, np.multiply(self._ki, integral, out=scratch), out=u)
        np.add(u, buffer_s >= self.chunk_duration_s, out=u)
        np.minimum(self._u_max, u, out=u)
        np.maximum(self._u_min, u, out=u)
        return u
