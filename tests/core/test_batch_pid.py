"""Every lane of :class:`BatchPIDController` is a :class:`PIDController`.

The lockstep CAVA decider advances one batch controller per slice; lane
``j`` of each update must be the exact double the scalar controller of
session ``j`` returns, and leave the same integral behind. The drawn
sequences use a tight configuration so that the integral clamp and both
output clamps bind, and clocks that stand still or run backwards
(``dt <= 0``); the fixed sequence below asserts that each of those
branches is reached.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CavaConfig
from repro.core.pid import BatchPIDController, PIDController

CHUNK_S = 2.0
TIGHT = CavaConfig(kp=0.2, ki=0.05, integral_limit=30.0, u_min=0.5, u_max=3.0)
CONFIGS = [CavaConfig(), TIGHT]


def run_lanes(config, steps):
    """Feed ``steps`` of ``(now_s, buffer_s, target_s)`` to both; return
    the scalar controllers and every scalar output."""
    lanes = len(steps[0][0])
    batch = BatchPIDController(config, CHUNK_S, lanes)
    scalars = [PIDController(config, CHUNK_S) for _ in range(lanes)]
    outputs = []
    for now_s, buffer_s, target_s in steps:
        got = batch.update(np.array(now_s), np.array(buffer_s), target_s).tolist()
        want = [
            pid.update(now, buffer, target_s)
            for pid, now, buffer in zip(scalars, now_s, buffer_s)
        ]
        assert got == want
        assert batch._integral.tolist() == [pid.integral for pid in scalars]
        outputs.append(want)
    return scalars, outputs


@st.composite
def _steps(draw):
    lanes = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=12))
    times = st.floats(min_value=0.0, max_value=300.0)
    buffers = st.floats(min_value=0.0, max_value=150.0)
    return [
        (
            draw(st.lists(times, min_size=lanes, max_size=lanes)),
            draw(st.lists(buffers, min_size=lanes, max_size=lanes)),
            draw(st.floats(min_value=0.0, max_value=150.0)),
        )
        for _ in range(count)
    ]


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from(CONFIGS), steps=_steps())
def test_every_lane_equals_scalar(config, steps):
    run_lanes(config, steps)


def test_clamps_and_stalled_clocks():
    # Lane 0 runs far below target (integral and u pinned at the top),
    # lane 1 far above it (both pinned at the bottom), lane 2's clock
    # stands still, lane 3's runs backwards, lane 4 stays linear.
    steps = [
        ([10.0, 10.0, 0.5, 2.0, 10.0], [0.0, 150.0, 59.0, 59.0, 59.0], 60.0),
        ([20.0, 20.0, 0.5, 1.5, 20.0], [0.0, 150.0, 20.0, 20.0, 60.5], 60.0),
        ([30.0, 30.0, 0.5, 1.0, 30.0], [1.0, 140.0, 25.0, 25.0, 60.0], 60.0),
        ([30.0, 35.0, 0.4, 0.5, 31.0], [1.0, 140.0, 25.0, 25.0, 60.0], 60.0),
    ]
    scalars, outputs = run_lanes(TIGHT, steps)
    limit = TIGHT.integral_limit
    assert scalars[0].integral == limit
    assert scalars[1].integral == -limit
    assert outputs[-1][0] == TIGHT.u_max
    assert outputs[-1][1] == TIGHT.u_min
    # No time passed on lanes 2 and 3 after their first update, so their
    # integrals never moved past it.
    assert scalars[2].integral == 1.0 * 0.5
    assert scalars[3].integral == 1.0 * 2.0
    assert TIGHT.u_min < outputs[-1][4] < TIGHT.u_max
