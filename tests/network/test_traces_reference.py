"""The block-drawn LTE generator equals its per-second form, bit for bit.

``tests/network/reference.py`` keeps the LTE loop with one
``rng.choice`` per regime switch and one ``rng.lognormal`` per second.
The shipped generator draws each dwell's fades in one call and switches
regime through precomputed CDFs; every trace must match exactly, and the
generator must be left in the same state.
"""

import numpy as np
import pytest

from repro.network.traces import synthesize_lte_trace, synthesize_lte_traces
from repro.util.rng import derive_rng
from tests.network import reference


def reference_lte_traces(count, seed):
    return [
        reference.synthesize_lte_trace(
            f"lte-{i:03d}", derive_rng(seed, "trace", "lte", str(i))
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lte_set_equals_per_second_reference(seed):
    shipped = synthesize_lte_traces(200, seed)
    expected = reference_lte_traces(200, seed)
    assert [t.digest() for t in shipped] == [t.digest() for t in expected]


@pytest.mark.parametrize(
    "duration_s, interval_s",
    [
        (100.5, 1.0),  # not a whole number of intervals
        (37.3, 0.7),
        (0.4, 1.0),  # a single interval
        (1.0, 1.0),
        (300.0, 2.5),
    ],
)
def test_odd_durations_equal_reference(duration_s, interval_s):
    for i in range(20):
        rng_a = derive_rng(3, "odd", str(i))
        rng_b = derive_rng(3, "odd", str(i))
        shipped = synthesize_lte_trace("x", rng_a, duration_s, interval_s)
        expected = reference.synthesize_lte_trace("x", rng_b, duration_s, interval_s)
        assert shipped.digest() == expected.digest()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class IntegerDwells:
    """A generator whose dwells are whole numbers of seconds (and zero).

    Delegates every draw to a real generator but replaces each
    exponential dwell (after drawing it, so the stream stays aligned) by
    the next value of a cycle, so countdowns end exactly on zero.
    """

    def __init__(self, seed, dwells):
        self._rng = np.random.default_rng(seed)
        self._dwells = dwells
        self._count = 0

    def exponential(self, scale):
        self._rng.exponential(scale)
        value = self._dwells[self._count % len(self._dwells)]
        self._count += 1
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("dwells", [(3.0, 1.0, 0.0, 2.0), (1.0,), (0.0, 5.0), (2.5, 4.0)])
def test_dwells_ending_on_an_integer_equal_reference(dwells):
    for seed in range(5):
        a, b = IntegerDwells(seed, dwells), IntegerDwells(seed, dwells)
        shipped = synthesize_lte_trace("x", a, duration_s=60.0)
        expected = reference.synthesize_lte_trace("x", b, duration_s=60.0)
        assert shipped.digest() == expected.digest()
        assert a._count == b._count
        assert a._rng.bit_generator.state == b._rng.bit_generator.state
