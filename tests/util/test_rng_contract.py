"""The numpy ``Generator`` contracts the input generators' block draws rely on.

The LTE trace and scene generators draw in blocks yet produce the bits
of a one-draw-per-sample loop. That holds only while numpy keeps three
contracts, pinned here so that a numpy upgrade breaking one fails
loudly instead of letting the synthetic inputs drift:

- ``rng.choice(n, p=row)`` is ``bisect_right(cdf, rng.random())`` with
  the CDF built as ``cumsum`` divided by its last entry, and consumes
  exactly that one double;
- ``rng.lognormal(mean, sigma, size=k)`` equals ``k`` sequential scalar
  draws and leaves the generator in the same state;
- the same for ``rng.normal``.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.network.traces import _LTE_SWITCH_CDFS, _LTE_TRANSITIONS

SEEDS = range(1000)


def test_switch_cdfs_are_built_like_choice():
    for row, cdf in zip(_LTE_TRANSITIONS, _LTE_SWITCH_CDFS):
        expected = row.cumsum()
        expected /= expected[-1]
        assert cdf == expected.tolist()


@pytest.mark.parametrize("row_index", range(len(_LTE_TRANSITIONS)))
def test_bisect_over_cdf_equals_choice(row_index):
    row = _LTE_TRANSITIONS[row_index]
    cdf = _LTE_SWITCH_CDFS[row_index]
    for seed in SEEDS:
        by_choice = np.random.default_rng(seed)
        by_bisect = np.random.default_rng(seed)
        for _ in range(3):
            assert bisect_right(cdf, by_bisect.random()) == int(by_choice.choice(4, p=row))
            assert by_bisect.bit_generator.state == by_choice.bit_generator.state


@pytest.mark.parametrize(
    "draw, args",
    [("lognormal", (0.0, 0.30)), ("normal", (0.0, 0.035)), ("lognormal", (1.2, 0.55))],
)
def test_block_draw_equals_sequential_draws(draw, args):
    for seed in SEEDS:
        size = 1 + seed % 40
        blocked = np.random.default_rng(seed)
        sequential = np.random.default_rng(seed)
        block = getattr(blocked, draw)(*args, size=size)
        one_by_one = [float(getattr(sequential, draw)(*args)) for _ in range(size)]
        assert block.tolist() == one_by_one
        assert blocked.bit_generator.state == sequential.bit_generator.state
