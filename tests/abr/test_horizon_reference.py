"""Equivalence of the vectorized buffer rollout against a plain-Python
reference implementation (the definition, executed naively)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.horizon import level_sequences
from tests.abr.reference import simulate_buffer


def reference_rollout(sequence, sizes_bits, bandwidth, buffer0, delta):
    """The textbook per-plan loop simulate_buffer vectorizes."""
    buffer = float(buffer0)
    rebuffer = 0.0
    for k, level in enumerate(sequence):
        download = sizes_bits[level][k] / bandwidth
        if download > buffer:
            rebuffer += download - buffer
            buffer = 0.0
        else:
            buffer -= download
        buffer += delta
    return rebuffer, buffer


@given(
    num_levels=st.integers(min_value=1, max_value=4),
    horizon=st.integers(min_value=1, max_value=4),
    bandwidth=st.floats(min_value=1e5, max_value=2e7),
    buffer0=st.floats(min_value=0.0, max_value=80.0),
    delta=st.sampled_from([2.0, 5.0]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_property_vectorized_matches_reference(
    num_levels, horizon, bandwidth, buffer0, delta, seed
):
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(1e5, 2e7, size=(num_levels, horizon))
    sequences = level_sequences(num_levels, horizon)
    rebuffer, final = simulate_buffer(sequences, sizes, bandwidth, buffer0, delta)
    # Check a sample of plans exactly against the reference.
    for index in range(0, sequences.shape[0], max(1, sequences.shape[0] // 7)):
        ref_rebuffer, ref_final = reference_rollout(
            sequences[index], sizes, bandwidth, buffer0, delta
        )
        assert rebuffer[index] == pytest.approx(ref_rebuffer, rel=1e-9, abs=1e-9)
        assert final[index] == pytest.approx(ref_final, rel=1e-9, abs=1e-9)
