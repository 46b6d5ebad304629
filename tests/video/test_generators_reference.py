"""The block-evaluated video generators equal their per-chunk forms, bit for bit.

``tests/video/reference.py`` keeps the scene timeline with one drift
draw per chunk and the encoder with a per-chunk CRF pass and quality
evaluation. The shipped pipeline draws the drift in one block and runs
both passes as array operations over the chunk axis; every output
(sizes, the four quality tables, complexity/SI/TI) must match exactly.
"""

import numpy as np
import pytest

from repro.util.rng import derive_rng
from repro.video.dataset import build_video, fourx_spec, standard_dataset_specs
from repro.video.quality import DEFAULT_QUALITY_MODEL, RESOLUTION_PIXELS, QualityModel
from repro.video.scene import GENRE_PROFILES, synthesize_scene_timeline
from tests.video import reference

SPECS = standard_dataset_specs() + [fourx_spec()]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("encoding", ["vbr", "cbr"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_build_video_equals_per_chunk_reference(spec, encoding, seed):
    shipped = build_video(spec, seed=seed, encoding=encoding)
    expected = reference.build_video(spec, seed=seed, encoding=encoding)
    assert len(shipped.tracks) == len(expected.tracks)
    for ours, theirs in zip(shipped.tracks, expected.tracks):
        assert same_bits(ours.chunk_sizes_bits, theirs.chunk_sizes_bits)
        assert ours.declared_avg_bitrate_bps == theirs.declared_avg_bitrate_bps
        assert list(ours.qualities) == list(theirs.qualities)
        for metric in theirs.qualities:
            assert same_bits(ours.qualities[metric], theirs.qualities[metric]), metric
    for field in ("complexity", "si", "ti"):
        assert same_bits(getattr(shipped, field), getattr(expected, field)), field


@pytest.mark.parametrize(
    "duration_s, chunk_s",
    [
        (600.0, 2.0),
        (601.3, 2.0),  # duration not a whole number of chunks
        (7.0, 5.0),  # one chunk, rounded down
        (13.0, 2.0),  # rounded up past the last scene boundary
        (2.0, 2.0),  # a single chunk
    ],
)
@pytest.mark.parametrize("genre", sorted(GENRE_PROFILES))
def test_scene_timeline_equals_per_chunk_reference(genre, duration_s, chunk_s):
    for seed in range(3):
        shipped = synthesize_scene_timeline(derive_rng(seed, "tl"), genre, duration_s, chunk_s)
        expected = reference.synthesize_scene_timeline(
            derive_rng(seed, "tl"), genre, duration_s, chunk_s
        )
        for field in ("complexity", "si", "ti", "scene_ids", "texture"):
            assert same_bits(getattr(shipped, field), getattr(expected, field)), field


class TestQualitySurface:
    """The array surface equals the scalar one element by element."""

    MODELS = [DEFAULT_QUALITY_MODEL, QualityModel(demand_exponent=1.87, hardness=0.1)]

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(5)
        complexity = np.concatenate([[0.0, 0.35, 1.0], rng.uniform(0.0, 1.0, 400)])
        bits = np.concatenate([[1.0, 5e5, 4e7], 10.0 ** rng.uniform(3.0, 8.0, 400)])
        return bits, complexity

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("resolution", sorted(RESOLUTION_PIXELS))
    def test_all_metrics(self, grid, model, resolution):
        bits, complexity = grid
        shipped = model.all_metrics(resolution, bits, 2.0, complexity)
        for metric, values in shipped.items():
            expected = [
                reference.all_metrics(model, resolution, b, 2.0, c)[metric]
                for b, c in zip(bits.tolist(), complexity.tolist())
            ]
            assert same_bits(values, np.array(expected)), metric

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("latent", [0.3, 0.85, 0.97])
    def test_bits_for_latent(self, grid, model, latent):
        _bits, complexity = grid
        shipped = model.bits_for_latent(720, 5.0, complexity, latent)
        # The encoder iterated over the complexity array: numpy scalars.
        expected = [reference.bits_for_latent(model, 720, 5.0, c, latent) for c in complexity]
        assert same_bits(shipped, np.array(expected))

    def test_same_validation_messages(self):
        model = DEFAULT_QUALITY_MODEL
        cases = [
            (lambda m: m.latent_score(480, [1e6, -1.0], 2.0, [0.5, 0.5]),
             lambda: reference.latent_score(model, 480, -1.0, 2.0, 0.5)),
            (lambda m: m.latent_score(480, [1e6, 1e6], 2.0, [0.5, 1.5]),
             lambda: reference.latent_score(model, 480, 1e6, 2.0, 1.5)),
            (lambda m: m.latent_score(333, [1e6], 2.0, [0.5]),
             lambda: reference.latent_score(model, 333, 1e6, 2.0, 0.5)),
            (lambda m: m.bits_for_latent(480, 2.0, [0.2, np.nan], 0.5),
             lambda: reference.bits_for_latent(model, 480, 2.0, np.nan, 0.5)),
            (lambda m: m.bits_for_latent(480, 2.0, [0.2], 1.0),
             lambda: reference.bits_for_latent(model, 480, 2.0, 0.2, 1.0)),
        ]
        for shipped, expected in cases:
            with pytest.raises(ValueError) as want:
                expected()
            with pytest.raises(ValueError) as got:
                shipped(model)
            assert str(got.value) == str(want.value)
