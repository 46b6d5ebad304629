"""Shared fixtures: videos, traces, and classifiers built once per run.

Everything is seeded, so the suite is fully deterministic. Fixtures use
``session`` scope because video synthesis (6 tracks x hundreds of chunks
with four quality metrics each) is the expensive step.
"""

from __future__ import annotations

import pytest

from repro.experiments.scheduler import SweepSpec, engine_break_even
from repro.network.traces import synthesize_fcc_traces, synthesize_lte_traces
from repro.video.classify import ChunkClassifier
from repro.video.dataset import (
    VideoSpec,
    build_video,
    fourx_spec,
    standard_dataset_specs,
)

SEED = 0


def spec_by_name(name: str) -> VideoSpec:
    """Look up one of the 16 standard specs by name."""
    for spec in standard_dataset_specs():
        if spec.name == name:
            return spec
    raise KeyError(name)


@pytest.fixture(scope="session")
def ed_ffmpeg_video():
    """Elephant Dream, FFmpeg encode, H.264, 2 s chunks (the paper's
    workhorse video for Figs. 4, 7, 8, 10)."""
    return build_video(spec_by_name("ED-ffmpeg-h264"), seed=SEED)


@pytest.fixture(scope="session")
def ed_youtube_video():
    """Elephant Dream, YouTube-style encode, 5 s chunks (Figs. 1–3)."""
    return build_video(spec_by_name("ED-youtube-h264"), seed=SEED)


@pytest.fixture(scope="session")
def ed_h265_video():
    """Elephant Dream, H.265 (§6.5)."""
    return build_video(spec_by_name("ED-ffmpeg-h265"), seed=SEED)


@pytest.fixture(scope="session")
def bbb_youtube_video():
    """Big Buck Bunny, YouTube-style encode (Fig. 11, Table 2)."""
    return build_video(spec_by_name("BBB-youtube-h264"), seed=SEED)


@pytest.fixture(scope="session")
def fourx_video():
    """The 4x-capped Elephant Dream encode (§3.3 / §6.6)."""
    return build_video(fourx_spec(), seed=SEED)


@pytest.fixture(scope="session")
def short_video():
    """A 2-minute video for fast player/ABR unit tests."""
    spec = VideoSpec(
        name="short-test",
        title="ED",
        genre="animation",
        source="ffmpeg",
        codec="h264",
        chunk_duration_s=2.0,
        cap_ratio=2.0,
        duration_s=120.0,
    )
    return build_video(spec, seed=SEED)


@pytest.fixture(scope="session")
def ed_classifier(ed_ffmpeg_video):
    """Quartile classifier for the FFmpeg ED video."""
    return ChunkClassifier.from_video(ed_ffmpeg_video)


@pytest.fixture(scope="session")
def lte_traces():
    """A small LTE trace set for integration tests."""
    return synthesize_lte_traces(count=12, seed=SEED)


@pytest.fixture(scope="session")
def engine_lanes():
    """Fewest traces a CAVA or RBA unit needs to run on the lockstep engine
    (narrower units are cheaper on the scalar loop and are routed there)."""
    return max(engine_break_even(SweepSpec(s, "v")) for s in ("CAVA", "RBA"))


@pytest.fixture(scope="session")
def engine_traces(engine_lanes):
    """LTE traces for sweep-machinery tests that must reach the engine:
    four break-even-wide units' worth, so a CAVA/RBA sweep over one, two
    or four pool workers runs every unit on the lockstep engine."""
    return synthesize_lte_traces(count=4 * engine_lanes, seed=SEED)


@pytest.fixture(scope="session")
def fcc_traces():
    """A small FCC trace set for integration tests."""
    return synthesize_fcc_traces(count=12, seed=SEED)


@pytest.fixture(scope="session")
def one_lte_trace(lte_traces):
    """A single representative LTE trace."""
    return lte_traces[0]
