"""Bit-identity pin: fleet fingerprints vs. the committed golden file.

The golden digest in ``golden_fleet_fingerprint.json`` was captured
*before* the hot-path overhaul landed (cached completions, fused event
loop, numpy buckets), so these tests assert the optimized engine still
produces byte-identical totals and bucket curves — for serial and
pooled runs, under both multiprocessing start methods, and for a traced
serial run (the edge loop then times its stages).

Regenerate the golden with ``tools/fleet_golden.py`` ONLY when a PR
intentionally changes the simulated numbers.

The acceptance-scale pin (seed 0, 24 edges, ~152k sessions) takes about
a minute serial and is env-gated::

    REPRO_FLEET_FULL_FINGERPRINT=1 PYTHONPATH=src \
        python -m pytest tests/fleet/test_fingerprint.py -k full
"""

import json
import os
from pathlib import Path

import pytest

from repro.fleet import FlashCrowd, FleetSpec, run_fleet
from repro.fleet.fingerprint import fleet_fingerprint
from repro.fleet.sim import (
    STAGE_ADVANCE,
    STAGE_BUCKET_FOLD,
    STAGE_COMPLETION,
    STAGE_DISPATCH,
)
from repro.telemetry.spans import SpanTracer

GOLDEN_PATH = Path(__file__).parent / "golden_fleet_fingerprint.json"

#: Mirrors tools/fleet_golden.py:small_spec() — the spec block recorded
#: in the golden file is asserted against these fields so the two cannot
#: silently drift apart.
SMALL_SPEC = FleetSpec(
    seed=0,
    duration_s=420.0,
    n_edges=4,
    arrivals_per_s=1.0,
    flash_crowds=(FlashCrowd(start_s=252.0, duration_s=84.0, multiplier=6.0),),
)

#: Mirrors tools/fleet_golden.py:full_spec() — the `repro fleet` default
#: acceptance-scale population.
FULL_SPEC = FleetSpec(
    seed=0,
    duration_s=5400.0,
    n_edges=24,
    arrivals_per_s=20.0,
    flash_crowds=(FlashCrowd(start_s=3240.0, duration_s=300.0, multiplier=6.0),),
)


def golden(section):
    data = json.loads(GOLDEN_PATH.read_text())
    assert section in data, f"golden file has no {section!r} section"
    return data[section]


def assert_spec_matches(entry, spec):
    recorded = entry["spec"]
    assert recorded["seed"] == spec.seed
    assert recorded["duration_s"] == spec.duration_s
    assert recorded["n_edges"] == spec.n_edges
    assert recorded["arrivals_per_s"] == spec.arrivals_per_s


#: (workers, start method, traced): both start methods at one and two
#: workers, plus a serial run under a tracer, whose edge loop times its
#: stages and must still produce the golden bytes.
PIN_CASES = [
    pytest.param(workers, method, False, id=f"{workers}-{method}")
    for workers in (1, 2)
    for method in ("fork", "spawn")
] + [pytest.param(1, None, True, id="1-traced")]

FLEET_STAGES = {STAGE_COMPLETION, STAGE_ADVANCE, STAGE_DISPATCH, STAGE_BUCKET_FOLD}


class TestSmallPin:
    @pytest.mark.parametrize("workers, method, traced", PIN_CASES)
    def test_digest_pinned_across_pools_and_start_methods(self, workers, method, traced):
        entry = golden("small")
        assert_spec_matches(entry, SMALL_SPEC)
        tracer = SpanTracer("fleet") if traced else None
        fp = fleet_fingerprint(
            run_fleet(SMALL_SPEC, n_workers=workers, mp_context=method, tracer=tracer)
        )
        if traced:
            stages_by_edge = {}
            for span in tracer.spans:
                if span["name"] in FLEET_STAGES:
                    edge = span["meta"]["edge"]
                    stages_by_edge.setdefault(edge, set()).add(span["name"])
            assert stages_by_edge == {
                edge: FLEET_STAGES for edge in range(SMALL_SPEC.n_edges)
            }
        # Compare scalars first: a digest mismatch alone is undebuggable.
        recorded = entry["scalars"]
        for name, value in fp["scalars"].items():
            want = recorded[name]
            got = value if isinstance(value, (int, str)) else repr(value)
            assert got == want, f"{name}: {got} != golden {want}"
        assert fp["digest"] == entry["digest"]


@pytest.mark.skipif(
    os.environ.get("REPRO_FLEET_FULL_FINGERPRINT") != "1",
    reason="full-scale pin is slow; set REPRO_FLEET_FULL_FINGERPRINT=1",
)
class TestFullPin:
    def test_acceptance_scale_digest_pinned(self):
        entry = golden("full")
        assert_spec_matches(entry, FULL_SPEC)
        fp = fleet_fingerprint(run_fleet(FULL_SPEC, n_workers=1))
        recorded = entry["scalars"]
        for name, value in fp["scalars"].items():
            want = recorded[name]
            got = value if isinstance(value, (int, str)) else repr(value)
            assert got == want, f"{name}: {got} != golden {want}"
        assert fp["digest"] == entry["digest"]
