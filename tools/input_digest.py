"""Print (or re-pin) the digest of the canonical synthetic inputs.

The canonical inputs are what the §6.1 evaluation replays, synthesized
at seed 0:

- every dataset spec (the 16 of §2 plus the 4x-capped ED encode), VBR;
- the CBR counterpart of ED-ffmpeg-h264;
- the 200-trace LTE set and the 200-trace FCC set.

Each video contributes :func:`repro.video.manifest_io.video_digest` (sizes,
the four quality tables, complexity/SI/TI) and each trace
:meth:`NetworkTrace.digest`; the printed value is the BLAKE2b digest of
that sequence. ``tests/test_input_digest.py`` compares it with
``tests/golden_input_digest.json``.

Run ``--write`` ONLY when a change intentionally alters the synthesized
inputs; performance work on the generators must leave the pin untouched.

Usage::

    PYTHONPATH=src python tools/input_digest.py [--write]
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from repro.network.traces import synthesize_fcc_traces, synthesize_lte_traces
from repro.video.dataset import (
    build_cbr_counterpart,
    build_video,
    fourx_spec,
    standard_dataset_specs,
)
from repro.video.manifest_io import video_digest

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden_input_digest.json"

SEED = 0
TRACE_COUNT = 200
CBR_SPEC = "ED-ffmpeg-h264"


def input_digest() -> str:
    """BLAKE2b digest (hex) of the canonical inputs at seed 0."""
    specs = standard_dataset_specs() + [fourx_spec()]
    parts = [video_digest(build_video(spec, seed=SEED)) for spec in specs]
    cbr_spec = next(spec for spec in specs if spec.name == CBR_SPEC)
    parts.append(video_digest(build_cbr_counterpart(cbr_spec, seed=SEED)))
    traces = synthesize_lte_traces(TRACE_COUNT, SEED) + synthesize_fcc_traces(TRACE_COUNT, SEED)
    parts.extend(trace.digest() for trace in traces)
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode("ascii"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help=f"re-pin {GOLDEN_PATH.name} to the printed digest"
    )
    args = parser.parse_args(argv)
    digest = input_digest()
    print(digest)
    if args.write:
        golden = {
            "seed": SEED,
            "videos": "every dataset spec (vbr) + the 4x ED encode + ED-ffmpeg-h264 cbr",
            "traces": f"{TRACE_COUNT} LTE + {TRACE_COUNT} FCC",
            "digest": digest,
        }
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
