"""Regenerate the fleet bit-identity golden file.

Runs the *default small fleet spec* (a scaled-down cut of the
acceptance-scale spec: same seed, same flash-crowd shape) under
every (start method, worker count) combination the pin test asserts,
checks they all agree, and writes the shared digest to
``tests/fleet/golden_fleet_fingerprint.json``.

Run this ONLY when a PR intentionally changes the simulated numbers;
performance PRs must leave the golden untouched. With ``--full`` it
also (re)captures the digest of the full acceptance-scale spec (seed 0,
24 edges, ~152k sessions) from one serial run — slow, used by the
env-gated full-scale pin test and for pre/post verification of hot-path
work.

Usage::

    PYTHONPATH=src python tools/fleet_golden.py [--full]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.fleet import FlashCrowd, FleetSpec, run_fleet
from repro.fleet.fingerprint import fleet_fingerprint

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "fleet"
    / "golden_fleet_fingerprint.json"
)

#: The pin matrix: both multiprocessing start methods at 1 and 2 workers.
MATRIX = tuple(
    (method, workers) for method in ("fork", "spawn") for workers in (1, 2)
)


def small_spec() -> FleetSpec:
    """Default small fleet spec (the serial-vs-pool fingerprint pin)."""
    return FleetSpec(
        seed=0,
        duration_s=420.0,
        n_edges=4,
        arrivals_per_s=1.0,
        flash_crowds=(
            FlashCrowd(start_s=252.0, duration_s=84.0, multiplier=6.0),
        ),
    )


def full_spec() -> FleetSpec:
    """The acceptance-scale spec (the ``repro fleet`` default population)."""
    return FleetSpec(
        seed=0,
        duration_s=5400.0,
        n_edges=24,
        arrivals_per_s=20.0,
        flash_crowds=(
            FlashCrowd(start_s=3240.0, duration_s=300.0, multiplier=6.0),
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="also capture the full acceptance-scale digest (slow)",
    )
    args = parser.parse_args(argv)

    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

    spec = small_spec()
    prints = {}
    for method, workers in MATRIX:
        result = run_fleet(spec, n_workers=workers, mp_context=method)
        prints[f"{method}/w{workers}"] = fleet_fingerprint(result)
    digests = {fp["digest"] for fp in prints.values()}
    if len(digests) != 1:
        print("FATAL: start methods / worker counts disagree:", file=sys.stderr)
        for key, fp in prints.items():
            print(f"  {key}: {fp['digest']}", file=sys.stderr)
        return 1
    sample = next(iter(prints.values()))
    golden["small"] = {
        "spec": {
            "seed": spec.seed,
            "duration_s": spec.duration_s,
            "n_edges": spec.n_edges,
            "arrivals_per_s": spec.arrivals_per_s,
        },
        "matrix": sorted(prints),
        "digest": sample["digest"],
        "scalars": {
            k: (v if isinstance(v, (int, str)) else repr(v))
            for k, v in sample["scalars"].items()
        },
    }

    if args.full:
        spec = full_spec()
        fp = fleet_fingerprint(run_fleet(spec, n_workers=1))
        golden["full"] = {
            "spec": {
                "seed": spec.seed,
                "duration_s": spec.duration_s,
                "n_edges": spec.n_edges,
                "arrivals_per_s": spec.arrivals_per_s,
            },
            "digest": fp["digest"],
            "scalars": {
                k: (v if isinstance(v, (int, str)) else repr(v))
                for k, v in fp["scalars"].items()
            },
        }

    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for section in ("small", "full"):
        if section in golden:
            print(f"  {section}: {golden[section]['digest']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
