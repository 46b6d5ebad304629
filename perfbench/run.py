#!/usr/bin/env python3
"""Steady benchmark of the sweep, scalar-player, store and fleet paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed`` and repeats units
of work until ``--seconds`` of them have passed, timing each and
checking its results. It sets up ``SETUPS`` times, spread evenly over
those seconds; each set-up ends with one untimed warm-up unit whose
results are the reference for the units that follow. The last line of
stdout is one JSON object::

    {"correct": ..., "attempted": <sessions>, "failed": <sessions>,
     "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics: ``session_us``, the
fastest unit's wall time per simulated session, and ``setup_s``, the
median set-up time. Every unit repeats identical work, so slower units
measure interference from other tenants of the host, not the program
(the reasoning behind ``timeit`` reporting its minimum). On a shared
host that interference moved the median of a run by 10-70%.
``--trace 1`` runs the same units with layer
tracing on and reports the per-layer metrics instead: microseconds per
session in each layer (see ``workloads.py`` for how each engine's stages
map onto the layers) and counts per unit. Everything runs serially in
this process, with BLAS/OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_workloads():
    """Import the workloads against this checkout's ``src/repro`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    import workloads

    return workloads


def _measure(workloads, workload, seed: int, seconds: float, trace: bool):
    probe = workloads.Probe() if trace else None
    setups = []
    per_session_us = []
    attempted = failed = units = 0
    problems = []
    measured = 0.0
    # Set-ups are spread over the run, each followed by an equal share of
    # the measured units, so one burst of host interference cannot
    # inflate every set-up time of a run.
    while len(setups) < SETUPS or measured < seconds:
        if len(setups) < SETUPS and measured >= seconds * len(setups) / SETUPS:
            workload.close()
            t0 = time.perf_counter()
            workload.build(seed)
            setups.append(time.perf_counter() - t0)
            gc.collect()
            gc.freeze()
        unit_start = time.perf_counter()
        workload.next_inputs(units)
        before = probe.attributed() if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            outcome = workload.run(units, probe)
        except Exception as exc:  # noqa: BLE001 - count it, report it, go on
            # A unit that raised has no session count; it counts as one.
            problems.append(f"unit {units}: {type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
        else:
            wall = time.perf_counter() - t0
            n = workload.sessions(outcome)
            issues = workload.check(units, outcome)
            attempted += n
            if issues:
                failed += n
                problems += issues
            per_session_us.append(wall / n * 1e6)
            if probe is not None:
                probe.seconds["other"] += wall - (probe.attributed() - before)
                probe.counts["sessions"] += n
        units += 1
        measured += time.perf_counter() - unit_start
    gc.unfreeze()
    problems += workload.final_check()
    deciles = statistics.quantiles(per_session_us or [0.0], n=10, method="inclusive")
    if trace:
        traced = probe.counts["sessions"] or 1
        metrics = {
            f"{layer}_us": {"value": total / traced * 1e6, "unit": "us"}
            for layer, total in probe.seconds.items()
        }
        metrics.update(
            {name: {"value": count / units, "unit": "count"} for name, count in probe.counts.items()}
        )
    else:
        metrics = {
            "session_us": {"value": min(per_session_us or [0.0]), "unit": "us"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    summary = (
        f"perfbench {type(workload).__name__}: {units} units, {attempted} sessions, "
        f"us/session min {min(per_session_us or [0.0]):.1f} p10 {deciles[0]:.1f} "
        f"median {deciles[4]:.1f} p90 {deciles[-1]:.1f}, "
        f"setups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    return problems, attempted, failed, metrics, summary


def main(argv=None) -> int:
    args = _parse(argv)
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    try:
        problems, attempted, failed, metrics, summary = _measure(
            workloads, workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        workload.close()
    print(summary, file=sys.stderr)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
