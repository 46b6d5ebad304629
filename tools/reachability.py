#!/usr/bin/env python
"""Function-level reachability of ``src/`` from the project's entry points.

Runs a fixed command list —

- all 8 scripts in ``examples/``;
- every ``repro`` subcommand, the way CI's workflow runs it where CI runs
  it (fleet smoke and profiled fleet, the traced pooled compare and
  ``repro top``, the warm/cold store round trip with ``cache
  verify/gc/stats``, the two-worker multi-host sweep with ``cache
  leases``, the telemetry and failure-policy dumps), plus ``dataset``,
  ``characterize``, ``traces``, ``manifest`` (MPD and HLS), ``run
  --events``, ``trace``, ``schemes`` and a ``compare --executor
  multihost`` joined afterwards by a ``sweep-worker``;
- the 19 paper claims in ``benchmarks/`` at ``REPRO_BENCH_TRACES=24``;
- ``perfbench/run.py --trace 1`` for each workload

— with a ``sys.setprofile`` collector in every interpreter, pool
children included. The collector is a generated ``sitecustomize.py``
placed first on ``PYTHONPATH``; each process writes the code objects it
entered when it exits (``atexit``, and ``os._exit`` for forked pool
workers). Nothing in ``src/`` knows about it.

It then prints every function defined under ``src/`` (methods, nested
functions and properties included) that no command entered and that
``tools/reachability_allow.txt`` does not list, plus allowlist entries
that no longer name an unreached function. Usage::

    python tools/reachability.py [--workdir DIR]

A manual tool, not a CI gate: the run takes several minutes on one
core, most of it the profiled claims. Exit status is 1 when a command
failed or an unlisted function was unreached, else 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DEFAULT_ALLOWLIST = Path(__file__).resolve().parent / "reachability_allow.txt"

#: The collector every interpreter imports at startup. ``{out}`` and
#: ``{src}`` are filled in with absolute paths.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_OUT = {out!r}
_SRC = {src!r}
_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    _add(frame.f_code)


def _dump():
    rows = sorted(
        {{
            f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\t{{code.co_name}}"
            for code in list(_seen)
            if code.co_filename.startswith(_SRC)
        }}
    )
    name = f"calls-{{os.getpid()}}-{{os.urandom(6).hex()}}.txt"
    with open(os.path.join(_OUT, name), "w") as handle:
        handle.write("\\n".join(rows))


_os_exit = os._exit


def _exit(code):
    try:
        _dump()
    finally:
        _os_exit(code)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: The multi-host manifest CI publishes before starting its two workers.
_PUBLISH_MANIFEST = """\
from repro.experiments.leases import SweepRecipe, recipe_sweep_id, write_manifest
recipe = SweepRecipe(
    schemes=("CAVA", "RBA"), videos=("ED-youtube-h264",),
    network="lte", traces=8, seed=0,
)
write_manifest(".repro-mh-store", recipe_sweep_id(recipe), recipe)
"""

#: Store key of CI's archived v2-format entry (see the workflow).
_V2_KEY = "3e76e99b47f54f2b620ed167d1946a1ca5c005bd"


@dataclass
class Step:
    """One command (or several run concurrently), or a file setup action."""

    label: str
    argvs: List[List[str]] = field(default_factory=list)
    cwd: Optional[Path] = None
    env: Dict[str, str] = field(default_factory=dict)
    expect: int = 0
    action: Optional[Callable[[Path], None]] = None


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _copy_v2_entry(workdir: Path) -> None:
    target = workdir / ".repro-cache" / "objects" / "3e" / f"{_V2_KEY}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(REPO / "tests" / "experiments" / "store_v2_entry.json", target)


def command_list() -> List[Step]:
    """The fixed command list (see the module docstring)."""
    steps = [
        Step(f"example {path.name}", [[sys.executable, str(path)]])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    two_workers = ("--traces", "8", "--schemes", "CAVA", "RBA", "--workers", "2")
    steps += [
        # -- as CI runs them ---------------------------------------------
        Step("fleet smoke", [_repro(
            "fleet", "--duration", "900", "--edges", "6", "--arrivals", "3",
            "--workers", "2", "--out", "fleet_smoke.json",
            "--metrics-out", "fleet_metrics.prom")]),
        Step("fleet profile", [_repro(
            "fleet", "--duration", "300", "--edges", "2", "--arrivals", "2",
            "--workers", "2", "--profile", "fleet_profile.json")]),
        Step("compare traced", [_repro(
            "compare", "ED-youtube-h264", "--traces", "32", "--schemes", "CAVA",
            "RBA", "--workers", "2", "--profile", "trace_smoke.json",
            "--metrics-dir", ".repro-metrics")]),
        Step("top", [_repro("top", ".repro-metrics", "--once")]),
        Step("compare cold store", [_repro(
            "compare", "ED-youtube-h264", *two_workers, "--cache-dir",
            ".repro-cache", "--metrics-out", "cache_cold.prom")]),
        Step("compare warm store", [_repro(
            "compare", "ED-youtube-h264", *two_workers, "--cache-dir",
            ".repro-cache", "--metrics-out", "cache_warm.prom")]),
        Step("cache verify", [_repro("cache", "verify", "--cache-dir", ".repro-cache")]),
        Step("plant v2 entry", action=_copy_v2_entry),
        Step("cache verify v2", [_repro("cache", "verify", "--cache-dir", ".repro-cache")],
             expect=1),
        Step("cache gc", [_repro("cache", "gc", "--cache-dir", ".repro-cache")]),
        Step("cache verify after gc", [_repro(
            "cache", "verify", "--cache-dir", ".repro-cache")]),
        Step("cache stats", [_repro("cache", "stats", "--cache-dir", ".repro-cache")]),
        Step("cache stats json", [_repro(
            "cache", "stats", "--cache-dir", ".repro-cache", "--json")]),
        Step("compare serial", [_repro(
            "compare", "ED-youtube-h264", "--traces", "8", "--schemes", "CAVA", "RBA")]),
        Step("publish manifest", [[sys.executable, "-c", _PUBLISH_MANIFEST]]),
        Step("two sweep workers", [
            _repro("sweep-worker", "--cache-dir", ".repro-mh-store", "--lease-poll",
                   "0.05", "--profile", "mh_worker_trace.json"),
            _repro("sweep-worker", "--cache-dir", ".repro-mh-store", "--lease-poll",
                   "0.05"),
        ]),
        Step("cache leases", [_repro("cache", "leases", "--cache-dir", ".repro-mh-store")]),
        Step("cache gc dry run", [_repro(
            "cache", "gc", "--cache-dir", ".repro-mh-store", "--max-entries", "4",
            "--dry-run")]),
        Step("compare telemetry", [_repro(
            "compare", "ED-youtube-h264", *two_workers, "--metrics-out",
            "BENCH_metrics.prom")]),
        Step("compare faulted", [_repro(
            "compare", "ED-youtube-h264", *two_workers, "--faults",
            "outages:p=0.05,len=4,seed=7+latency:p=0.1,spike_s=0.5",
            "--on-error", "skip", "--metrics-out", "BENCH_failure_policy.prom")]),
        # -- the subcommands CI does not run ------------------------------
        Step("dataset", [_repro("dataset")]),
        Step("characterize", [_repro("characterize", "ED-youtube-h264")]),
        Step("traces", [_repro("traces", "lte", "traces-out", "--count", "3")]),
        Step("manifest mpd", [_repro("manifest", "ED-youtube-h264", "ed.mpd")]),
        Step("manifest hls", [_repro(
            "manifest", "ED-youtube-h264", "ed-hls", "--format", "hls")]),
        Step("run events", [_repro(
            "run", "ED-ffmpeg-h264", "--scheme", "CAVA", "--trace-index", "3",
            "--events")]),
        Step("trace", [_repro("trace", "--video", "ED-ffmpeg-h264", "--limit", "5")]),
        Step("schemes", [_repro("schemes")]),
        Step("compare multihost", [_repro(
            "compare", "ED-youtube-h264", "--traces", "8", "--schemes", "CAVA", "RBA",
            "--executor", "multihost", "--cache-dir", ".repro-mh-compare",
            "--lease-poll", "0.05")]),
        Step("sweep worker joins", [_repro(
            "sweep-worker", "--cache-dir", ".repro-mh-compare", "--lease-poll", "0.05")]),
        # -- paper claims and the steady benchmark ------------------------
        Step("paper claims", [[
            sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable",
            "-q", "-p", "no:cacheprovider"]],
            cwd=REPO, env={"REPRO_BENCH_TRACES": "24"}),
    ]
    steps += [
        Step(f"perfbench {workload}", [[
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "2", "--trace", "1"]], cwd=REPO)
        for workload in ("sweep", "scalar", "store", "fleet")
    ]
    return steps


def run_steps(steps: Sequence[Step], workdir: Path, env: Dict[str, str]) -> List[str]:
    """Run every step; return the labels of the ones that failed."""
    failed = []
    logs = workdir / "logs"
    logs.mkdir(exist_ok=True)
    for index, step in enumerate(steps):
        started = time.perf_counter()
        if step.action is not None:
            step.action(workdir)
            codes = [0]
        else:
            cwd = step.cwd or workdir
            log = open(logs / f"{index:02d}.log", "w")
            procs = [
                subprocess.Popen(
                    argv, cwd=cwd, env={**env, **step.env},
                    stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                )
                for argv in step.argvs
            ]
            codes = [proc.wait() for proc in procs]
            log.close()
        ok = all(code == step.expect for code in codes)
        if not ok:
            failed.append(step.label)
        print(
            f"  {'ok ' if ok else 'FAIL'} {step.label} "
            f"({time.perf_counter() - started:.1f}s, exit {codes})",
            flush=True,
        )
    return failed


@dataclass(frozen=True)
class Function:
    path: str  # relative to the repo root
    qualname: str
    first_line: int  # first decorator line, as in co_firstlineno
    lines: int


def defined_functions(root: Path = SRC) -> List[Function]:
    """Every function and method defined in ``root``'s modules."""
    found: List[Function] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.append(
                        Function(rel, qualname, first, child.end_lineno - first + 1)
                    )
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def reached_functions(out_dir: Path) -> Set[Tuple[str, int, str]]:
    """``(repo-relative path, first line, name)`` of every entered code."""
    reached = set()
    for dump in out_dir.glob("calls-*.txt"):
        for row in dump.read_text().splitlines():
            filename, first_line, name = row.split("\t")
            rel = Path(os.path.realpath(filename)).relative_to(REPO).as_posix()
            reached.add((rel, int(first_line), name))
    return reached


def read_allowlist(path: Path) -> Dict[str, str]:
    """``path::qualname`` -> reason; every entry must give a reason."""
    entries = {}
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            raise SystemExit(f"{path}:{number}: entry without a '  # reason'")
        entries[name.strip()] = reason.strip()
    return entries


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory for outputs and call dumps "
                             "(default: a new temporary directory, removed after)")
    parser.add_argument("--allowlist", default=str(DEFAULT_ALLOWLIST))
    args = parser.parse_args(argv)

    allowlist = read_allowlist(Path(args.allowlist))
    temporary = args.workdir is None
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="reachability-")).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    collector = workdir / "collector"
    dumps = workdir / "calls"
    collector.mkdir(exist_ok=True)
    dumps.mkdir(exist_ok=True)
    (collector / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(out=str(dumps), src=os.path.realpath(SRC) + os.sep)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(collector), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    steps = command_list()
    print(f"running {len(steps)} steps in {workdir}", flush=True)
    started = time.perf_counter()
    failed = run_steps(steps, workdir, env)

    functions = defined_functions()
    reached = reached_functions(dumps)
    unreached = [
        f for f in functions
        if (f.path, f.first_line, f.qualname.rsplit(".", 1)[-1]) not in reached
    ]
    keys = {f"{f.path}::{f.qualname}": f for f in unreached}
    reported = [f for key, f in keys.items() if key not in allowlist]
    stale = sorted(key for key in allowlist if key not in keys)

    print(f"\n{len(steps)} steps in {time.perf_counter() - started:.0f}s, "
          f"{len(failed)} failed{': ' + ', '.join(failed) if failed else ''}")
    print(f"src/ functions: {len(functions)} defined, "
          f"{len(functions) - len(unreached)} reached, {len(unreached)} unreached "
          f"({sum(f.lines for f in unreached)} lines), "
          f"{len(unreached) - len(reported)} of them allowlisted")
    print(f"unreached and not allowlisted: {len(reported)} "
          f"({sum(f.lines for f in reported)} lines)")
    for f in reported:
        print(f"  {f.path}:{f.first_line} {f.qualname} ({f.lines} lines)")
    if stale:
        print(f"stale allowlist entries (reached now, or gone): {len(stale)}")
        for key in stale:
            print(f"  {key}")
    if temporary:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed or reported else 0


if __name__ == "__main__":
    sys.exit(main())
