"""The four benchmark workloads: sweep, scalar, store and fleet.

Each workload drives one public entry point of ``repro`` the way a user
run does, and exposes the same small interface to ``run.py``:

- ``build(seed)`` makes the inputs from the seed and runs one untimed
  warm-up unit whose results become the reference (this is set-up);
- ``next_inputs(rep)`` prepares per-unit inputs outside the timed region;
- ``run(rep, probe)`` runs one unit of work and returns its outcome.
  With a :class:`Probe` it also attributes the unit's time to layers;
- ``sessions(outcome)`` counts the sessions the unit simulated;
- ``check(rep, outcome)`` / ``final_check()`` return correctness problems;
- ``close()`` removes anything the workload wrote.

Layer attribution (per-layer metrics, ``--trace 1``) maps each engine's
own stages onto one vocabulary, so every workload reports every layer:

========== ======================= ======================== =========================
layer      batch engine (sweep,    scalar player            fleet edge loop
           store misses)
========== ======================= ======================== =========================
prepare    sweep.plan +            manifest, classifier,    fleet.plan (catalog
           store.partition +       link table, scheme       videos, edge traces)
           batch.prepare           construction
network    batch.estimate          link.download +          fleet.completion_query +
                                   estimator calls          fleet.advance
decide     batch.decide            ABR method calls         fleet.dispatch (session
                                                            cores, which decide)
loop       batch.advance           session loop self time   fleet.edge self time
summarize  unit.batch minus its    summarize_session        fleet.bucket_fold +
           stages                                           fleet.merge
========== ======================= ======================== =========================

The batch engine downloads all lanes in one vectorised call inside
``batch.advance``, so its ``network`` layer holds only the estimator.
Store key hashing and entry reads happen in ``store.partition`` and so
count as ``prepare``; store write-back is in ``other`` (the remainder of
the unit's wall time that no layer claims, computed in ``run.py``).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.parallel import ParallelSweepRunner
from repro.experiments.runner import run_one_session
from repro.experiments.store import SessionStore
from repro.fleet.fingerprint import fleet_fingerprint
from repro.fleet.runner import run_fleet
from repro.fleet.spec import FlashCrowd, FleetSpec
from repro.network.estimator import HarmonicMeanEstimator
from repro.network.traces import synthesize_lte_trace, synthesize_lte_traces
from repro.player.metrics import metric_for_network, summarize_session
from repro.player.session import SessionConfig, StreamingSession
from repro.telemetry.spans import SpanTracer
from repro.util.rng import derive_rng
from repro.video.dataset import build_video, standard_dataset_specs

NETWORK = "lte"
#: The 120-chunk YouTube encode keeps units short (50-150 ms), so a run
#: has hundreds of units and its fastest ones fall between the host's
#: bursts of interference.
VIDEO = "ED-youtube-h264"
CONFIG = SessionConfig()

#: Batchable schemes: multi-trace units run on the lockstep batch engine.
BATCH_SCHEMES = ("CAVA", "RBA")
SWEEP_TRACES = 64
#: Schemes the scalar workload streams one session at a time. BBA-1 and
#: BOLA-E decline the batch engine, so every sweep of them takes this
#: path; CAVA is here because ``repro run`` streams it this way.
SCALAR_SCHEMES = ("CAVA", "BBA-1", "BOLA-E (peak)")
SCALAR_TRACES = 16
#: Store workload: a re-run whose grid gained FRESH_TRACES new traces
#: since the CACHED_TRACES already in the store. A batch-engine unit
#: costs about the same for 2 lanes as for 64, so a few misses already
#: cost as much as hundreds of store reads.
CACHED_TRACES = 256
FRESH_TRACES = 2

TIME_LAYERS = ("prepare", "network", "decide", "loop", "summarize")
COUNTS = ("sessions", "steps", "store_hits", "store_misses")

_BATCH_STAGES = ("batch.prepare", "batch.estimate", "batch.decide", "batch.advance")
_FLEET_STAGES = (
    "fleet.completion_query",
    "fleet.advance",
    "fleet.dispatch",
    "fleet.bucket_fold",
)


class Probe:
    """Per-layer seconds and counts accumulated over traced units."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(TIME_LAYERS + ("other",), 0.0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its wall time added to ``layer`` on every call."""
        seconds = self.seconds
        perf = time.perf_counter

        def call(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += perf() - t0

        return call

    def attributed(self) -> float:
        return sum(self.seconds[layer] for layer in TIME_LAYERS)


class _Timed:
    """Forwards to ``inner``; the named methods are timed into one layer."""

    def __init__(self, inner, probe: Probe, layer: str, methods: Sequence[str]):
        self._inner = inner
        for name in methods:
            setattr(self, name, probe.timed(layer, getattr(inner, name)))

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _span_totals(spans) -> Counter:
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += span["dur_s"]
    return totals


def _span_count(spans, name: str, key: str) -> int:
    return sum(int(s["meta"].get(key, 0)) for s in spans if s["name"] == name)


def _fold_sweep_spans(spans, probe: Probe) -> None:
    """Attribute one serial sweep's span tree to the layers."""
    t = _span_totals(spans)
    seconds = probe.seconds
    seconds["prepare"] += t["sweep.plan"] + t["store.partition"] + t["batch.prepare"]
    seconds["network"] += t["batch.estimate"]
    seconds["decide"] += t["batch.decide"]
    seconds["loop"] += t["batch.advance"] + t["session.scalar"]
    seconds["summarize"] += t["unit.batch"] - sum(t[name] for name in _BATCH_STAGES)
    probe.counts["steps"] += _span_count(spans, "batch.decide", "count")


def _fold_fleet_spans(spans, probe: Probe) -> None:
    """Attribute one serial fleet run's span tree to the layers."""
    t = _span_totals(spans)
    seconds = probe.seconds
    seconds["prepare"] += t["fleet.plan"]
    seconds["network"] += t["fleet.completion_query"] + t["fleet.advance"]
    seconds["decide"] += t["fleet.dispatch"]
    seconds["loop"] += t["fleet.edge"] - sum(t[name] for name in _FLEET_STAGES)
    seconds["summarize"] += t["fleet.bucket_fold"] + t["fleet.merge"]
    probe.counts["steps"] += _span_count(spans, "fleet.edge", "events")


def _video(seed: int):
    spec = next(s for s in standard_dataset_specs() if s.name == VIDEO)
    return build_video(spec, seed=seed)


def _diff_metrics(label: str, got, want) -> List[str]:
    """Problems when two metric lists differ (bit-for-bit)."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} sessions, expected {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if bad:
        return [f"{label}: {len(bad)} sessions differ, first at trace {bad[0]}"]
    return []


def _check_results(label: str, results, reference) -> List[str]:
    problems = []
    for scheme, want in reference.items():
        result = results[scheme]
        if result.failures:
            problems.append(f"{label} {scheme}: {len(result.failures)} failed units")
        problems += _diff_metrics(f"{label} {scheme}", result.metrics, want)
    return problems


class Workload:
    """No-op defaults for the hooks most workloads do not need."""

    def next_inputs(self, rep: int) -> None:
        pass

    def final_check(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class SweepWorkload(Workload):
    """A serial CAVA+RBA sweep over seeded LTE traces, no store.

    Multi-trace units of batchable schemes run on the lockstep batch
    engine; this is the path of ``repro compare`` without a store.
    """

    def build(self, seed: int) -> None:
        self.video = _video(seed)
        self.traces = synthesize_lte_traces(count=SWEEP_TRACES, seed=seed)
        warm = self.run(-1, None)
        self.reference = {s: r.metrics for s, r in warm.items()}

    def run(self, rep: int, probe: Optional[Probe]):
        tracer = SpanTracer() if probe is not None else None
        runner = ParallelSweepRunner(n_workers=1, tracer=tracer)
        results = runner.run_comparison(BATCH_SCHEMES, self.video, self.traces, NETWORK)
        if probe is not None:
            _fold_sweep_spans(tracer.spans, probe)
        return results

    def sessions(self, outcome) -> int:
        return sum(len(r.metrics) for r in outcome.values())

    def check(self, rep: int, outcome) -> List[str]:
        return _check_results(f"rep {rep}", outcome, self.reference)

    def final_check(self) -> List[str]:
        """The batch engine must match the scalar player bit for bit."""
        problems = []
        cache = ArtifactCache()
        for scheme, metrics in self.reference.items():
            for index in (0, len(self.traces) - 1):
                scalar = run_one_session(
                    scheme, self.video, self.traces[index], NETWORK, CONFIG, cache=cache
                )
                if scalar != metrics[index]:
                    problems.append(f"batch != scalar for {scheme} trace {index}")
        return problems


class ScalarWorkload(Workload):
    """One session at a time through the scalar §6.1 player loop.

    Each unit streams every (scheme, trace) pair with ``run_one_session``
    over a fresh artifact cache, as one sweep invocation would.
    """

    def build(self, seed: int) -> None:
        self.video = _video(seed)
        self.metric = metric_for_network(NETWORK)
        self.traces = synthesize_lte_traces(count=SCALAR_TRACES, seed=seed)
        self.reference = self.run(-1, None)

    def run(self, rep: int, probe: Optional[Probe]):
        cache = ArtifactCache()
        if probe is None:
            return {
                scheme: [
                    run_one_session(scheme, self.video, trace, NETWORK, CONFIG, cache=cache)
                    for trace in self.traces
                ]
                for scheme in SCALAR_SCHEMES
            }
        return {
            scheme: [self._traced_session(scheme, trace, cache, probe) for trace in self.traces]
            for scheme in SCALAR_SCHEMES
        }

    def _traced_session(self, scheme, trace, cache: ArtifactCache, probe: Probe):
        """``run_one_session`` step by step, with each layer call timed."""
        perf = time.perf_counter
        seconds = probe.seconds
        t0 = perf()
        classifier = cache.classifier(self.video)
        manifest = cache.manifest(self.video, needs_quality_manifest(scheme))
        algorithm = make_scheme(scheme, metric=self.metric)
        link = cache.link(trace)
        t1 = perf()
        inner0 = seconds["decide"] + seconds["network"]
        outcome = StreamingSession(CONFIG).run(
            _Timed(
                algorithm,
                probe,
                "decide",
                ("prepare", "select_level", "requested_idle_s", "notify_download"),
            ),
            manifest,
            _Timed(link, probe, "network", ("download",)),
            _Timed(
                HarmonicMeanEstimator(),
                probe,
                "network",
                ("reset", "observe", "predict_bps"),
            ),
        )
        t2 = perf()
        metrics = summarize_session(outcome, self.video, self.metric, classifier)
        t3 = perf()
        seconds["prepare"] += t1 - t0
        seconds["loop"] += (t2 - t1) - (seconds["decide"] + seconds["network"] - inner0)
        seconds["summarize"] += t3 - t2
        probe.counts["steps"] += outcome.num_chunks
        return metrics

    def sessions(self, outcome) -> int:
        return sum(len(metrics) for metrics in outcome.values())

    def check(self, rep: int, outcome) -> List[str]:
        problems = []
        for scheme, want in self.reference.items():
            problems += _diff_metrics(f"rep {rep} {scheme}", outcome[scheme], want)
        return problems

    def final_check(self) -> List[str]:
        """The sweep engine (batch or scalar fallback) must agree."""
        runner = ParallelSweepRunner(n_workers=1)
        results = runner.run_comparison(SCALAR_SCHEMES, self.video, self.traces, NETWORK)
        problems = _check_results("sweep engine vs scalar", results, self.reference)
        for scheme, metrics in self.reference.items():
            for m in metrics:
                if not (m.rebuffer_s >= 0 and np.isfinite(m.mean_quality)):
                    problems.append(f"{scheme} {m.trace_name}: implausible metrics {m}")
        return problems


class StoreWorkload(Workload):
    """A sweep re-run against an on-disk session store.

    The store already holds every session of the first CACHED_TRACES
    traces; each unit adds FRESH_TRACES never-seen traces, so most of
    the grid is read back (key hashing, entry read, checksum) and the
    rest is simulated on the batch engine and written back. Each unit
    opens the store afresh, as a new ``repro compare`` process would.
    """

    root: Optional[Path] = None

    def build(self, seed: int) -> None:
        self.seed = seed
        self.video = _video(seed)
        self.cached = synthesize_lte_traces(count=CACHED_TRACES, seed=seed)
        self.root = Path(
            tempfile.mkdtemp(prefix=".perfbench-store-", dir=Path(__file__).resolve().parents[1])
        )
        runner = ParallelSweepRunner(n_workers=1, store=SessionStore(self.root))
        populated = runner.run_comparison(BATCH_SCHEMES, self.video, self.cached, NETWORK)
        self.reference = {s: r.metrics for s, r in populated.items()}
        self.first_fresh = None

    def next_inputs(self, rep: int) -> None:
        self.fresh = [
            synthesize_lte_trace(
                f"fresh-{rep}-{j}", derive_rng(self.seed, "perfbench", "fresh", str(rep), str(j))
            )
            for j in range(FRESH_TRACES)
        ]

    def run(self, rep: int, probe: Optional[Probe]):
        tracer = SpanTracer() if probe is not None else None
        store = SessionStore(self.root)
        runner = ParallelSweepRunner(n_workers=1, store=store, tracer=tracer)
        results = runner.run_comparison(
            BATCH_SCHEMES, self.video, self.cached + self.fresh, NETWORK
        )
        stats = store.stats
        if probe is not None:
            _fold_sweep_spans(tracer.spans, probe)
            probe.counts["store_hits"] += stats.hits
            probe.counts["store_misses"] += stats.misses
        return results, stats, self.fresh

    def sessions(self, outcome) -> int:
        return sum(len(r.metrics) for r in outcome[0].values())

    def check(self, rep: int, outcome) -> List[str]:
        results, stats, fresh = outcome
        problems = []
        hits = len(BATCH_SCHEMES) * CACHED_TRACES
        misses = len(BATCH_SCHEMES) * FRESH_TRACES
        if (stats.hits, stats.misses, stats.puts, stats.corrupt) != (hits, misses, misses, 0):
            problems.append(
                f"rep {rep}: store stats {stats}, expected {hits} hits and {misses} misses"
            )
        for scheme, want in self.reference.items():
            got = results[scheme].metrics
            if results[scheme].failures:
                problems.append(f"rep {rep} {scheme}: failed units")
            problems += _diff_metrics(f"rep {rep} {scheme} cached", got[:CACHED_TRACES], want)
            if len(got) != CACHED_TRACES + FRESH_TRACES:
                problems.append(f"rep {rep} {scheme}: {len(got)} sessions")
        if self.first_fresh is None:
            self.first_fresh = (fresh, {s: r.metrics[CACHED_TRACES:] for s, r in results.items()})
        return problems

    def final_check(self) -> List[str]:
        """Sessions simulated through the store equal a store-less run."""
        fresh, stored = self.first_fresh
        runner = ParallelSweepRunner(n_workers=1)
        results = runner.run_comparison(BATCH_SCHEMES, self.video, fresh, NETWORK)
        return _check_results("store misses vs no store", results, stored)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


class FleetWorkload(Workload):
    """A serial fleet: one shared edge, diurnal load and a flash crowd.

    Every arriving viewer streams through an event-driven session core
    on a max-min fair shared link.
    """

    def build(self, seed: int) -> None:
        self.spec = FleetSpec(
            seed=seed,
            duration_s=150.0,
            n_edges=1,
            arrivals_per_s=1.0,
            flash_crowds=(FlashCrowd(start_s=90.0, duration_s=30.0, multiplier=6.0),),
        )
        self.reference = fleet_fingerprint(self.run(-1, None))

    def run(self, rep: int, probe: Optional[Probe]):
        tracer = SpanTracer() if probe is not None else None
        result = run_fleet(self.spec, n_workers=1, tracer=tracer)
        if probe is not None:
            _fold_fleet_spans(tracer.spans, probe)
        return result

    def sessions(self, outcome) -> int:
        return outcome.sessions

    def check(self, rep: int, result) -> List[str]:
        problems = []
        if fleet_fingerprint(result) != self.reference:
            problems.append(f"rep {rep}: fleet fingerprint differs from the warm-up run")
        sessions = result.sessions
        if not (sessions > 0 and result.arrivals.sum() == sessions == result.finishes.sum()):
            problems.append(f"rep {rep}: arrivals/finishes do not conserve {sessions} sessions")
        if np.any(result.delivered_bits > result.capacity_bits * (1 + 1e-9)):
            problems.append(f"rep {rep}: an edge delivered more than its capacity")
        return problems


WORKLOADS = {
    "sweep": SweepWorkload,
    "scalar": ScalarWorkload,
    "store": StoreWorkload,
    "fleet": FleetWorkload,
}
