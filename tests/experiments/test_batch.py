"""Batch engine correctness: capability gating and bit-identity.

The lockstep batch engine is only allowed to exist because its results
are indistinguishable from the scalar session loop's. These tests check
the contract at every layer the dispatch touches:

- ``batch_capability`` accepts exactly the configurations the engine
  supports and rejects the rest (custom estimators, latency faults, the
  kill-switch, schemes without a batch decider);
- ``run_batch_sessions`` is bit-identical to the scalar loop for every
  batchable scheme, at full width and at a width that forces lane
  slicing (``to_dict`` equality covers every per-chunk float);
- ``run_batch_metrics``, which reduces metrics straight from the
  lockstep record matrices, equals ``summarize_session`` of the scalar
  sessions for every batchable scheme at both widths, and never builds
  the links' scalar lookup tables;
- a lane of a batch reproduces the archived golden snapshot byte for
  byte, tying the engine to the same oracle the scalar path answers to;
- the ``run_comparison``/``ParallelSweepRunner`` dispatch produces the
  same sweep results whether the engine is enabled, disabled, serial,
  or pooled;
- a unit one lane below its spec's break-even width runs the scalar
  loop and one at it runs the engine, both equal to a scalar run, and
  the ``unit.run`` span names the route and why;
- an exception inside the engine raises a ``SweepWorkerError`` naming
  the scheme and video with or without telemetry, while a declining
  decider still routes to the scalar loop;
- unit sizing costs batchable specs with the amortized batch numbers.
"""

import json
import os

import pytest

from repro.abr.registry import make_scheme, needs_quality_manifest
from repro.experiments.artifacts import ArtifactCache
from repro.abr.mpc import MPCAlgorithm
from repro.experiments import batch as batch_mod
from repro.experiments.batch import (
    DISABLE_BATCH_ENV,
    batch_capability,
    run_batch_metrics,
)
from repro.experiments.golden import (
    GOLDEN_METRIC,
    GOLDEN_NETWORK,
    GOLDEN_TRACE_SEED,
    golden_path,
    golden_trace,
    golden_video,
)
from repro.experiments.parallel import ParallelSweepRunner, SweepSpec
from repro.experiments.runner import run_comparison
from repro.experiments.scheduler import (
    BATCH_SCHEME_COSTS,
    MIN_ENGINE_LANES,
    SCHEME_COSTS,
    SweepWorkerError,
    engine_break_even,
    session_cost,
)
from repro.experiments.worker import SESSIONS_COMPLETED_METRIC, SESSIONS_FAILED_METRIC
from repro.faults.plan import FaultPlan, LatencyFault, ScaleFault
from repro.network.estimator import HarmonicMeanEstimator
from repro.network.link import TraceLink
from repro.network.traces import synthesize_lte_traces
from repro.player.metrics import summarize_session
from repro.player.session import SessionConfig, StreamingSession
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer
from tests.experiments.reference import run_batch_sessions

#: CI exports this to exercise the dispatch under both fork and spawn.
MP_CONTEXT = os.environ.get("REPRO_MP_START_METHOD") or None

#: Every scheme the engine currently vectorizes; anything else must be
#: rejected by the capability probe rather than silently run wrong.
BATCHABLE_SCHEMES = (
    "CAVA",
    "CAVA-p1",
    "CAVA-p12",
    "RBA",
    "MPC",
    "RobustMPC",
    "PANDA/CQ max-sum",
    "PANDA/CQ max-min",
)


@pytest.fixture(scope="module")
def video():
    return golden_video()


@pytest.fixture(scope="module")
def traces():
    # Trace 0 is the golden trace, so golden-lane comparison rides the
    # same batch as the scalar sweep.
    return synthesize_lte_traces(count=5, seed=GOLDEN_TRACE_SEED)


def break_even(scheme):
    return engine_break_even(SweepSpec(scheme=scheme, video_key="v"))


@pytest.fixture(scope="module")
def wide_traces():
    """Just enough traces that a one-unit sweep of any batchable scheme
    takes the engine; trace 0 is the golden trace, as in ``traces``."""
    width = max(break_even(scheme) for scheme in BATCHABLE_SCHEMES)
    return synthesize_lte_traces(count=width, seed=GOLDEN_TRACE_SEED)


def unit_spans(tracer, name):
    return [span for span in tracer.spans if span["name"] == name]


def scalar_sessions(scheme, video, traces):
    manifest = video.manifest(include_quality=needs_quality_manifest(scheme))
    results = []
    for trace in traces:
        algorithm = make_scheme(scheme, metric=GOLDEN_METRIC)
        results.append(
            StreamingSession(SessionConfig()).run(algorithm, manifest, TraceLink(trace))
        )
    return results


class TestCapability:
    def test_accepts_plain_schemes(self):
        for scheme in BATCHABLE_SCHEMES:
            assert batch_capability(scheme, network=GOLDEN_NETWORK), scheme

    def test_rejects_custom_estimator(self):
        assert not batch_capability(
            "CAVA", estimator_factory=lambda trace: HarmonicMeanEstimator()
        )

    def test_rejects_latency_faults(self):
        plan = FaultPlan(faults=(LatencyFault(p=0.5, spike_s=1.0),), seed=7)
        assert not batch_capability("CAVA", fault_plan=plan)

    def test_accepts_trace_only_faults(self):
        # Trace-level faults are applied before traces reach a session;
        # wrap_link is a no-op for them, so the batch engine is exact.
        plan = FaultPlan(faults=(ScaleFault(factor=0.5),), seed=7)
        assert batch_capability("CAVA", fault_plan=plan)

    def test_rejects_schemes_without_batch_decider(self):
        assert not batch_capability("BOLA-E avg")

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        assert not batch_capability("CAVA")


@pytest.mark.parametrize("scheme", BATCHABLE_SCHEMES)
@pytest.mark.parametrize("max_lanes", [None, 2])
def test_batch_bit_identical_to_scalar(scheme, video, traces, max_lanes):
    scalars = scalar_sessions(scheme, video, traces)
    batched = run_batch_sessions(
        scheme, video, traces, network=GOLDEN_NETWORK, max_lanes=max_lanes
    )
    assert batched is not None
    assert len(batched) == len(scalars)
    for scalar, batch in zip(scalars, batched):
        assert batch.to_dict() == scalar.to_dict()


@pytest.mark.parametrize("scheme", BATCHABLE_SCHEMES)
@pytest.mark.parametrize("max_lanes", [None, 2])
def test_batch_metrics_equal_scalar_summaries(scheme, video, traces, max_lanes):
    expected = [
        summarize_session(session, video, GOLDEN_METRIC)
        for session in scalar_sessions(scheme, video, traces)
    ]
    [batched] = run_batch_metrics(
        [scheme], video, traces, network=GOLDEN_NETWORK, max_lanes=max_lanes
    )
    assert batched == expected


def test_batch_metrics_leave_scalar_link_tables_unbuilt(video, traces):
    """The engine stacks the numpy tables; the Python-list copies of the
    scalar fast path stay unbuilt on every cached link."""
    cache = ArtifactCache()
    assert run_batch_metrics(
        ["CAVA"], video, traces, network=GOLDEN_NETWORK, cache=cache
    ) != [None]
    for trace in traces:
        link = cache.link(trace)
        assert "_cumulative_list" not in link.__dict__
        assert "_rates_list" not in link.__dict__
    # First scalar use builds them.
    link.download(1e6, 0.0)
    assert "_cumulative_list" in link.__dict__


@pytest.mark.parametrize("scheme", ["CAVA", "MPC", "PANDA/CQ max-sum"])
def test_batch_lane_matches_golden_snapshot(scheme, video, traces):
    path = golden_path(scheme)
    if not path.exists():
        pytest.skip(f"no golden snapshot for {scheme}")
    assert traces[0].throughputs_bps.tolist() == golden_trace().throughputs_bps.tolist()
    batched = run_batch_sessions(scheme, video, traces, network=GOLDEN_NETWORK)
    archived = json.loads(path.read_text())
    actual = batched[0].to_dict()
    assert actual.keys() == archived.keys()
    for key in archived:
        assert actual[key] == archived[key], f"{scheme}: field {key!r} diverged"


class TestSweepDispatch:
    def test_run_comparison_identical_with_engine_disabled(
        self, video, wide_traces, monkeypatch
    ):
        schemes = ["CAVA", "RBA", "MPC"]
        traces = wide_traces  # one break-even-wide unit per scheme
        batched = run_comparison(schemes, video, traces, network=GOLDEN_NETWORK)
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        scalar = run_comparison(schemes, video, traces, network=GOLDEN_NETWORK)
        for scheme in schemes:
            assert batched[scheme].metrics == scalar[scheme].metrics

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_engine_identical(self, video, workers, monkeypatch):
        schemes = ["CAVA", "PANDA/CQ max-min"]
        # Each worker's CAVA unit is exactly at break-even width, so
        # both schemes reach the engine on every worker count.
        traces = synthesize_lte_traces(
            count=workers * break_even("CAVA"), seed=GOLDEN_TRACE_SEED
        )
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        scalar = run_comparison(schemes, video, traces, network=GOLDEN_NETWORK)
        monkeypatch.delenv(DISABLE_BATCH_ENV)
        tracer = SpanTracer()
        engine = ParallelSweepRunner(
            n_workers=workers,
            min_parallel_sessions=0,
            mp_context=MP_CONTEXT,
            tracer=tracer,
        )
        pooled = engine.run_comparison(schemes, video, traces, network=GOLDEN_NETWORK)
        for scheme in schemes:
            assert pooled[scheme].metrics == scalar[scheme].metrics
        # CAVA and a planner have different lane caps, so they never
        # share a slice: one unit.batch and one batch.decide per scheme.
        batched = unit_spans(tracer, "unit.batch")
        assert {span["meta"]["scheme"] for span in batched} == set(schemes)
        decided = unit_spans(tracer, "batch.decide")
        assert {span["meta"]["scheme"] for span in decided} == set(schemes)
        assert all(
            span["meta"]["engine"] == "batch" for span in unit_spans(tracer, "unit.run")
        )


class TestWidthRouting:
    """A unit one lane below its spec's break-even runs the scalar loop,
    and one at break-even runs the engine; both give the scalar bits."""

    @pytest.mark.parametrize("scheme", BATCHABLE_SCHEMES)
    def test_break_even_boundary(self, scheme, video, monkeypatch):
        width = break_even(scheme)
        below = synthesize_lte_traces(count=width - 1, seed=GOLDEN_TRACE_SEED)
        at = synthesize_lte_traces(count=width, seed=GOLDEN_TRACE_SEED + 1)
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        reference = [
            ParallelSweepRunner(n_workers=1).run_scheme(
                scheme, video, lanes, network=GOLDEN_NETWORK
            ).metrics
            for lanes in (below, at)
        ]
        monkeypatch.delenv(DISABLE_BATCH_ENV)
        for lanes, want, engine in zip((below, at), reference, ("scalar", "batch")):
            tracer = SpanTracer()
            result = ParallelSweepRunner(n_workers=1, tracer=tracer).run_scheme(
                scheme, video, lanes, network=GOLDEN_NETWORK
            )
            assert result.metrics == want
            assert len(unit_spans(tracer, "unit.batch")) == (engine == "batch")
            (run,) = unit_spans(tracer, "unit.run")
            assert run["meta"]["engine"] == engine
            if engine == "scalar":
                assert run["meta"]["reason"] == (
                    f"{width - 1} lanes below break-even {width}"
                )

    def test_break_even_widths(self):
        # The lockstep engine's fixed cost per unit outweighs a few cheap
        # scalar sessions; planner sessions cost enough to batch from two
        # lanes, and a one-trace unit never takes the engine.
        assert MIN_ENGINE_LANES == 2
        for scheme in ("CAVA", "CAVA-p1", "CAVA-p12", "RBA"):
            assert break_even(scheme) > 4
        for scheme in ("MPC", "RobustMPC", "PANDA/CQ max-sum", "PANDA/CQ max-min"):
            assert break_even(scheme) == MIN_ENGINE_LANES

    def test_rejected_spec_reports_the_probe_reason(self, video, traces):
        tracer = SpanTracer()
        ParallelSweepRunner(n_workers=1, tracer=tracer).run_scheme(
            "BOLA-E (peak)", video, traces, network=GOLDEN_NETWORK
        )
        (run,) = unit_spans(tracer, "unit.run")
        assert run["meta"]["engine"] == "scalar"
        assert run["meta"]["reason"] == batch_capability("BOLA-E (peak)").reason
        assert not unit_spans(tracer, "unit.batch")


class TestEngineFailure:
    """An exception inside the lockstep engine fails the sweep loudly,
    whatever the options: it is never re-run on the scalar loop."""

    @pytest.fixture
    def broken_engine(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("engine defect")

        monkeypatch.setattr(batch_mod, "run_lockstep_sessions", explode)

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda *a, **kw: run_comparison(*a, **kw), id="default"),
            pytest.param(
                lambda *a, **kw: run_comparison(*a, registry=MetricsRegistry(), **kw),
                id="registry",
            ),
            pytest.param(
                lambda *a, **kw: ParallelSweepRunner(n_workers=1).run_comparison(
                    *a, **kw
                ),
                id="engine",
            ),
        ],
    )
    def test_engine_exception_raises_sweep_worker_error(
        self, broken_engine, video, wide_traces, run
    ):
        # A break-even-wide unit, so the sweep reaches the broken engine.
        with pytest.raises(SweepWorkerError) as info:
            run(["CAVA"], video, wide_traces, network=GOLDEN_NETWORK)
        error = info.value
        assert error.spec_label == "CAVA"
        assert error.video_name == video.name
        # The engine runs every lane at once: the unit's first trace is named.
        assert error.trace_name == wide_traces[0].name
        assert "CAVA" in str(error) and video.name in str(error)
        assert isinstance(error.__cause__, RuntimeError)
        assert "engine defect" in error.cause

    def test_failed_unit_is_counted(self, broken_engine, video, wide_traces):
        registry = MetricsRegistry()
        with pytest.raises(SweepWorkerError) as info:
            run_comparison(
                ["CAVA"], video, wide_traces, network=GOLDEN_NETWORK, registry=registry
            )
        assert "engine defect" in info.value.cause
        assert registry.value(SESSIONS_FAILED_METRIC) == 1
        assert registry.value(SESSIONS_COMPLETED_METRIC) == 0

    def test_declining_decider_still_routes_to_scalar(
        self, broken_engine, video, traces, monkeypatch
    ):
        # A decider that returns None is routing, not a failure: the
        # unit runs on the scalar loop and never reaches the engine.
        asked = []
        monkeypatch.setattr(
            MPCAlgorithm, "batch_decider", lambda self, m, n: asked.append(n)
        )
        declined = run_comparison(["MPC"], video, traces, network=GOLDEN_NETWORK)
        assert asked == [len(traces)]  # the unit was routed to the engine
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        scalar = run_comparison(["MPC"], video, traces, network=GOLDEN_NETWORK)
        assert declined["MPC"].metrics == scalar["MPC"].metrics


class TestBatchAwareCosts:
    def test_batchable_scheme_uses_amortized_cost(self):
        spec = SweepSpec(scheme="MPC", video_key="v")
        assert session_cost(spec) == BATCH_SCHEME_COSTS["MPC"]
        assert session_cost(spec) < SCHEME_COSTS["MPC"]

    def test_non_batchable_spec_keeps_scalar_cost(self):
        spec = SweepSpec(
            scheme="MPC",
            video_key="v",
            estimator_factory=lambda trace: HarmonicMeanEstimator(),
        )
        assert session_cost(spec) == SCHEME_COSTS["MPC"]

    def test_kill_switch_restores_scalar_costs(self, monkeypatch):
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        assert session_cost(SweepSpec(scheme="RBA", video_key="v")) == SCHEME_COSTS["RBA"]
        assert session_cost(SweepSpec(scheme="CAVA", video_key="v")) == 1.0
