"""Co-units: the units of several schemes sharing one lockstep slice.

The scheduler joins units that stream the same (video, network, fault
plan) over the same trace run and that each take the engine on their
own (``join_co_units``). These tests pin what that join must not
change and what it must keep:

- which units join: only engine-routed ones with equal keys, bounds and
  lane caps; routing and unit bounds are untouched;
- results: a joined sweep equals the scalar loop, serial and pooled;
- spans: one ``unit.run`` per member unit (each carrying ``engine``),
  one ``unit.batch`` and one ``batch.prepare``/``estimate``/``advance``
  per co-unit, one ``batch.decide`` per scheme carrying that scheme;
- failures stay per spec: a decider that raises in one group names that
  group's spec and the unit's first trace, and under ``skip``/``retry``
  the other members still settle with their solo results.
"""

import multiprocessing

import pytest

from repro.abr.rba import _BatchRbaDecider
from repro.experiments.batch import DISABLE_BATCH_ENV
from repro.experiments.parallel import ParallelSweepRunner, SweepSpec
from repro.experiments.scheduler import (
    SweepWorkerError,
    WorkUnit,
    engine_break_even,
    join_co_units,
)
from repro.faults.plan import FaultPlan, ScaleFault
from repro.telemetry.spans import SpanTracer

SCHEMES = ["CAVA", "RBA"]
SCALED = FaultPlan(faults=(ScaleFault(factor=0.5),), seed=1)


def spans_named(tracer, name):
    return [span for span in tracer.spans if span["name"] == name]


class TestJoin:
    def test_engine_units_with_equal_keys_join(self):
        specs = [
            SweepSpec("CAVA", "v"),
            SweepSpec("RBA", "v"),
            SweepSpec("RBA", "w"),
            SweepSpec("RBA", "v", network="fcc"),
            SweepSpec("MPC", "v"),
            SweepSpec("RBA", "v", fault_plan=SCALED),
            SweepSpec("PANDA/CQ max-min", "v"),
        ]
        units = [WorkUnit(order, order, 0, 32) for order in range(len(specs))]
        co_units = join_co_units(specs, units)
        # Planners join each other, never CAVA/RBA: their lane cap differs.
        assert [tuple(u.order for u in co) for co in co_units] == [
            (0, 1),
            (2,),
            (3,),
            (4, 6),
            (5,),
        ]

    def test_other_bounds_and_scalar_routes_stay_alone(self):
        width = engine_break_even(SweepSpec("CAVA", "v"))
        specs = [
            SweepSpec("CAVA", "v"),
            SweepSpec("RBA", "v"),
            SweepSpec("BOLA-E (peak)", "v"),
        ]
        units = [
            WorkUnit(0, 0, 0, width),
            WorkUnit(1, 1, 0, width + 1),  # other bounds
            WorkUnit(2, 2, 0, width),  # never batchable
            WorkUnit(3, 0, width, 2 * width - 1),  # below break-even
            WorkUnit(4, 1, width, 2 * width - 1),
        ]
        co_units = join_co_units(specs, units)
        assert [tuple(u.order for u in co) for co in co_units] == [
            (0,),
            (1,),
            (2,),
            (3,),
            (4,),
        ]

    def test_kill_switch_joins_nothing(self, monkeypatch):
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        specs = [SweepSpec("CAVA", "v"), SweepSpec("RBA", "v")]
        units = [WorkUnit(0, 0, 0, 64), WorkUnit(1, 1, 0, 64)]
        assert len(join_co_units(specs, units)) == 2


class TestSharedSlices:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_results_equal_scalar_loop(
        self, short_video, engine_traces, n_workers, monkeypatch
    ):
        monkeypatch.setenv(DISABLE_BATCH_ENV, "1")
        scalar = ParallelSweepRunner(n_workers=1).run_comparison(
            SCHEMES, short_video, engine_traces
        )
        monkeypatch.delenv(DISABLE_BATCH_ENV)
        joined = ParallelSweepRunner(
            n_workers=n_workers, min_parallel_sessions=0
        ).run_comparison(SCHEMES, short_video, engine_traces)
        for scheme in SCHEMES:
            assert joined[scheme].metrics == scalar[scheme].metrics

    def test_span_layout(self, short_video, engine_traces):
        tracer = SpanTracer()
        ParallelSweepRunner(n_workers=1, tracer=tracer).run_comparison(
            SCHEMES, short_video, engine_traces
        )
        runs = spans_named(tracer, "unit.run")
        assert sorted(span["meta"]["scheme"] for span in runs) == SCHEMES
        assert all(span["meta"]["engine"] == "batch" for span in runs)
        # The two member units nest: one ran inside the other's span.
        assert runs[1]["parent"] == tracer.spans.index(runs[0])
        [batch] = spans_named(tracer, "unit.batch")
        assert batch["meta"]["scheme"] == "CAVA+RBA"
        assert batch["meta"]["lanes"] == 2 * len(engine_traces)
        for stage in ("batch.prepare", "batch.estimate", "batch.advance"):
            [span] = spans_named(tracer, stage)
            assert span["meta"]["scheme"] == "CAVA+RBA"
        decides = spans_named(tracer, "batch.decide")
        assert sorted(span["meta"]["scheme"] for span in decides) == SCHEMES
        chunks = short_video.num_chunks
        assert [span["meta"]["count"] for span in decides] == [chunks, chunks]


START_METHODS = ["fork"] if "fork" in multiprocessing.get_all_start_methods() else []


class TestFailureAttribution:
    """A decider that raises in one group of a shared slice."""

    @pytest.fixture
    def broken_rba(self, monkeypatch):
        def explode(self, ctx):
            raise RuntimeError("rba decider defect")

        monkeypatch.setattr(_BatchRbaDecider, "select_levels", explode)

    @pytest.fixture
    def cava_alone(self, short_video, engine_traces):
        return (
            ParallelSweepRunner(n_workers=1)
            .run_scheme("CAVA", short_video, engine_traces)
            .metrics
        )

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_raise_names_the_failing_group(
        self, broken_rba, short_video, engine_traces, n_workers
    ):
        engine = ParallelSweepRunner(
            n_workers=n_workers,
            min_parallel_sessions=0,
            mp_context="fork" if n_workers > 1 and START_METHODS else None,
        )
        if n_workers > 1 and not START_METHODS:
            pytest.skip("the patched decider reaches pool workers only by fork")
        with pytest.raises(SweepWorkerError) as info:
            engine.run_comparison(SCHEMES, short_video, engine_traces)
        error = info.value
        assert error.spec_label == "RBA"
        assert error.video_name == short_video.name
        # Every co-unit fails; the pool raises the failure it settles
        # first, so the trace is the first of one unit.
        width = len(engine_traces) // n_workers
        assert error.trace_name in {trace.name for trace in engine_traces[::width]}
        assert "rba decider defect" in error.cause
        if n_workers == 1:
            assert isinstance(error.__cause__, RuntimeError)

    @pytest.mark.parametrize("policy", ["skip", "retry"])
    def test_other_members_still_settle(
        self, broken_rba, short_video, engine_traces, cava_alone, policy
    ):
        tracer = SpanTracer()
        results = ParallelSweepRunner(
            n_workers=1, on_error=policy, max_retries=1, tracer=tracer
        ).run_comparison(SCHEMES, short_video, engine_traces)
        assert results["CAVA"].metrics == cava_alone
        assert not results["CAVA"].failures
        [failed] = results["RBA"].failures
        assert not results["RBA"].metrics
        assert failed.trace_name == engine_traces[0].name
        assert failed.attempts == (2 if policy == "retry" else 1)
        assert "rba decider defect" in failed.error
        # The shared slice failed once; each spec then ran alone, and a
        # retry re-ran RBA alone.
        batches = [span["meta"]["scheme"] for span in spans_named(tracer, "unit.batch")]
        assert batches == ["CAVA+RBA", "CAVA", "RBA"] + (
            ["RBA"] if policy == "retry" else []
        )

    @pytest.mark.skipif(not START_METHODS, reason="needs the fork start method")
    def test_pool_members_settle_under_skip(
        self, broken_rba, short_video, engine_traces, cava_alone
    ):
        results = ParallelSweepRunner(
            n_workers=2, min_parallel_sessions=0, on_error="skip", mp_context="fork"
        ).run_comparison(SCHEMES, short_video, engine_traces)
        assert results["CAVA"].metrics == cava_alone
        assert len(results["RBA"].failures) == 2  # one per pool unit
