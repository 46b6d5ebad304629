"""Tests for the sweep engine's failure policy and fault injection.

The load-bearing properties:

- ``on_error="skip"`` drops exactly the failing unit; every other unit's
  metrics come back bit-identical to a clean run, with one
  :class:`FailedUnit` record per dropped unit;
- ``on_error="retry"`` converges to the full bit-identical result when
  the failure is transient (sessions are seeded, so a retry replays
  exactly);
- a broken pool (worker killed mid-unit) is respawned once and the
  sweep still completes bit-identically;
- failure telemetry is exact: two simultaneously failing units count as
  two failed sessions, because workers ship their telemetry snapshot
  back even when the unit fails;
- when every unit fails, the raised error is the earliest-ordered
  unit's, whatever order the pool finishes them in;
- fault-injected sweeps are bit-identical at any worker count.

``REPRO_MP_START_METHOD`` (set by CI) forces the pool start method, so
this suite runs under both ``fork`` and ``spawn``.
"""

import os

import pytest

from repro.experiments.parallel import (
    FAULTS_INJECTED_METRIC,
    POOL_RESPAWNS_METRIC,
    RETRIES_METRIC,
    SESSIONS_FAILED_METRIC,
    SKIPPED_UNITS_METRIC,
    ParallelSweepRunner,
    SweepSpec,
    SweepWorkerError,
)
from repro.experiments.runner import FailedUnit, run_comparison, run_scheme_on_traces
from repro.faults.plan import FaultPlan, LatencyFault, OutageFault
from repro.telemetry.metrics import MetricsRegistry

#: CI exports this to exercise the suite under both fork and spawn.
MP_CONTEXT = os.environ.get("REPRO_MP_START_METHOD") or None


def make_engine(**kwargs):
    kwargs.setdefault("mp_context", MP_CONTEXT)
    kwargs.setdefault("min_parallel_sessions", 0)
    return ParallelSweepRunner(**kwargs)


class ExplodingEstimatorFactory:
    """Picklable estimator factory that always fails on named traces."""

    def __init__(self, *fail_on: str):
        self.fail_on = frozenset(fail_on)

    def __call__(self, trace):
        if trace.name in self.fail_on:
            raise RuntimeError("injected estimator failure")
        return None  # fall back to the default harmonic-mean estimator


class TransientEstimatorFactory:
    """Fails on one named trace until a flag file exists, then succeeds.

    The flag lives on the shared filesystem, so the first (failing)
    attempt is visible to whichever process runs the retry — works under
    fork and spawn alike.
    """

    def __init__(self, fail_on: str, flag_path: str):
        self.fail_on = fail_on
        self.flag_path = flag_path

    def __call__(self, trace):
        if trace.name == self.fail_on and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("tripped")
            raise RuntimeError("transient estimator failure")
        return None


class PoolKillerEstimatorFactory:
    """Kills the worker process outright on first sight of one trace.

    ``os._exit`` bypasses every exception handler — the parent sees a
    :class:`BrokenProcessPool`, the worst failure mode a sweep can hit.
    The flag file (written *before* dying) makes the crash one-shot.
    """

    def __init__(self, fail_on: str, flag_path: str):
        self.fail_on = fail_on
        self.flag_path = flag_path

    def __call__(self, trace):
        if trace.name == self.fail_on and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("killed")
            os._exit(1)
        return None


class AlwaysKillEstimatorFactory:
    """Kills the worker on *every* sight of one trace (never recovers)."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on

    def __call__(self, trace):
        if trace.name == self.fail_on:
            os._exit(1)
        return None


class TestSkipPolicy:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_skip_drops_only_the_failing_unit(self, short_video, lte_traces, n_workers):
        traces = lte_traces[:6]
        clean = run_scheme_on_traces("RBA", short_video, traces)
        engine = make_engine(n_workers=n_workers, batch_size=2, on_error="skip")
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            traces,
            estimator_factory=ExplodingEstimatorFactory(traces[3].name),
        )
        # unit [2:4] is gone; everything else is bit-identical
        assert not sweep.complete
        expected = clean.metrics[:2] + clean.metrics[4:]
        assert sweep.metrics == expected
        (failed,) = sweep.failures
        assert isinstance(failed, FailedUnit)
        assert (failed.start, failed.stop) == (2, 4)
        assert failed.num_traces == 2
        assert failed.scheme == "RBA"
        assert failed.trace_name == traces[3].name
        assert failed.attempts == 1
        assert "injected estimator failure" in failed.error
        assert failed.trace_name in str(failed)

    def test_skip_serial_drops_whole_spec_unit(self, short_video, lte_traces):
        # The serial path keeps its one-unit-per-spec granularity.
        engine = ParallelSweepRunner(n_workers=1, on_error="skip")
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            lte_traces[:4],
            estimator_factory=ExplodingEstimatorFactory(lte_traces[2].name),
        )
        assert sweep.metrics == []
        (failed,) = sweep.failures
        assert (failed.start, failed.stop) == (0, 4)

    def test_one_crashing_spec_leaves_others_bit_identical(
        self, short_video, lte_traces
    ):
        # Acceptance shape: a multi-scheme sweep where one scheme's unit
        # crashes returns every other unit bit-identical to a clean run
        # plus exactly one FailedUnit.
        traces = lte_traces[:6]
        schemes = ["CAVA", "RBA", "BBA-1"]
        clean = run_comparison(schemes, short_video, traces)
        videos = {short_video.name: short_video}
        specs = [
            SweepSpec(scheme=scheme, video_key=short_video.name) for scheme in schemes
        ]
        specs[1] = SweepSpec(
            scheme="RBA",
            video_key=short_video.name,
            estimator_factory=ExplodingEstimatorFactory(traces[5].name),
        )
        engine = make_engine(n_workers=2, batch_size=3, on_error="skip")
        results = engine.run_specs(specs, videos, traces)
        assert results[0].metrics == clean["CAVA"].metrics
        assert results[2].metrics == clean["BBA-1"].metrics
        assert results[1].metrics == clean["RBA"].metrics[:3]
        all_failures = [f for r in results for f in r.failures]
        assert len(all_failures) == 1
        assert all_failures[0].scheme == "RBA"

    def test_raise_is_still_the_default(self, short_video, lte_traces):
        engine = make_engine(n_workers=2, batch_size=2)
        with pytest.raises(SweepWorkerError):
            engine.run_scheme(
                "RBA",
                short_video,
                lte_traces[:4],
                estimator_factory=ExplodingEstimatorFactory(lte_traces[1].name),
            )


class TestRetryPolicy:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_transient_failure_converges_bit_identical(
        self, short_video, lte_traces, tmp_path, n_workers
    ):
        traces = lte_traces[:6]
        clean = run_scheme_on_traces("RBA", short_video, traces)
        registry = MetricsRegistry()
        engine = make_engine(
            n_workers=n_workers, batch_size=2, on_error="retry", registry=registry
        )
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            traces,
            estimator_factory=TransientEstimatorFactory(
                traces[3].name, str(tmp_path / "tripped.flag")
            ),
        )
        assert sweep.complete
        assert sweep.metrics == clean.metrics
        assert registry.value(RETRIES_METRIC) == 1
        # the failed first attempt is still counted — telemetry from a
        # failing unit is shipped back, not lost
        assert registry.value(SESSIONS_FAILED_METRIC) == 1
        assert registry.value(SKIPPED_UNITS_METRIC) == 0

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_exhausted_retries_become_failed_unit(
        self, short_video, lte_traces, n_workers
    ):
        registry = MetricsRegistry()
        engine = make_engine(
            n_workers=n_workers,
            batch_size=2,
            on_error="retry",
            max_retries=1,
            registry=registry,
        )
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            lte_traces[:4],
            estimator_factory=ExplodingEstimatorFactory(lte_traces[1].name),
        )
        (failed,) = sweep.failures
        assert failed.attempts == 2  # initial try + one retry
        assert registry.value(RETRIES_METRIC) == 1
        assert registry.value(SKIPPED_UNITS_METRIC) == 1


class TestBrokenPoolRecovery:
    def test_pool_respawned_once_and_sweep_completes(
        self, short_video, lte_traces, tmp_path
    ):
        traces = lte_traces[:6]
        clean = run_scheme_on_traces("RBA", short_video, traces)
        registry = MetricsRegistry()
        engine = make_engine(n_workers=2, batch_size=2, registry=registry)
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            traces,
            estimator_factory=PoolKillerEstimatorFactory(
                traces[3].name, str(tmp_path / "killed.flag")
            ),
        )
        # The killed unit (and any units in flight when the pool died)
        # were requeued onto a fresh pool; sessions are seeded, so the
        # result is still bit-identical and complete.
        assert sweep.complete
        assert sweep.metrics == clean.metrics
        assert registry.value(POOL_RESPAWNS_METRIC) == 1

    def test_persistent_crash_breaks_pool_twice_and_raises(
        self, short_video, lte_traces
    ):
        from concurrent.futures.process import BrokenProcessPool

        engine = make_engine(n_workers=2, batch_size=2, on_error="skip")
        with pytest.raises(BrokenProcessPool, match="twice"):
            engine.run_scheme(
                "RBA",
                short_video,
                lte_traces[:4],
                estimator_factory=AlwaysKillEstimatorFactory(lte_traces[1].name),
            )


class TestFailureTelemetry:
    def test_two_simultaneous_failures_both_counted(self, short_video, lte_traces):
        # Two units fail at the same time on a two-worker pool; the old
        # parent-side accounting counted "a sweep failed" once. Worker
        # snapshots carry the real number.
        traces = lte_traces[:4]
        registry = MetricsRegistry()
        engine = make_engine(
            n_workers=2, batch_size=2, on_error="skip", registry=registry
        )
        sweep = engine.run_scheme(
            "RBA",
            short_video,
            traces,
            estimator_factory=ExplodingEstimatorFactory(
                traces[0].name, traces[2].name
            ),
        )
        assert registry.value(SESSIONS_FAILED_METRIC) == 2
        assert registry.value(SKIPPED_UNITS_METRIC) == 2
        assert len(sweep.failures) == 2
        assert [f.start for f in sweep.failures] == [0, 2]
        assert sweep.metrics == []


class TestAbortOrder:
    def test_earliest_unit_named_when_every_unit_fails(self, short_video, lte_traces):
        # Every unit raises (an outage on every interval leaves no bits
        # to download), and both units of the two-worker pool are in
        # flight together. Whichever settles first, the abort settles
        # the other as well, so the raised error is always unit 0's.
        plan = FaultPlan((OutageFault(p=1.0, duration_intervals=1),), seed=0)
        named = []
        for _ in range(10):
            engine = make_engine(n_workers=2, fault_plan=plan)
            with pytest.raises(SweepWorkerError) as info:
                engine.run_comparison(["CAVA", "RBA"], short_video, lte_traces)
            named.append((info.value.spec_label, info.value.trace_name))
        assert named == [("CAVA", lte_traces[0].name)] * 10


class TestFaultInjection:
    PLAN = FaultPlan(
        (OutageFault(p=0.02, duration_intervals=4), LatencyFault(p=0.1, spike_s=0.5)),
        seed=7,
    )

    def test_faulted_sweep_identical_across_worker_counts(
        self, short_video, lte_traces
    ):
        traces = lte_traces[:6]
        results = {}
        for n_workers in (1, 2):
            engine = make_engine(n_workers=n_workers, fault_plan=self.PLAN)
            results[n_workers] = engine.run_comparison(
                ["CAVA", "RBA"], short_video, traces
            )
        for scheme in ("CAVA", "RBA"):
            assert results[1][scheme].metrics == results[2][scheme].metrics

    def test_faults_change_the_outcome(self, short_video, lte_traces):
        traces = lte_traces[:4]
        clean = run_scheme_on_traces("RBA", short_video, traces)
        plan = FaultPlan((OutageFault(p=0.1, duration_intervals=10),), seed=3)
        faulted = make_engine(n_workers=1, fault_plan=plan).run_scheme(
            "RBA", short_video, traces
        )
        assert faulted.metrics != clean.metrics

    def test_injected_events_counted_once(self, short_video, lte_traces):
        counts = {}
        for n_workers in (1, 2):
            registry = MetricsRegistry()
            engine = make_engine(
                n_workers=n_workers, fault_plan=self.PLAN, registry=registry
            )
            engine.run_scheme("RBA", short_video, lte_traces[:4])
            counts[n_workers] = registry.value(FAULTS_INJECTED_METRIC)
        assert counts[1] == counts[2] > 0

    def test_poison_plan_with_skip_policy_survives(self, short_video, lte_traces):
        # An outage on every interval floors the whole trace to zero;
        # TraceLink rejects a zero-bit trace, so every unit fails — and
        # under "skip" the sweep still returns instead of crashing.
        plan = FaultPlan((OutageFault(p=1.0, duration_intervals=1),), seed=0)
        engine = make_engine(
            n_workers=2, batch_size=2, fault_plan=plan, on_error="skip"
        )
        sweep = engine.run_scheme("RBA", short_video, lte_traces[:4])
        assert sweep.metrics == []
        assert len(sweep.failures) == 2
        assert all("zero bits" in f.error for f in sweep.failures)

    def test_run_comparison_routes_fault_policy_kwargs(self, short_video, lte_traces):
        results = run_comparison(
            ["RBA"],
            short_video,
            lte_traces[:2],
            fault_plan=FaultPlan((OutageFault(p=0.05),), seed=1),
            on_error="skip",
        )
        sweep = results["RBA"]
        assert sweep.complete  # mild plan: nothing should actually fail
        assert len(sweep.metrics) == 2


class TestPolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            ParallelSweepRunner(on_error="explode")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            ParallelSweepRunner(max_retries=-1)
