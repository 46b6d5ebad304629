"""Cross-process span stitching and telemetry-merge tests.

The observability-plane contracts, pinned at workers {1, 2} under both
fork and spawn start methods:

- attaching a tracer / registry / progress board never changes results
  (bit-identity with the plain serial runner);
- worker-recorded spans ship back with unit results and stitch into one
  deterministic timeline (scheduler track + per-worker tracks, nesting
  intact, tagged with unit order and attempt);
- spans and metrics snapshots survive *failed* units — a dropped
  :class:`FailedUnit` still contributes its unit.run span (with error
  meta) and its telemetry.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.dataplane import SharedDataPlane
from repro.experiments.parallel import (
    SESSIONS_COMPLETED_METRIC,
    SESSIONS_FAILED_METRIC,
    ParallelSweepRunner,
    SweepSpec,
)
from repro.experiments.runner import run_comparison
from repro.experiments.worker import init_worker, run_batch_in_worker
from repro.player.session import SessionConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.pipeline import (
    SPAN_STORE_PARTITION,
    SPAN_SWEEP_DRAIN,
    SPAN_SWEEP_MERGE,
    SPAN_SWEEP_PLAN,
    SPAN_UNIT_BATCH,
    SPAN_UNIT_RUN,
    ProgressBoard,
    chrome_trace,
    load_progress,
)
from repro.telemetry.spans import SpanTracer

SCHEMES = ["CAVA", "RBA"]

START_METHODS = ["fork", "spawn"]
if "fork" not in multiprocessing.get_all_start_methods():  # pragma: no cover
    START_METHODS = ["spawn"]


class ExplodingEstimatorFactory:
    """Picklable estimator factory that fails on one named trace."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on

    def __call__(self, trace):
        if trace.name == self.fail_on:
            raise RuntimeError("injected estimator failure")
        return None


def _engine(n_workers, mp_context=None, **kwargs):
    return ParallelSweepRunner(
        n_workers=n_workers,
        mp_context=mp_context,
        min_parallel_sessions=0,
        tracer=SpanTracer("scheduler"),
        **kwargs,
    )


class TestBitIdentityWithTracing:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("mp_context", START_METHODS)
    def test_results_identical_with_tracer(
        self, short_video, engine_traces, n_workers, mp_context
    ):
        # Plain serial runner, engine with spans off, engine with spans on.
        plain = run_comparison(SCHEMES, short_video, engine_traces)
        untraced = ParallelSweepRunner(
            n_workers=n_workers, mp_context=mp_context, min_parallel_sessions=0
        ).run_comparison(SCHEMES, short_video, engine_traces)
        engine = _engine(n_workers, mp_context)
        traced = engine.run_comparison(SCHEMES, short_video, engine_traces)
        for scheme in SCHEMES:
            assert untraced[scheme].metrics == plain[scheme].metrics
            assert traced[scheme].metrics == plain[scheme].metrics
        # The timeline recorded, with the lockstep engine's unit spans.
        assert SPAN_UNIT_BATCH in {s["name"] for s in engine.tracer.spans}

    def test_progress_board_does_not_change_results(
        self, short_video, engine_traces, tmp_path
    ):
        plain = run_comparison(SCHEMES, short_video, engine_traces)
        board = ProgressBoard(tmp_path, min_interval_s=0.0)
        engine = ParallelSweepRunner(
            n_workers=2, min_parallel_sessions=0, progress=board
        )
        tracked = engine.run_comparison(SCHEMES, short_video, engine_traces)
        for scheme in SCHEMES:
            assert tracked[scheme].metrics == plain[scheme].metrics
        progress = load_progress(tmp_path)
        assert progress["phase"] == "merged"
        assert progress["completed_sessions"] == len(SCHEMES) * len(engine_traces)
        assert set(progress["schemes"]) == set(SCHEMES)


class TestStitchedTimeline:
    @pytest.mark.parametrize("mp_context", START_METHODS)
    def test_pool_timeline_has_scheduler_and_worker_tracks(
        self, short_video, engine_traces, mp_context
    ):
        engine = _engine(2, mp_context)
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        spans = engine.tracer.spans
        names = {s["name"] for s in spans}
        for expected in (
            SPAN_SWEEP_PLAN,
            SPAN_STORE_PARTITION,
            SPAN_SWEEP_DRAIN,
            SPAN_SWEEP_MERGE,
            SPAN_UNIT_RUN,
            SPAN_UNIT_BATCH,
        ):
            assert expected in names, f"missing {expected} span"
        tracks = {s["track"] for s in spans}
        assert "scheduler" in tracks
        assert any(t.startswith("worker-") for t in tracks)
        # Every absorbed worker span carries its unit order and attempt.
        unit_spans = [s for s in spans if s["name"] == SPAN_UNIT_RUN]
        assert unit_spans
        assert all(
            "unit" in s["meta"] and s["meta"]["attempt"] >= 1 for s in unit_spans
        )

    def test_serial_timeline_single_track_same_shape(
        self, short_video, engine_traces
    ):
        engine = _engine(1)
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        spans = engine.tracer.spans
        assert {s["track"] for s in spans} == {"scheduler"}
        assert {SPAN_UNIT_RUN, SPAN_UNIT_BATCH} <= {s["name"] for s in spans}

    def test_stitching_is_deterministic(
        self, short_video, engine_traces, engine_lanes
    ):
        def run_once():
            engine = _engine(2, batch_size=engine_lanes)
            engine.run_comparison(SCHEMES, short_video, engine_traces)
            return [
                (s["name"], s["meta"].get("unit"), s["meta"].get("scheme"))
                for s in engine.tracer.spans
            ]

        first, second = run_once(), run_once()
        # Span *identity and order* repeat run to run (durations differ).
        assert first == second

    def test_first_unit_ships_the_same_span_names_as_later_units(
        self, short_video, engine_traces, engine_lanes
    ):
        """Which unit a worker runs first is the pool's choice, so the
        worker's one-off shm attach rides as meta on that unit's
        ``unit.run`` span instead of adding a span only it would ship."""
        width = engine_lanes  # both units run on the lockstep engine
        plane = SharedDataPlane.publish(
            {short_video.name: short_video}, {None: engine_traces[: 2 * width]}
        )
        specs = [SweepSpec("CAVA", short_video.name)]
        initargs = (specs, SessionConfig(), False, None, plane.manifest, True)
        try:
            with ProcessPoolExecutor(
                max_workers=1, initializer=init_worker, initargs=initargs
            ) as pool:
                first = pool.submit(run_batch_in_worker, (0,), 0, width).result()[2]
                later = pool.submit(run_batch_in_worker, (0,), width, 2 * width).result()[2]
        finally:
            plane.close_and_unlink()
        assert [s["name"] for s in first] == [s["name"] for s in later]
        assert SPAN_UNIT_BATCH in [s["name"] for s in first]
        [first_run] = [s for s in first if s["name"] == SPAN_UNIT_RUN]
        [later_run] = [s for s in later if s["name"] == SPAN_UNIT_RUN]
        assert first_run["meta"]["shm_attach_s"] >= 0.0
        assert "shm_attach_s" not in later_run["meta"]

    def test_chrome_export_of_stitched_timeline(self, short_video, engine_traces):
        engine = _engine(2)
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        trace = chrome_trace(engine.tracer.spans)
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert "scheduler" in lanes and len(lanes) >= 2


class TestFailedUnitTelemetry:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("mp_context", START_METHODS)
    def test_spans_survive_failed_units(
        self, short_video, lte_traces, n_workers, mp_context
    ):
        failing = lte_traces[2].name
        registry = MetricsRegistry()
        engine = _engine(
            n_workers,
            mp_context if n_workers > 1 else None,
            registry=registry,
            on_error="skip",
        )
        spec = SweepSpec(
            scheme="RBA",
            video_key=short_video.name,
            estimator_factory=ExplodingEstimatorFactory(failing),
        )
        [result] = engine.run_specs(
            [spec], {short_video.name: short_video}, lte_traces[:6]
        )
        assert result.failures  # the unit really was dropped
        spans = engine.tracer.spans
        unit_spans = [s for s in spans if s["name"] == SPAN_UNIT_RUN]
        assert unit_spans  # spans shipped back despite the failure
        assert any(
            s["meta"].get("error") == "SweepWorkerError" for s in unit_spans
        )
        # The failed unit's telemetry snapshot merged too.
        assert registry.value(SESSIONS_FAILED_METRIC) >= 1
        assert registry.value(SESSIONS_COMPLETED_METRIC) >= 1

    @pytest.mark.parametrize("mp_context", START_METHODS)
    def test_registry_merge_matches_serial_counts(
        self, short_video, engine_traces, mp_context
    ):
        def counts(n_workers, ctx):
            registry = MetricsRegistry()
            engine = ParallelSweepRunner(
                n_workers=n_workers,
                mp_context=ctx,
                min_parallel_sessions=0,
                registry=registry,
            )
            engine.run_comparison(SCHEMES, short_video, engine_traces)
            return registry.value(SESSIONS_COMPLETED_METRIC)

        sessions = len(SCHEMES) * len(engine_traces)
        assert counts(1, None) == counts(2, mp_context) == sessions
