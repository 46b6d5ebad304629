"""Tracing must never change what it observes.

The acceptance bar for the telemetry layer: a session run with tracing
enabled (or with a metrics registry attached to the sweep engine) is
bit-identical to one run without, serially and across the process pool.
"""

import numpy as np
import pytest

from repro.abr.registry import make_scheme
from repro.core.cava import cava_p123
from repro.experiments.parallel import (
    SESSIONS_COMPLETED_METRIC,
    ParallelSweepRunner,
)
from repro.experiments.runner import run_comparison
from repro.network.link import TraceLink
from repro.player.session import run_session
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import NullTracer, SessionTracer

SCHEMES = ["CAVA", "RBA"]


def assert_results_identical(a, b):
    assert (a.scheme, a.video_name, a.trace_name) == (b.scheme, b.video_name, b.trace_name)
    assert a.startup_delay_s == b.startup_delay_s
    for name, _ in a._ARRAY_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert np.array_equal(left, right), name


class TestSessionEquivalence:
    @pytest.mark.parametrize("scheme", ["CAVA", "RBA", "BOLA-E (peak)"])
    def test_traced_equals_untraced(self, short_video, one_lte_trace, scheme):
        plain = run_session(
            make_scheme(scheme), short_video, TraceLink(one_lte_trace)
        )
        traced = run_session(
            make_scheme(scheme),
            short_video,
            TraceLink(one_lte_trace),
            tracer=SessionTracer(),
        )
        assert_results_identical(plain, traced)

    def test_null_tracer_equals_none(self, short_video, one_lte_trace):
        plain = run_session(cava_p123(), short_video, TraceLink(one_lte_trace))
        nulled = run_session(
            cava_p123(), short_video, TraceLink(one_lte_trace), tracer=NullTracer()
        )
        assert_results_identical(plain, nulled)


class TestSweepEquivalence:
    def test_registry_does_not_change_results(self, short_video, engine_traces):
        # Break-even-wide units: the registry observes the lockstep engine.
        plain = run_comparison(SCHEMES, short_video, engine_traces)
        registry = MetricsRegistry()
        observed = run_comparison(
            SCHEMES, short_video, engine_traces, registry=registry
        )
        assert list(plain) == list(observed)
        for scheme in plain:
            assert plain[scheme].metrics == observed[scheme].metrics
        completed = registry.counter(SESSIONS_COMPLETED_METRIC).value
        assert completed == len(SCHEMES) * len(engine_traces)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_pool_and_serial_report_identical_metrics(
        self, short_video, engine_traces, n_workers
    ):
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(
            n_workers=n_workers, min_parallel_sessions=0, registry=registry
        )
        results = engine.run_comparison(SCHEMES, short_video, engine_traces)
        plain = run_comparison(SCHEMES, short_video, engine_traces)
        for scheme in plain:
            assert plain[scheme].metrics == results[scheme].metrics
        assert registry.counter(SESSIONS_COMPLETED_METRIC).value == len(SCHEMES) * len(engine_traces)
