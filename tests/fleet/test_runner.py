"""FleetRunner determinism contract: one spec, one result — however the
edges are sharded (worker count) and however workers start (fork/spawn),
and whether or not a pool worker died once along the way.
"""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.fleet.runner as fleet_runner
from repro.experiments.worker import POOL_RESPAWNS_METRIC
from repro.fleet import FlashCrowd, FleetSpec, run_fleet, synthesize_edge_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer

SPEC = FleetSpec(
    seed=0,
    duration_s=420.0,
    n_edges=4,
    arrivals_per_s=0.8,
    edge_capacity_mbps=50.0,
    videos=("ED-youtube-h264",),
    flash_crowds=(FlashCrowd(start_s=250.0, duration_s=80.0, multiplier=3.0),),
)

_ARRAYS = (
    "delivered_bits",
    "capacity_bits",
    "concurrency_s",
    "download_s",
    "stall_s",
    "arrivals",
    "finishes",
    "qoe_sum",
    "qoe_count",
)


def fingerprint(result):
    arrays = tuple(getattr(result, name).tobytes() for name in _ARRAYS)
    scalars = (
        result.sessions,
        result.live_sessions,
        result.chunks,
        result.bits,
        result.stall_total_s,
        result.qoe_mean,
        result.mean_quality,
        result.peak_concurrency,
    )
    return arrays, scalars


@pytest.fixture(scope="module")
def serial_result():
    return run_fleet(SPEC, n_workers=1)


class TestDeterminism:
    def test_serial_repeatable(self, serial_result):
        assert fingerprint(run_fleet(SPEC, n_workers=1)) == fingerprint(serial_result)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_matches_serial_bitwise(self, serial_result, method):
        pooled = run_fleet(SPEC, n_workers=2, mp_context=method)
        assert fingerprint(pooled) == fingerprint(serial_result)

    def test_edge_order_is_canonical(self, serial_result):
        assert [e.edge_index for e in serial_result.edges] == list(range(SPEC.n_edges))


class TestWorkerFailures:
    """Failures injected into the worker-side edge function.

    Under fork the workers inherit the patched module attribute, so the
    pool runs the failing edge function without pickling it.
    """

    @staticmethod
    def patch_edge(monkeypatch, fail_on, failure):
        real = fleet_runner.simulate_edge

        def edge(spec, edge_index, *args, **kwargs):
            if edge_index == fail_on:
                failure()
            return real(spec, edge_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "simulate_edge", edge)

    def test_worker_killed_once_is_recovered(
        self, monkeypatch, tmp_path, serial_result
    ):
        flag = tmp_path / "killed.flag"

        def kill_once():
            if not flag.exists():
                flag.write_text("killed")
                os._exit(1)

        self.patch_edge(monkeypatch, 1, kill_once)
        registry = MetricsRegistry()
        pooled = run_fleet(SPEC, n_workers=2, mp_context="fork", registry=registry)
        assert flag.exists()
        assert fingerprint(pooled) == fingerprint(serial_result)
        assert registry.value(POOL_RESPAWNS_METRIC) == 1

    def test_worker_killed_every_time_aborts_after_one_respawn(self, monkeypatch):
        self.patch_edge(monkeypatch, 1, lambda: os._exit(1))
        with pytest.raises(BrokenProcessPool, match="twice"):
            run_fleet(SPEC, n_workers=2, mp_context="fork")

    def test_raising_edge_is_named(self, monkeypatch):
        def fail():
            raise ValueError("injected edge failure")

        self.patch_edge(monkeypatch, 2, fail)
        with pytest.raises(
            RuntimeError, match="fleet edge 2 failed: ValueError: injected edge failure"
        ):
            run_fleet(SPEC, n_workers=2, mp_context="fork")


class TestEdgeTraces:
    def test_trace_is_pure_function_of_spec_and_edge(self):
        a = synthesize_edge_trace(SPEC, 1)
        b = synthesize_edge_trace(SPEC, 1)
        assert np.array_equal(a.throughputs_bps, b.throughputs_bps)
        assert not np.array_equal(
            a.throughputs_bps, synthesize_edge_trace(SPEC, 2).throughputs_bps
        )

    def test_mean_capacity_is_dimensioned(self):
        trace = synthesize_edge_trace(SPEC, 0)
        assert trace.throughputs_bps.mean() == pytest.approx(
            SPEC.edge_capacity_mbps * 1e6, rel=0.15
        )


class TestReporting:
    def test_report_is_json_serializable(self, serial_result):
        report = serial_result.report()
        encoded = json.dumps(report)
        decoded = json.loads(encoded)
        assert decoded["totals"]["sessions"] == serial_result.sessions
        assert len(decoded["curves"]["concurrency"]) == len(decoded["curves"]["t_s"])
        assert len(decoded["edges"]) == SPEC.n_edges

    def test_registry_and_spans_populated(self):
        registry = MetricsRegistry()
        tracer = SpanTracer("test-fleet")
        result = run_fleet(SPEC, n_workers=1, registry=registry, tracer=tracer)
        assert registry.value("repro_fleet_sessions_total") == result.sessions
        assert registry.value("repro_fleet_edges_total") == SPEC.n_edges
        assert registry.value("repro_fleet_peak_concurrent_sessions") > 0
        names = {span["name"] for span in tracer.spans}
        assert {"fleet.plan", "fleet.drain", "fleet.merge", "fleet.edge"} <= names
        edge_spans = [s for s in tracer.spans if s["name"] == "fleet.edge"]
        assert len(edge_spans) == SPEC.n_edges

    def test_derived_curves_are_sane(self, serial_result):
        util = serial_result.utilization_curve
        rebuf = serial_result.rebuffer_ratio_curve
        assert np.all((util >= 0.0) & (util <= 1.0 + 1e-9))
        assert np.all(rebuf >= 0.0)
        assert serial_result.peak_concurrency > 0
