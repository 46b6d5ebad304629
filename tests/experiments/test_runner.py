"""Tests for the experiment sweep runner."""

import pytest

from repro.experiments.runner import (
    aggregate,
    run_comparison,
    run_scheme_on_traces,
)
from repro.network.estimator import HarmonicMeanEstimator


class TestRunSchemeOnTraces:
    def test_one_result_per_trace(self, short_video, lte_traces):
        sweep = run_scheme_on_traces("CAVA", short_video, lte_traces[:4])
        assert len(sweep.metrics) == 4
        assert sweep.scheme == "CAVA"
        assert sweep.network == "lte"

    def test_metric_follows_network(self, short_video, lte_traces, fcc_traces):
        lte_sweep = run_scheme_on_traces("CAVA", short_video, lte_traces[:2], "lte")
        fcc_sweep = run_scheme_on_traces("CAVA", short_video, fcc_traces[:2], "fcc")
        assert lte_sweep.metrics[0].metric == "vmaf_phone"
        assert fcc_sweep.metrics[0].metric == "vmaf_tv"

    def test_values_and_mean(self, short_video, lte_traces):
        sweep = run_scheme_on_traces("CAVA", short_video, lte_traces[:4])
        values = sweep.values("rebuffer_s")
        assert values.shape == (4,)
        assert sweep.mean("rebuffer_s") == pytest.approx(float(values.mean()))

    def test_panda_gets_quality_manifest(self, short_video, lte_traces):
        sweep = run_scheme_on_traces("PANDA/CQ max-min", short_video, lte_traces[:2])
        assert len(sweep.metrics) == 2

    def test_empty_traces_rejected(self, short_video):
        with pytest.raises(ValueError, match="trace"):
            run_scheme_on_traces("CAVA", short_video, [])

    def test_custom_estimator_factory(self, short_video, lte_traces):
        calls = []

        def factory(trace):
            calls.append(trace.name)
            return HarmonicMeanEstimator(window=3)

        run_scheme_on_traces(
            "CAVA", short_video, lte_traces[:3], estimator_factory=factory
        )
        assert len(calls) == 3

    def test_algorithm_factory_override(self, short_video, engine_traces, engine_lanes):
        from repro.core.cava import cava_p1

        # A break-even-wide unit: the factory's algorithm runs on the engine.
        sweep = run_scheme_on_traces(
            "CAVA", short_video, engine_traces[:engine_lanes], algorithm_factory=cava_p1
        )
        assert {m.scheme for m in sweep.metrics} == {"CAVA-p1"}


class TestRunComparison:
    def test_all_schemes_run(self, short_video, lte_traces):
        results = run_comparison(["CAVA", "RBA"], short_video, lte_traces[:3])
        assert set(results) == {"CAVA", "RBA"}
        assert all(len(sweep.metrics) == 3 for sweep in results.values())

    def test_aggregate(self, short_video, lte_traces):
        results = run_comparison(["CAVA", "RBA"], short_video, lte_traces[:3])
        means = aggregate(results, "data_usage_mb")
        assert set(means) == {"CAVA", "RBA"}
        assert all(v > 0 for v in means.values())
