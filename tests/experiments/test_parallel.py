"""Tests for the process-pool sweep engine.

The load-bearing property is §6-grade reproducibility: the parallel
engine must return results *bit-identical* to the serial runner, in the
same order, at any worker count — and failures inside a worker must name
the (scheme, video, trace) unit that died.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CavaConfig
from repro.core.tuning import CavaFactory
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.parallel import (
    BATCHES_METRIC,
    SESSIONS_COMPLETED_METRIC,
    SESSIONS_FAILED_METRIC,
    UNIT_SECONDS_METRIC,
    WORKERS_METRIC,
    ParallelSweepRunner,
    SweepSpec,
    SweepWorkerError,
)
from repro.experiments.runner import run_comparison, run_scheme_on_traces
from repro.experiments.scheduler import batch_bounds
from repro.telemetry.metrics import MetricsRegistry


SCHEMES = ["CAVA", "RBA"]


class ExplodingEstimatorFactory:
    """Picklable estimator factory that fails on one named trace."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on

    def __call__(self, trace):
        if trace.name == self.fail_on:
            raise RuntimeError("injected estimator failure")
        return None  # fall back to the default harmonic-mean estimator


def assert_sweeps_identical(serial, parallel):
    """Bitwise, order-sensitive equality of two comparison results."""
    assert list(serial) == list(parallel)
    for scheme in serial:
        a, b = serial[scheme], parallel[scheme]
        assert (a.scheme, a.video_name, a.network) == (b.scheme, b.video_name, b.network)
        assert len(a.metrics) == len(b.metrics)
        for ma, mb in zip(a.metrics, b.metrics):
            # SessionMetrics is a frozen dataclass of floats: == is
            # bitwise equality field by field.
            assert ma == mb


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_comparison_matches_serial_runner(self, short_video, engine_traces, n_workers):
        # Every unit is at least break-even wide: both sides run the engine.
        serial = run_comparison(SCHEMES, short_video, engine_traces)
        engine = ParallelSweepRunner(n_workers=n_workers, min_parallel_sessions=0)
        parallel = engine.run_comparison(SCHEMES, short_video, engine_traces)
        assert_sweeps_identical(serial, parallel)

    def test_trace_order_preserved(self, short_video, lte_traces):
        engine = ParallelSweepRunner(
            n_workers=2, batch_size=1, min_parallel_sessions=0
        )
        sweep = engine.run_scheme("RBA", short_video, lte_traces)
        assert [m.trace_name for m in sweep.metrics] == [t.name for t in lte_traces]

    def test_fcc_network_metric(self, short_video, fcc_traces):
        engine = ParallelSweepRunner(n_workers=2, min_parallel_sessions=0)
        sweep = engine.run_scheme("RBA", short_video, fcc_traces[:4], network="fcc")
        assert all(m.metric == "vmaf_tv" for m in sweep.metrics)

    def test_quality_scheme_over_pool(self, short_video, lte_traces):
        serial = run_scheme_on_traces("PANDA/CQ max-min", short_video, lte_traces[:4])
        engine = ParallelSweepRunner(n_workers=2, min_parallel_sessions=0)
        parallel = engine.run_scheme("PANDA/CQ max-min", short_video, lte_traces[:4])
        assert serial.metrics == parallel.metrics

    def test_run_comparison_n_workers_routes_to_engine(self, short_video, engine_traces):
        serial = run_comparison(SCHEMES, short_video, engine_traces)
        routed = run_comparison(SCHEMES, short_video, engine_traces, n_workers=2)
        assert_sweeps_identical(serial, routed)

    def test_spawn_context_matches_serial(self, short_video, engine_traces):
        # The initializer must carry all worker state explicitly: under
        # "spawn" nothing is inherited from the parent process.
        serial = run_scheme_on_traces("RBA", short_video, engine_traces)
        engine = ParallelSweepRunner(
            n_workers=2, mp_context="spawn", min_parallel_sessions=0
        )
        parallel = engine.run_scheme("RBA", short_video, engine_traces)
        assert serial.metrics == parallel.metrics


class TestGrid:
    def test_run_grid_keys_and_equivalence(self, short_video, engine_traces):
        engine = ParallelSweepRunner(n_workers=2, min_parallel_sessions=0)
        grid = engine.run_grid(["RBA"], [short_video], engine_traces)
        assert set(grid) == {("RBA", short_video.name)}
        serial = run_scheme_on_traces("RBA", short_video, engine_traces)
        assert grid[("RBA", short_video.name)].metrics == serial.metrics

    def test_duplicate_video_names_rejected(self, short_video, lte_traces):
        engine = ParallelSweepRunner(n_workers=1)
        with pytest.raises(ValueError, match="unique"):
            engine.run_grid(["RBA"], [short_video, short_video], lte_traces[:2])

    def test_unknown_video_key_rejected(self, short_video, lte_traces):
        engine = ParallelSweepRunner(n_workers=1)
        spec = SweepSpec(scheme="RBA", video_key="missing")
        with pytest.raises(KeyError, match="missing"):
            engine.run_specs([spec], {short_video.name: short_video}, lte_traces[:2])

    def test_empty_specs(self, short_video, lte_traces):
        assert ParallelSweepRunner().run_specs([], {}, lte_traces[:2]) == []

    def test_empty_traces_rejected(self, short_video):
        engine = ParallelSweepRunner(n_workers=1)
        spec = SweepSpec(scheme="RBA", video_key=short_video.name)
        with pytest.raises(ValueError, match="trace"):
            engine.run_specs([spec], {short_video.name: short_video}, [])


class TestFailureIdentification:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_worker_exception_names_the_unit(self, short_video, lte_traces, n_workers):
        failing = lte_traces[3].name
        engine = ParallelSweepRunner(
            n_workers=n_workers, batch_size=2, min_parallel_sessions=0
        )
        with pytest.raises(SweepWorkerError) as excinfo:
            engine.run_scheme(
                "CAVA",
                short_video,
                lte_traces[:6],
                estimator_factory=ExplodingEstimatorFactory(failing),
            )
        error = excinfo.value
        assert error.spec_label == "CAVA"
        assert error.video_name == short_video.name
        assert error.trace_name == failing
        assert "injected estimator failure" in error.cause
        # the identifying triple must survive str() for log readability
        assert failing in str(error)

    def test_unknown_scheme_identified(self, short_video, lte_traces):
        engine = ParallelSweepRunner(n_workers=1)
        with pytest.raises(SweepWorkerError, match="no-such-scheme"):
            engine.run_scheme("no-such-scheme", short_video, lte_traces[:2])


class TestEngineConfig:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelSweepRunner(n_workers=0)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ParallelSweepRunner(batch_size=0)

    def test_small_grid_falls_back_to_serial(self, short_video, lte_traces, monkeypatch):
        # A grid below min_parallel_sessions must never build a pool.
        import repro.experiments.parallel as parallel_mod

        def forbid_pool(*args, **kwargs):
            raise AssertionError("pool must not be created for a tiny grid")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", forbid_pool)
        engine = ParallelSweepRunner(n_workers=4, min_parallel_sessions=1000)
        sweep = engine.run_scheme("RBA", short_video, lte_traces[:2])
        assert len(sweep.metrics) == 2

    @given(
        num_traces=st.integers(min_value=1, max_value=500),
        workers=st.integers(min_value=1, max_value=32),
        batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_bounds_partition_the_trace_set(self, num_traces, workers, batch_size):
        """Batches tile [0, n) contiguously, in order, without overlap."""
        bounds = batch_bounds(num_traces, workers, batch_size=batch_size)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == num_traces
        for (start, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start
        assert all(start < stop for start, stop in bounds)
        if batch_size is not None:
            assert all(stop - start <= batch_size for start, stop in bounds)


class TestTuningIntegration:
    def test_tuned_factory_sweep_parallel_matches_serial(
        self, short_video, engine_traces
    ):
        # Break-even-wide units: tuned factories run on the lockstep engine.
        specs = [
            SweepSpec(
                scheme="CAVA",
                video_key=short_video.name,
                algorithm_factory=CavaFactory(CavaConfig(inner_window_s=w)),
                label=f"CAVA[inner_window_s={w:g}]",
            )
            for w in (20.0, 40.0)
        ]
        videos = {short_video.name: short_video}
        serial = ParallelSweepRunner(n_workers=1).run_specs(
            specs, videos, engine_traces
        )
        parallel = ParallelSweepRunner(n_workers=2).run_specs(
            specs, videos, engine_traces
        )
        assert [s.scheme for s in serial] == [s.scheme for s in parallel]
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics
        # The factories reach the sessions: the two windows differ.
        assert serial[0].metrics != serial[1].metrics

    def test_cava_factory_is_picklable(self):
        import pickle

        factory = CavaFactory(CavaConfig(inner_window_s=20.0))
        clone = pickle.loads(pickle.dumps(factory))
        assert clone().config.inner_window_s == 20.0


class TestArtifactCache:
    def test_artifacts_built_once_per_source(self, short_video, lte_traces):
        cache = ArtifactCache()
        m1 = cache.manifest(short_video)
        m2 = cache.manifest(short_video)
        assert m1 is m2
        c1 = cache.classifier(short_video)
        assert c1 is cache.classifier(short_video)
        l1 = cache.link(lte_traces[0])
        assert l1 is cache.link(lte_traces[0])
        assert cache.stats.misses == 3
        assert cache.stats.hits == 3

    def test_quality_manifest_cached_separately(self, short_video):
        cache = ArtifactCache()
        plain = cache.manifest(short_video, include_quality=False)
        quality = cache.manifest(short_video, include_quality=True)
        assert plain is not quality
        assert not plain.has_quality and quality.has_quality

    def test_distinct_traces_not_aliased(self, lte_traces):
        cache = ArtifactCache()
        assert cache.link(lte_traces[0]) is not cache.link(lte_traces[1])

    def test_clear_forgets(self, short_video):
        cache = ArtifactCache()
        first = cache.manifest(short_video)
        cache.clear()
        assert cache.manifest(short_video) is not first

    def test_lru_evicts_past_cap(self, lte_traces):
        cache = ArtifactCache(max_entries=2)
        first = cache.link(lte_traces[0])
        cache.link(lte_traces[1])
        cache.link(lte_traces[2])  # evicts traces[0], the LRU entry
        assert cache.stats.evictions == 1
        assert cache.link(lte_traces[1]) is not None  # still cached
        assert cache.stats.hits == 1
        assert cache.link(lte_traces[0]) is not first  # rebuilt after eviction
        assert cache.stats.misses == 4

    def test_lookup_refreshes_recency(self, lte_traces):
        cache = ArtifactCache(max_entries=2)
        first = cache.link(lte_traces[0])
        cache.link(lte_traces[1])
        assert cache.link(lte_traces[0]) is first  # refresh: [1] is now LRU
        cache.link(lte_traces[2])  # evicts traces[1], not traces[0]
        assert cache.link(lte_traces[0]) is first
        assert cache.stats.evictions == 1

    def test_default_cap_never_evicts_a_sweep(self, short_video, lte_traces):
        cache = ArtifactCache()
        cache.manifest(short_video)
        cache.classifier(short_video)
        for trace in lte_traces:
            cache.link(trace)
        assert cache.stats.evictions == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)


class TestSweepTelemetry:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_session_count_across_pool(self, short_video, engine_traces, n_workers):
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(
            n_workers=n_workers, min_parallel_sessions=0, registry=registry
        )
        engine.run_comparison(SCHEMES, short_video, engine_traces)
        sessions = len(SCHEMES) * len(engine_traces)
        assert registry.counter(SESSIONS_COMPLETED_METRIC).value == sessions
        assert registry.gauge(WORKERS_METRIC).value == n_workers
        hist = registry.get(UNIT_SECONDS_METRIC)
        assert hist.count == registry.counter(BATCHES_METRIC).value

    def test_serial_and_pool_report_same_invariants(
        self, short_video, engine_traces, engine_lanes
    ):
        # Which worker builds which artifact is scheduling-dependent, so
        # the hit/miss *split* may vary across runs — but the totals are
        # invariant: every session does the same three cache lookups.
        from repro.experiments.parallel import (
            CACHE_HITS_METRIC,
            CACHE_MISSES_METRIC,
        )

        # Pool units of exactly the break-even width, so every unit of
        # both runs takes the lockstep engine.
        width = engine_lanes
        traces = engine_traces[: 2 * width]
        snapshots = {}
        for n_workers in (1, 2):
            registry = MetricsRegistry()
            engine = ParallelSweepRunner(
                n_workers=n_workers,
                batch_size=width,
                min_parallel_sessions=0,
                registry=registry,
            )
            engine.run_comparison(SCHEMES, short_video, traces)
            snapshots[n_workers] = registry.snapshot()
        serial, pooled = snapshots[1], snapshots[2]
        # The pool additionally reports the shm data plane (block/bytes
        # gauges, attached-worker count); every serial metric must still
        # appear pool-side with the same unit-level invariants.
        assert set(serial) <= set(pooled)
        sessions = len(SCHEMES) * len(traces)
        # serial runs one unit per spec; the pool splits the traces into
        # two batches per spec
        serial_units, pooled_units = len(SCHEMES), len(SCHEMES) * 2
        assert serial[BATCHES_METRIC]["value"] == serial_units
        assert pooled[BATCHES_METRIC]["value"] == pooled_units
        # The two schemes' units over the same traces share each
        # lockstep slice (a co-unit): it looks up each trace's link once
        # and the classifier once, and the manifest once per unit. The
        # scalar loop would do all three per session, so these counts
        # hold only if every unit ran on the engine, sharing slices.
        for snap, units in ((serial, serial_units), (pooled, pooled_units)):
            assert snap[SESSIONS_COMPLETED_METRIC]["value"] == sessions
            lookups = snap[CACHE_HITS_METRIC]["value"] + snap[CACHE_MISSES_METRIC]["value"]
            co_units = units // len(SCHEMES)
            assert lookups == len(traces) + co_units + units

    def test_narrow_units_report_scalar_lookups(self, short_video, lte_traces):
        # Units below the break-even width run the scalar loop, which
        # looks up the manifest, classifier and link once per session.
        from repro.experiments.parallel import (
            CACHE_HITS_METRIC,
            CACHE_MISSES_METRIC,
        )

        for n_workers in (1, 2):
            registry = MetricsRegistry()
            engine = ParallelSweepRunner(
                n_workers=n_workers,
                batch_size=3,
                min_parallel_sessions=0,
                registry=registry,
            )
            engine.run_comparison(SCHEMES, short_video, lte_traces[:6])
            snap = registry.snapshot()
            sessions = len(SCHEMES) * 6
            assert snap[SESSIONS_COMPLETED_METRIC]["value"] == sessions
            lookups = snap[CACHE_HITS_METRIC]["value"] + snap[CACHE_MISSES_METRIC]["value"]
            assert lookups == 3 * sessions

    def test_cache_counters_reflect_worker_caches(
        self, short_video, engine_traces, engine_lanes
    ):
        width = engine_lanes
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(n_workers=1, registry=registry)
        engine.run_scheme("RBA", short_video, engine_traces[:width])
        from repro.experiments.parallel import (
            CACHE_HITS_METRIC,
            CACHE_MISSES_METRIC,
        )

        # One manifest + one classifier + one link per trace built, every
        # lookup a miss: the batch engine touches each artifact exactly
        # once per unit (the scalar loop would re-hit the
        # manifest/classifier per session).
        assert registry.counter(CACHE_MISSES_METRIC).value == 2 + width
        assert registry.counter(CACHE_HITS_METRIC).value == 0

    def test_cache_counters_on_scalar_route(self, short_video, lte_traces):
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(n_workers=1, registry=registry)
        engine.run_scheme("RBA", short_video, lte_traces[:4])
        from repro.experiments.parallel import (
            CACHE_HITS_METRIC,
            CACHE_MISSES_METRIC,
        )

        # A 4-trace unit runs the scalar loop: the manifest and the
        # classifier are built by the first session and hit by the other
        # three, and each session builds its own link.
        assert registry.counter(CACHE_MISSES_METRIC).value == 6
        assert registry.counter(CACHE_HITS_METRIC).value == 6

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failures_counted_once(self, short_video, lte_traces, n_workers):
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(
            n_workers=n_workers,
            batch_size=2,
            min_parallel_sessions=0,
            registry=registry,
        )
        with pytest.raises(SweepWorkerError):
            engine.run_scheme(
                "RBA",
                short_video,
                lte_traces[:4],
                estimator_factory=ExplodingEstimatorFactory(lte_traces[3].name),
            )
        assert registry.counter(SESSIONS_FAILED_METRIC).value == 1

    def test_no_registry_no_metrics(self, short_video, lte_traces):
        engine = ParallelSweepRunner(n_workers=1)
        engine.run_scheme("RBA", short_video, lte_traces[:2])
        assert engine.registry is None


class TestSweepResultMemoization:
    def test_values_cached_and_read_only(self, short_video, lte_traces):
        sweep = run_scheme_on_traces("RBA", short_video, lte_traces[:3])
        first = sweep.values("rebuffer_s")
        assert sweep.values("rebuffer_s") is first
        assert not first.flags.writeable
        assert sweep.mean("rebuffer_s") == pytest.approx(float(first.mean()))
