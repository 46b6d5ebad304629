"""Tests for the content-addressed session store.

The load-bearing properties: every input that can influence a session's
metrics changes its key (digest invalidation); equal inputs produce the
same key in any process under either start method (content addressing,
no salted ``hash()``/``id()``); a warm re-run is *bit-identical* to the
cold computation it replaced, serial or pooled; and a damaged store
degrades to a cold one — corrupt entries read as misses, never as data.
"""

import hashlib
import json
import multiprocessing

import numpy as np
import pytest

from repro.core.config import CavaConfig
from repro.core.tuning import CavaFactory, grid_search
from repro.experiments.parallel import ParallelSweepRunner, SweepSpec
from repro.experiments.runner import run_comparison, run_scheme_on_traces
from repro.experiments.store import (
    SessionStore,
    UncacheableValueError,
    fingerprint,
)
from repro.faults.plan import FaultPlan, OutageFault
from repro.network.traces import NetworkTrace, synthesize_lte_traces
from repro.player.session import SessionConfig
from repro.telemetry.exporters import registry_to_prometheus
from repro.telemetry.metrics import (
    STORE_BYTES_READ_METRIC,
    STORE_BYTES_WRITTEN_METRIC,
    STORE_CORRUPT_METRIC,
    STORE_HITS_METRIC,
    STORE_MISSES_METRIC,
    STORE_UNCACHEABLE_METRIC,
    MetricsRegistry,
)

SCHEMES = ["CAVA", "RBA"]


def assert_sweeps_identical(expected, actual):
    """Bitwise, order-sensitive equality of two comparison results."""
    assert list(expected) == list(actual)
    for scheme in expected:
        a, b = expected[scheme], actual[scheme]
        assert (a.scheme, a.video_name, a.network) == (b.scheme, b.video_name, b.network)
        # SessionMetrics is a frozen dataclass of floats: == is bitwise
        # equality field by field.
        assert a.metrics == b.metrics


def _base_spec(video, **overrides):
    fields = dict(scheme="CAVA", video_key=video.name, network="lte")
    fields.update(overrides)
    return SweepSpec(**fields)


def _estimator_factory(trace):
    """Module-level estimator factory (has a stable content identity)."""
    return None


def _key_in_child(root, spec, video, trace, config):
    """Recompute a session key in a worker process."""
    return SessionStore(root).key_for(spec, video, trace, config)


class TestKeyInvalidation:
    """Each keyed input, changed alone, must change the key."""

    @pytest.fixture()
    def store(self, tmp_path):
        return SessionStore(tmp_path / "store")

    @pytest.fixture()
    def base_key(self, store, short_video, one_lte_trace):
        return store.key_for(
            _base_spec(short_video), short_video, one_lte_trace, SessionConfig()
        )

    def test_scheme_changes_key(self, store, short_video, one_lte_trace, base_key):
        key = store.key_for(
            _base_spec(short_video, scheme="RBA"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        assert key != base_key

    def test_network_changes_key(self, store, short_video, one_lte_trace, base_key):
        key = store.key_for(
            _base_spec(short_video, network="fcc"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        assert key != base_key

    def test_algorithm_factory_params_change_key(
        self, store, short_video, one_lte_trace, base_key
    ):
        keys = [base_key]
        for window in (20.0, 40.0):
            factory = CavaFactory(CavaConfig(inner_window_s=window))
            keys.append(
                store.key_for(
                    _base_spec(short_video, algorithm_factory=factory),
                    short_video,
                    one_lte_trace,
                    SessionConfig(),
                )
            )
        assert len(set(keys)) == len(keys)

    def test_estimator_factory_changes_key(
        self, store, short_video, one_lte_trace, base_key
    ):
        key = store.key_for(
            _base_spec(short_video, estimator_factory=_estimator_factory),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        assert key != base_key

    def test_fault_plan_changes_key(self, store, short_video, one_lte_trace, base_key):
        plan_a = FaultPlan((OutageFault(p=0.05),), seed=7)
        plan_b = FaultPlan((OutageFault(p=0.05),), seed=8)
        key_a = store.key_for(
            _base_spec(short_video, fault_plan=plan_a),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        key_b = store.key_for(
            _base_spec(short_video, fault_plan=plan_b),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        assert len({base_key, key_a, key_b}) == 3

    def test_session_config_changes_key(
        self, store, short_video, one_lte_trace, base_key
    ):
        key = store.key_for(
            _base_spec(short_video),
            short_video,
            one_lte_trace,
            SessionConfig(startup_latency_s=5.0),
        )
        assert key != base_key

    def test_trace_timeline_changes_key(
        self, store, short_video, one_lte_trace, base_key
    ):
        bumped = np.array(one_lte_trace.throughputs_bps)
        bumped[0] += 1.0
        tweaked = NetworkTrace(
            name=one_lte_trace.name,
            interval_s=one_lte_trace.interval_s,
            throughputs_bps=bumped,
        )
        key = store.key_for(
            _base_spec(short_video), short_video, tweaked, SessionConfig()
        )
        assert key != base_key

    def test_video_content_changes_key(
        self, store, short_video, one_lte_trace, base_key
    ):
        from repro.video.dataset import build_video

        # Same spec (and name), different seed: the manifest tables differ.
        other = build_video(_short_spec(), seed=1)
        key = store.key_for(
            _base_spec(short_video), other, one_lte_trace, SessionConfig()
        )
        assert key != base_key

    def test_equal_inputs_equal_keys_across_instances(
        self, tmp_path, short_video, one_lte_trace
    ):
        key_a = SessionStore(tmp_path / "a").key_for(
            _base_spec(short_video), short_video, one_lte_trace, SessionConfig()
        )
        key_b = SessionStore(tmp_path / "b").key_for(
            _base_spec(short_video), short_video, one_lte_trace, SessionConfig()
        )
        assert key_a == key_b

    def test_lambda_factory_is_uncacheable(self, store, short_video, one_lte_trace):
        spec = _base_spec(short_video, algorithm_factory=lambda: None)
        with pytest.raises(UncacheableValueError):
            store.key_for(spec, short_video, one_lte_trace, SessionConfig())

    def test_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(UncacheableValueError):
            fingerprint(object())


def _short_spec():
    from repro.video.dataset import VideoSpec

    return VideoSpec(
        name="short-test",
        title="ED",
        genre="animation",
        source="ffmpeg",
        codec="h264",
        chunk_duration_s=2.0,
        cap_ratio=2.0,
        duration_s=120.0,
    )


#: Keys of three seeded LTE sessions per spec. Any drift in the key
#: bytes orphans every existing store, so these change only together
#: with STORE_SCHEMA_VERSION.
GOLDEN_KEYS = {
    "default": (
        "decdc8f80de5634115d2214e1e9d6853e3ad5da7",
        "d2398666c69979957c8b1d41bd87a8f9b1539fec",
        "b2d7ccf0f9b0f1fa1f1b8f7e7f369562c0b1ff7c",
    ),
    "fcc": (
        "d59a449d9f20c0983970f586b114e1c366783126",
        "de363719b59cbf8eefeecca5fa1930f9f9530e53",
        "08a2378c8791457799bb89e196f5b34ed57d1343",
    ),
    "cava-factory": (
        "da62fe15751385a1285d30b28df2b90283f1ab38",
        "c4f75372351e0dced8bf5d187c1335ee03606f5c",
        "b99de42bfdaaaf2bb8fd9bd8caa573028fe14354",
    ),
    "fault-plan": (
        "6ff118a15ed6de6b7e1db54e7da2ca642ca7ce01",
        "6b73c1454a653ed1db54d3f1995252e29d33224d",
        "bf4db8ecf16d216bfaa9cf9806b6a2204572d445",
    ),
    "session-config": (
        "fe7b4ea9a90df0306696d4401d35f69d7a2a2805",
        "5978cabc6065b5610c75ee3d2f21cec37968b0cf",
        "9c91581951450644c0a59c0adcf41466a24e00bf",
    ),
}

GOLDEN_CASES = {
    "default": ({}, SessionConfig()),
    "fcc": ({"scheme": "RBA", "network": "fcc"}, SessionConfig()),
    "cava-factory": (
        {"algorithm_factory": CavaFactory(CavaConfig(inner_window_s=20.0))},
        SessionConfig(),
    ),
    "fault-plan": (
        {"fault_plan": FaultPlan((OutageFault(p=0.05),), seed=7)},
        SessionConfig(),
    ),
    "session-config": ({}, SessionConfig(startup_latency_s=5.0)),
}


class TestGoldenKeys:
    """Key bytes are pinned, so existing stores stay warm across changes."""

    @pytest.fixture(scope="class")
    def golden_inputs(self):
        from repro.video.dataset import build_video

        return build_video(_short_spec(), seed=0), synthesize_lte_traces(count=3, seed=0)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_keys_match_golden(self, tmp_path, golden_inputs, case):
        video, traces = golden_inputs
        overrides, config = GOLDEN_CASES[case]
        spec = _base_spec(video, **overrides)
        keys = SessionStore(tmp_path / "batch").keys_for(spec, video, traces, config)
        single = SessionStore(tmp_path / "single")
        assert keys == list(GOLDEN_KEYS[case])
        assert keys == [single.key_for(spec, video, trace, config) for trace in traces]


class TestCrossProcessKeys:
    """Equal inputs must digest identically under fork and spawn."""

    @pytest.mark.parametrize(
        "method",
        [
            m
            for m in ("fork", "spawn")
            if m in multiprocessing.get_all_start_methods()
        ],
    )
    def test_child_process_recomputes_same_key(
        self, tmp_path, short_video, one_lte_trace, method
    ):
        spec = _base_spec(
            short_video, algorithm_factory=CavaFactory(CavaConfig())
        )
        config = SessionConfig()
        parent_key = SessionStore(tmp_path / "parent").key_for(
            spec, short_video, one_lte_trace, config
        )
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(processes=1) as pool:
            child_key = pool.apply(
                _key_in_child,
                (str(tmp_path / "child"), spec, short_video, one_lte_trace, config),
            )
        assert child_key == parent_key


def _signed(payload):
    """The entry checksum, computed independently of the store."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _edit_entry(edit):
    """A defect that edits the parsed entry and writes it back as ``put`` does."""

    def damage(raw):
        entry = json.loads(raw)
        edit(entry)
        return json.dumps(entry, sort_keys=True).encode("utf-8")

    return damage


def _edit_payload(edit):
    """A payload defect re-signed with a valid checksum, so only the
    field-set check can catch it."""

    def apply(entry):
        edit(entry["payload"])
        entry["checksum"] = _signed(entry["payload"])

    return _edit_entry(apply)


def _flip_checksum_digit(entry):
    checksum = entry["checksum"]
    entry["checksum"] = ("1" if checksum[0] == "0" else "0") + checksum[1:]


#: One defect per check of the read path: (verify() report prefix,
#: damage applied to the entry bytes).
ENTRY_DEFECTS = {
    "key-not-filename": (
        "corrupt",
        _edit_entry(lambda entry: entry.update(key="0" * len(entry["key"]))),
    ),
    "missing-field": ("corrupt", _edit_payload(lambda p: p.pop("rebuffer_s"))),
    "extra-field": ("corrupt", _edit_payload(lambda p: p.update(bogus=0.0))),
    "flipped-checksum-digit": ("corrupt", _edit_entry(_flip_checksum_digit)),
    "truncated": ("corrupt", lambda raw: raw[: len(raw) // 2]),
    "schema-bumped": (
        "stale",
        _edit_entry(lambda entry: entry.update(schema=entry["schema"] + 1)),
    ),
}


class TestEntryIO:
    def _one_metric(self, short_video, one_lte_trace):
        return run_scheme_on_traces("RBA", short_video, [one_lte_trace]).metrics[0]

    def test_put_get_roundtrip_is_bit_exact(
        self, tmp_path, short_video, one_lte_trace
    ):
        store = SessionStore(tmp_path)
        metric = self._one_metric(short_video, one_lte_trace)
        key = store.key_for(
            _base_spec(short_video, scheme="RBA"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        store.put(key, metric)
        # A frozen dataclass of floats: == is bitwise field equality.
        assert store.get(key) == metric
        assert store.stats.hits == 1 and store.stats.puts == 1

    def _entry_paths(self, store):
        return sorted((store.root / "objects").rglob("*.json"))

    def test_corrupt_entry_reads_as_miss(self, tmp_path, short_video, one_lte_trace):
        store = SessionStore(tmp_path)
        key = store.key_for(
            _base_spec(short_video, scheme="RBA"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        store.put(key, self._one_metric(short_video, one_lte_trace))
        (path,) = self._entry_paths(store)
        path.write_bytes(path.read_bytes()[:-20] + b"garbage-not-json!!!!")
        assert store.get(key) is None
        assert store.stats.corrupt == 1 and store.stats.misses == 1
        problems = store.verify()
        assert len(problems) == 1 and "corrupt" in problems[0].problem
        removed = store.gc()
        assert removed["defective"] == 1
        assert store.verify() == []

    def test_stale_schema_entry_detected(self, tmp_path, short_video, one_lte_trace):
        store = SessionStore(tmp_path)
        key = store.key_for(
            _base_spec(short_video, scheme="RBA"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        store.put(key, self._one_metric(short_video, one_lte_trace))
        (path,) = self._entry_paths(store)
        entry = json.loads(path.read_text())
        entry["golden_schema"] = entry["golden_schema"] + 1
        path.write_text(json.dumps(entry))
        assert store.get(key) is None  # stale is a miss, never data
        problems = store.verify()
        assert len(problems) == 1 and "stale" in problems[0].problem

    def _put_one(self, root, short_video, one_lte_trace):
        """Store one RBA session; returns its key, metrics and entry path."""
        store = SessionStore(root)
        key = store.key_for(
            _base_spec(short_video, scheme="RBA"),
            short_video,
            one_lte_trace,
            SessionConfig(),
        )
        metric = self._one_metric(short_video, one_lte_trace)
        store.put(key, metric)
        (path,) = self._entry_paths(store)
        return key, metric, path

    @pytest.mark.parametrize("defect", list(ENTRY_DEFECTS))
    def test_defective_entry_reads_as_miss(
        self, tmp_path, short_video, one_lte_trace, defect
    ):
        key, _metric, path = self._put_one(tmp_path, short_video, one_lte_trace)
        kind, damage = ENTRY_DEFECTS[defect]
        path.write_bytes(damage(path.read_bytes()))

        reader = SessionStore(tmp_path)
        assert reader.get(key) is None
        assert (reader.stats.hits, reader.stats.misses, reader.stats.corrupt) == (0, 1, 1)
        problems = reader.verify()
        assert [problem.path for problem in problems] == [path]
        assert problems[0].problem.startswith(kind)

    def test_rewritten_intact_entry_still_hits(
        self, tmp_path, short_video, one_lte_trace
    ):
        """The defect table's rewrite and re-sign alone break nothing."""
        key, metric, path = self._put_one(tmp_path, short_video, one_lte_trace)
        path.write_bytes(_edit_payload(lambda payload: None)(path.read_bytes()))
        reader = SessionStore(tmp_path)
        assert reader.get(key) == metric
        assert reader.verify() == []

    def test_gc_bounds_entry_count(self, tmp_path, short_video, lte_traces):
        store = SessionStore(tmp_path)
        metric = self._one_metric(short_video, lte_traces[0])
        for trace in lte_traces[:5]:
            key = store.key_for(
                _base_spec(short_video, scheme="RBA"),
                short_video,
                trace,
                SessionConfig(),
            )
            store.put(key, metric)
        removed = store.gc(max_entries=2)
        assert removed["evicted"] == 3
        assert store.describe()["entries"] == 2


class TestWarmColdIdentity:
    """Warm re-runs must be bit-identical to cold ones, serial and pooled."""

    def test_serial_warm_equals_cold_equals_no_store(
        self, tmp_path, short_video, engine_traces
    ):
        traces = engine_traces  # cold units run on the lockstep engine
        baseline = run_comparison(SCHEMES, short_video, traces)

        store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(n_workers=1, store=store)
        cold = engine.run_comparison(SCHEMES, short_video, traces)
        assert_sweeps_identical(baseline, cold)
        sessions = len(SCHEMES) * len(traces)
        assert store.stats.puts == sessions

        warm_store = SessionStore(tmp_path)
        warm_engine = ParallelSweepRunner(n_workers=1, store=warm_store)
        warm = warm_engine.run_comparison(SCHEMES, short_video, traces)
        assert_sweeps_identical(baseline, warm)
        # Fully warm: every session read back, none recomputed or rewritten.
        assert warm_store.stats.hits == sessions
        assert warm_store.stats.puts == 0

    @pytest.mark.parametrize(
        "method",
        [
            m
            for m in ("fork", "spawn")
            if m in multiprocessing.get_all_start_methods()
        ],
    )
    def test_pooled_cold_fills_store_warm_replays(
        self, tmp_path, short_video, engine_traces, method
    ):
        traces = engine_traces  # cold units run on the lockstep engine
        baseline = run_comparison(SCHEMES, short_video, traces)

        store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(
            n_workers=2,
            min_parallel_sessions=0,
            mp_context=method,
            store=store,
        )
        cold = engine.run_comparison(SCHEMES, short_video, traces)
        assert_sweeps_identical(baseline, cold)
        assert store.stats.puts == len(SCHEMES) * len(traces)

        # The warm run hits on every session, so nothing is pending and
        # the engine never even spins up a pool.
        warm_store = SessionStore(tmp_path)
        warm_engine = ParallelSweepRunner(
            n_workers=2,
            min_parallel_sessions=0,
            mp_context=method,
            store=warm_store,
        )
        warm = warm_engine.run_comparison(SCHEMES, short_video, traces)
        assert_sweeps_identical(baseline, warm)
        assert warm_store.stats.hits == len(SCHEMES) * len(traces)
        assert warm_store.stats.puts == 0

    def test_warm_rerun_exports_zero_misses(self, tmp_path, short_video, lte_traces):
        """A fully warm run still exports every store counter, so a dump
        reads ``repro_store_misses_total 0`` rather than leaving it out."""
        traces = lte_traces[:3]
        ParallelSweepRunner(n_workers=1, store=SessionStore(tmp_path)).run_comparison(
            SCHEMES, short_video, traces
        )
        registry = MetricsRegistry()
        warm_store = SessionStore(tmp_path)
        ParallelSweepRunner(
            n_workers=1, store=warm_store, registry=registry
        ).run_comparison(SCHEMES, short_video, traces)
        assert warm_store.stats.hits == len(SCHEMES) * len(traces)
        text = registry_to_prometheus(registry)
        assert f"\n{STORE_HITS_METRIC} {len(SCHEMES) * len(traces)}" in text
        for name in (
            STORE_MISSES_METRIC,
            STORE_CORRUPT_METRIC,
            STORE_BYTES_WRITTEN_METRIC,
        ):
            assert registry.get(name) is not None, name
            assert registry.value(name) == 0, name
            assert f"\n{name} 0\n" in text, name
        assert registry.value(STORE_BYTES_READ_METRIC) > 0

    def test_widened_grid_replays_only_new_sessions(
        self, tmp_path, short_video, engine_traces, engine_lanes
    ):
        # Both the first run and the added traces are break-even wide, so
        # each is one lockstep-engine unit per scheme.
        width = engine_lanes
        store = SessionStore(tmp_path)
        ParallelSweepRunner(n_workers=1, store=store).run_comparison(
            SCHEMES, short_video, engine_traces[:width]
        )

        widened_store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(n_workers=1, store=widened_store)
        widened = engine.run_comparison(SCHEMES, short_video, engine_traces[: 2 * width])
        assert_sweeps_identical(
            run_comparison(SCHEMES, short_video, engine_traces[: 2 * width]), widened
        )
        # Per scheme: the first run's sessions replayed, the new ones computed.
        assert widened_store.stats.hits == len(SCHEMES) * width
        assert widened_store.stats.puts == len(SCHEMES) * width

    def test_uncacheable_spec_computes_without_store(
        self, tmp_path, short_video, lte_traces
    ):
        traces = lte_traces[:3]
        registry = MetricsRegistry()
        store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(n_workers=1, store=store, registry=registry)
        spec = SweepSpec(
            scheme="RBA",
            video_key=short_video.name,
            # A closure has no content identity: bypass the store.
            estimator_factory=lambda trace: None,
        )
        (result,) = engine.run_specs([spec], {short_video.name: short_video}, traces)
        expected = run_scheme_on_traces("RBA", short_video, traces)
        assert result.metrics == expected.metrics
        assert store.describe()["entries"] == 0
        assert registry.counter(STORE_UNCACHEABLE_METRIC).value == 1

    def test_faulted_sweep_warm_replay(
        self, tmp_path, short_video, engine_traces, engine_lanes
    ):
        traces = engine_traces[:engine_lanes]  # one lockstep-engine unit
        plan = FaultPlan((OutageFault(p=0.1, duration_intervals=2),), seed=3)

        baseline = run_comparison(["RBA"], short_video, traces, fault_plan=plan)
        store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(n_workers=1, store=store, fault_plan=plan)
        cold = engine.run_comparison(["RBA"], short_video, traces)
        assert_sweeps_identical(baseline, cold)

        warm_store = SessionStore(tmp_path)
        warm_engine = ParallelSweepRunner(
            n_workers=1, store=warm_store, fault_plan=plan
        )
        warm = warm_engine.run_comparison(["RBA"], short_video, traces)
        assert_sweeps_identical(baseline, warm)
        assert warm_store.stats.hits == len(traces)

    def test_grid_search_resumes_from_cache_dir(
        self, tmp_path, short_video, lte_traces
    ):
        traces = lte_traces[:3]
        cache_dir = str(tmp_path / "tuning")
        first = grid_search(
            {"inner_window_s": (20.0, 40.0)}, short_video, traces,
            cache_dir=cache_dir,
        )

        resume_store = SessionStore(cache_dir)
        second = grid_search(
            {"inner_window_s": (20.0, 40.0, 80.0)}, short_video, traces,
            store=resume_store,
        )
        # Only the new configuration's sessions were computed.
        assert resume_store.stats.hits == 2 * len(traces)
        assert resume_store.stats.puts == 1 * len(traces)
        by_window = {r.overrides["inner_window_s"]: r.score for r in second}
        for result in first:
            assert by_window[result.overrides["inner_window_s"]] == result.score
