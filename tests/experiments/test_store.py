"""Tests for the content-addressed session store.

The load-bearing properties: every input that can influence a session's
metrics changes its key (digest invalidation); equal inputs produce the
same key in any process under either start method (content addressing,
no salted ``hash()``/``id()``); a warm re-run is *bit-identical* to the
cold computation it replaced, serial or pooled; and a damaged store
degrades to a cold one — corrupt entries read as misses, never as data.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CavaConfig
from repro.core.tuning import CavaFactory
from repro.experiments.parallel import ParallelSweepRunner, SweepSpec
from repro.experiments.runner import run_comparison, run_scheme_on_traces
from repro.experiments.store import (
    ORPHAN_TEMP_AGE_S,
    SessionStore,
    UncacheableValueError,
    fingerprint,
    session_key,
)
from repro.faults.plan import FaultPlan, OutageFault
from repro.network.traces import NetworkTrace, synthesize_lte_traces
from repro.player.metrics import SessionMetrics
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
        "6c90afb57a279e82c73a34ea858a45f3628368dc",
        "cfffa9415b2a585d1de0fc24c2cc1ce53dc04fb3",
        "c6632de4f304e10119c5983c5a62c9951f183aa9",
    ),
    "fcc": (
        "d22ae7dcb00abc52319610cb7536c2aff4ee98a5",
        "7bf1096912d8aa3416a26e9b9854ba4ad8a1f866",
        "cf240ed0ae037ac26456fe98425e2787fc37740a",
    ),
    "cava-factory": (
        "576d8da5f6d42d8aa6bdca6e8c6119f10a90234a",
        "f50d4f5d34f8e160152e3f0ee97c98d031337a41",
        "bdd20a54046cc93853b483b2ee21988e33467b4f",
    ),
    "fault-plan": (
        "0d0f54765edbbc992606e28754e7d54228d2ef52",
        "85e1ec158e491e28e72c47c6bc4f0cf799527fd0",
        "fae0616a29bb8f2e74943789c43e678c1f6d0a22",
    ),
    "session-config": (
        "4c8bf6f0253480c847580302e9259aef6f68d86c",
        "105e077467d6906433e97aab0c10142d6796f9ca",
        "e901b72532a9209597ebc251b536cf27b7ec4b37",
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
    """The entry checksum of payload bytes, computed independently of the store."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _split_entry(raw):
    """(header dict, payload bytes) of one v3 entry."""
    head, payload = raw.split(b"\n", 1)
    return json.loads(head), payload


def _join_entry(header, payload):
    """Entry bytes as ``put`` writes them: compact header line, then payload."""
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + payload


def _edit_header(edit):
    """A defect that edits the parsed header and writes the entry back."""

    def damage(raw):
        header, payload = _split_entry(raw)
        edit(header)
        return _join_entry(header, payload)

    return damage


def _edit_payload(edit):
    """A payload defect re-signed with a valid checksum, so only the
    payload-length check can catch it."""

    def damage(raw):
        header, payload = _split_entry(raw)
        values = json.loads(payload)
        edit(values)
        payload = json.dumps(values, separators=(",", ":")).encode("utf-8")
        header["checksum"] = _signed(payload)
        return _join_entry(header, payload)

    return damage


def _flip_checksum_digit(header):
    checksum = header["checksum"]
    header["checksum"] = ("1" if checksum[0] == "0" else "0") + checksum[1:]


#: One defect per check of the read path: (verify() report prefix,
#: damage applied to the entry bytes). The payload is positional, so
#: "missing-field" is a payload one value short and "extra-field" one
#: value long.
ENTRY_DEFECTS = {
    "key-not-filename": (
        "corrupt",
        _edit_header(lambda header: header.update(key="0" * len(header["key"]))),
    ),
    "missing-field": ("corrupt", _edit_payload(lambda values: values.pop())),
    "extra-field": ("corrupt", _edit_payload(lambda values: values.append(0.0))),
    "flipped-checksum-digit": ("corrupt", _edit_header(_flip_checksum_digit)),
    "truncated": ("corrupt", lambda raw: raw[: len(raw) // 2]),
    "schema-bumped": (
        "stale",
        _edit_header(lambda header: header.update(schema=header["schema"] + 1)),
    ),
}

#: A v2-format entry (one JSON line, named payload fields, checksum over
#: the sorted-keys payload encoding) as the previous format wrote it.
V2_ENTRY = Path(__file__).with_name("store_v2_entry.json")
V2_KEY = "3e76e99b47f54f2b620ed167d1946a1ca5c005bd"

#: One fixed result and its pinned v3 entry bytes under GOLDEN_ENTRY_KEY.
GOLDEN_METRICS = SessionMetrics(
    "RBA", "short-test", "lte-000", "vmaf_phone",
    71.25, 72.5, 40.125, 68.0625, 0.1, 1.5, 3.25, 12.75, 2.0, 2.5, 7,
)
GOLDEN_ENTRY_KEY = "34910795a70a8a22c02e60427ba0c58bb165d3d9"
GOLDEN_ENTRY = (
    b'{"schema":3,"golden_schema":1,"key":"34910795a70a8a22c02e60427ba0c58bb165d3d9",'
    b'"checksum":"49280bf9e87f41b08902112589223652"}\n'
    b'["RBA","short-test","lte-000","vmaf_phone",'
    b"71.25,72.5,40.125,68.0625,0.1,1.5,3.25,12.75,2.0,2.5,7]"
)


def _bits(metrics):
    """Every field of ``metrics``, floats by their exact bits."""
    return [
        value.hex() if isinstance(value, float) else (type(value), value)
        for value in dataclasses.astuple(metrics)
    ]


def _age(path, seconds):
    """Backdate ``path``'s mtime by ``seconds``."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


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
        bump = _edit_header(
            lambda header: header.update(golden_schema=header["golden_schema"] + 1)
        )
        path.write_bytes(bump(path.read_bytes()))
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
        path.write_bytes(_edit_payload(lambda values: None)(path.read_bytes()))
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


class TestEntryFormat:
    """The v3 bytes: pinned, checked as read, and round-tripped by bits."""

    def test_entry_bytes_are_pinned(self, tmp_path):
        store = SessionStore(tmp_path)
        store.put(GOLDEN_ENTRY_KEY, GOLDEN_METRICS)
        (path,) = (tmp_path / "objects").rglob("*.json")
        assert path.name == f"{GOLDEN_ENTRY_KEY}.json"
        assert path.read_bytes() == GOLDEN_ENTRY
        header, payload = _split_entry(GOLDEN_ENTRY)
        assert header["checksum"] == _signed(payload)
        assert store.get(GOLDEN_ENTRY_KEY) == GOLDEN_METRICS

    def test_every_torn_prefix_reads_as_miss(self, tmp_path):
        store = SessionStore(tmp_path)
        store.put(GOLDEN_ENTRY_KEY, GOLDEN_METRICS)
        (path,) = (tmp_path / "objects").rglob("*.json")
        for cut in range(len(GOLDEN_ENTRY)):
            path.write_bytes(GOLDEN_ENTRY[:cut])
            reader = SessionStore(tmp_path)
            assert reader.get(GOLDEN_ENTRY_KEY) is None, cut
            assert reader.stats.corrupt == 1, cut
            (problem,) = reader.verify()
            assert problem.problem.startswith("corrupt"), (cut, problem)
        path.write_bytes(GOLDEN_ENTRY)
        assert SessionStore(tmp_path).get(GOLDEN_ENTRY_KEY) == GOLDEN_METRICS

    def test_non_utf8_payload_reads_as_miss(self, tmp_path):
        """Bytes that are not UTF-8 are rejected even under a valid checksum."""
        header, payload = _split_entry(GOLDEN_ENTRY)
        payload = payload.replace(b'"RBA"', b'"RB\xff"')
        header["checksum"] = _signed(payload)
        store = SessionStore(tmp_path)
        store.put(GOLDEN_ENTRY_KEY, GOLDEN_METRICS)
        (path,) = (tmp_path / "objects").rglob("*.json")
        path.write_bytes(_join_entry(header, payload))
        assert store.get(GOLDEN_ENTRY_KEY) is None
        (problem,) = store.verify()
        assert problem.problem.startswith("corrupt")

    def test_v2_entry_is_stale_miss_and_collected(self, tmp_path):
        store = SessionStore(tmp_path)
        path = tmp_path / "objects" / V2_KEY[:2] / f"{V2_KEY}.json"
        path.parent.mkdir(parents=True)
        shutil.copyfile(V2_ENTRY, path)
        assert store.get(V2_KEY) is None
        assert (store.stats.hits, store.stats.misses, store.stats.corrupt) == (0, 1, 1)
        (problem,) = store.verify()
        assert problem.path == path
        assert problem.problem.startswith("stale: schema 2/")
        assert store.gc()["defective"] == 1
        assert not path.exists()
        assert store.verify() == []

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        names=st.tuples(st.text(), st.text(), st.text(min_size=1), st.text()),
        floats=st.lists(
            st.one_of(
                st.sampled_from(
                    [-0.0, 0.0, 5e-324, -2.5e-310, float("inf"), float("-inf"), float("nan")]
                ),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            min_size=10,
            max_size=10,
        ),
        switches=st.integers(min_value=0, max_value=2**63),
    )
    @pytest.mark.parametrize(
        "trace_name",
        # The long name makes an entry larger than one read of the store.
        ["lte-000", "трасса-é-🙂", "é" * 3000],
        ids=["ascii", "non-ascii", "long"],
    )
    def test_roundtrip_is_bit_exact(self, tmp_path, trace_name, names, floats, switches):
        scheme, video_name, drawn_trace_name, metric = names
        for name in (trace_name, drawn_trace_name):
            metrics = SessionMetrics(scheme, video_name, name, metric, *floats, switches)
            trace = NetworkTrace(
                name=name, interval_s=1.0, throughputs_bps=np.array([1e6, 2e6])
            )
            key = session_key(
                "RBA", "lte", None, None, None, "0" * 32, trace.digest(), SessionConfig()
            )
            SessionStore(tmp_path).put(key, metrics)
            got = SessionStore(tmp_path).get(key)
            assert got is not None
            assert _bits(got) == _bits(metrics)


class TestMaintenance:
    """Temp files of interrupted writes, and gc's dry run."""

    def _fill(self, root, count):
        store = SessionStore(root)
        keys = [hashlib.blake2b(bytes([i]), digest_size=20).hexdigest() for i in range(count)]
        for key in keys:
            store.put(key, GOLDEN_METRICS)
        return store, [root / "objects" / key[:2] / f"{key}.json" for key in keys]

    def test_orphaned_temp_files_counted_reported_and_pruned(self, tmp_path, capsys):
        from repro.cli import main

        store, (entry,) = self._fill(tmp_path, 1)
        old = entry.with_name(entry.name + ".tmp.0123456789abcdef")
        fresh = entry.with_name(entry.stem + ".tmp.4242")  # the former pid-named form
        old.write_bytes(GOLDEN_ENTRY[:40])
        fresh.write_bytes(GOLDEN_ENTRY[:40])
        _age(old, 2 * ORPHAN_TEMP_AGE_S)

        assert store.describe()["temp_files"] == 2
        assert store.describe()["entries"] == 1
        problems = store.verify()
        assert sorted(p.path for p in problems) == sorted([old, fresh])
        assert all(p.problem.startswith("orphan") for p in problems)

        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 0 defective" in out and "1 orphaned temp file" in out
        assert store.gc(dry_run=True)["orphans"] == 1
        assert old.exists() and fresh.exists()

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "1 orphaned temp file" in capsys.readouterr().out
        assert not old.exists() and fresh.exists()
        assert SessionStore(tmp_path).get(entry.stem) == GOLDEN_METRICS

    def test_dry_run_reads_each_entry_once_and_matches_real_run(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.store as store_module

        store, paths = self._fill(tmp_path, 6)
        paths[0].write_bytes(GOLDEN_ENTRY[:-3])  # defective
        for path in paths[1:3]:
            _age(path, 3 * 86400.0)  # expired
        reads = []
        real_read = store_module._read_bytes

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(store_module, "_read_bytes", counting_read)
        policy = dict(max_entries=2, max_age_s=86400.0)
        preview = store.gc(dry_run=True, **policy)
        assert len(reads) == len(paths)
        assert all(path.exists() for path in paths)
        assert preview == {"defective": 1, "orphans": 0, "expired": 2, "evicted": 1}
        assert store.gc(**policy) == preview
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

    def test_tuned_factory_sweep_resumes_from_cache_dir(
        self, tmp_path, short_video, lte_traces
    ):
        """A widened configuration sweep over one store reads the points
        it already scored and simulates only the new configuration."""
        traces = lte_traces[:3]
        videos = {short_video.name: short_video}

        def window_specs(windows):
            return [
                _base_spec(
                    short_video,
                    algorithm_factory=CavaFactory(CavaConfig(inner_window_s=w)),
                    label=f"CAVA[inner_window_s={w:g}]",
                )
                for w in windows
            ]

        cache_dir = tmp_path / "tuning"
        first = ParallelSweepRunner(
            n_workers=1, store=SessionStore(cache_dir)
        ).run_specs(window_specs((20.0, 40.0)), videos, traces)

        resume_store = SessionStore(cache_dir)
        second = ParallelSweepRunner(n_workers=1, store=resume_store).run_specs(
            window_specs((20.0, 40.0, 80.0)), videos, traces
        )
        # Only the new configuration's sessions were computed.
        assert resume_store.stats.hits == 2 * len(traces)
        assert resume_store.stats.puts == 1 * len(traces)
        for cold, warm in zip(first, second):
            assert warm.metrics == cold.metrics
