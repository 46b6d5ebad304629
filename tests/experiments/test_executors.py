"""Executor-backend equivalence and the multi-host lease fabric.

Every backend must honor the determinism contract: bit-identical
results, identically ordered, whatever runs the planned units. The
multi-host backend additionally must survive a dead peer — a stale
lease is reclaimed and its range recomputed, never dropped and never
double-merged.
"""

import threading

import pytest

from repro.experiments.executors import (
    EXECUTOR_NAMES,
    MULTIHOST_PLAN_WORKERS,
    MultiHostExecutorBackend,
    PoolExecutorBackend,
    resolve_executor,
)
from repro.experiments.leases import LeaseBoard, SweepRecipe, recipe_sweep_id, write_manifest
from repro.experiments.parallel import ParallelSweepRunner, SweepSpec
from repro.experiments.store import SessionStore
from repro.experiments.runner import run_comparison
from repro.network.traces import synthesize_lte_traces
from repro.telemetry.metrics import (
    LEASES_CLAIMED_METRIC,
    LEASES_RECLAIMED_METRIC,
    MetricsRegistry,
)

from tests.experiments.test_leases import backdate
from tests.experiments.test_parallel import assert_sweeps_identical

SCHEMES = ["CAVA", "RBA"]


@pytest.fixture(scope="module")
def multihost_traces(engine_lanes):
    """Enough traces that every unit of the multi-host grid plan is
    break-even wide, so leased units run on the lockstep engine."""
    return synthesize_lte_traces(count=MULTIHOST_PLAN_WORKERS * engine_lanes, seed=0)


class TestResolveExecutor:
    def test_names_resolve(self):
        assert EXECUTOR_NAMES == ("multihost", "pool")
        assert isinstance(resolve_executor("pool"), PoolExecutorBackend)
        assert isinstance(resolve_executor("multihost"), MultiHostExecutorBackend)
        assert isinstance(resolve_executor(None), PoolExecutorBackend)

    def test_instance_passes_through(self):
        backend = PoolExecutorBackend()
        assert resolve_executor(backend) is backend

    def test_unknown_name_rejected(self):
        for name in ("threads", "asyncio"):
            with pytest.raises(ValueError, match="unknown executor"):
                resolve_executor(name)
            with pytest.raises(ValueError, match="unknown executor"):
                ParallelSweepRunner(executor=name)


class TestMultiHostBackend:
    def test_requires_store(self, short_video, lte_traces):
        engine = ParallelSweepRunner(executor="multihost")
        with pytest.raises(ValueError, match="session store"):
            engine.run_comparison(["RBA"], short_video, lte_traces[:4])

    def test_requires_raise_policy(self, short_video, lte_traces, tmp_path):
        engine = ParallelSweepRunner(
            executor="multihost", store=SessionStore(tmp_path), on_error="skip"
        )
        with pytest.raises(ValueError, match="raise"):
            engine.run_comparison(["RBA"], short_video, lte_traces[:4])

    def test_single_host_matches_serial(self, short_video, multihost_traces, tmp_path):
        serial = run_comparison(SCHEMES, short_video, multihost_traces)
        engine = ParallelSweepRunner(
            executor="multihost", store=SessionStore(tmp_path)
        )
        result = engine.run_comparison(SCHEMES, short_video, multihost_traces)
        assert_sweeps_identical(serial, result)

    def test_two_workers_share_one_store(
        self, short_video, multihost_traces, tmp_path
    ):
        # Two engines race over the same store directory — the lease
        # board splits the grid between them, and both merge the full
        # grid back bit-identical to the serial computation.
        serial = run_comparison(SCHEMES, short_video, multihost_traces)
        outcomes = {}

        def work(name):
            engine = ParallelSweepRunner(
                executor="multihost",
                store=SessionStore(tmp_path),
                lease_poll_s=0.05,
            )
            outcomes[name] = engine.run_comparison(
                SCHEMES, short_video, multihost_traces
            )

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert_sweeps_identical(serial, outcomes["a"])
        assert_sweeps_identical(serial, outcomes["b"])

    def test_dead_worker_lease_is_reclaimed(self, short_video, lte_traces, tmp_path):
        # Simulate a peer that claimed units and died: pre-claim every
        # grid unit under another owner and backdate the leases past the
        # ttl. The surviving engine must reclaim them (counted in the
        # registry) and finish the sweep with correct results.
        traces = lte_traces[:6]
        store = SessionStore(tmp_path)
        registry = MetricsRegistry()
        engine = ParallelSweepRunner(
            executor="multihost", store=store, registry=registry,
            lease_ttl_s=5.0, lease_poll_s=0.05,
        )
        specs = [
            SweepSpec(scheme=scheme, video_key=short_video.name, network="lte")
            for scheme in SCHEMES
        ]
        units = engine.scheduler.plan_grid_units(
            specs, {None: traces}, MULTIHOST_PLAN_WORKERS
        )
        assert units, "grid must plan at least one unit"
        dead = LeaseBoard(
            tmp_path, engine_sweep_id(engine, specs, short_video, traces),
            owner="dead-host:1", ttl_s=5.0,
        )
        for unit in units:
            assert dead.claim(unit.name)
            backdate(dead, unit.name, age_s=600.0)
        serial = run_comparison(SCHEMES, short_video, traces)
        result = engine.run_comparison(SCHEMES, short_video, traces)
        assert_sweeps_identical(serial, result)
        assert registry.value(LEASES_RECLAIMED_METRIC) == len(units)
        assert registry.value(LEASES_CLAIMED_METRIC) == len(units)

    def test_explicit_sweep_id_used_for_leases(self, short_video, lte_traces, tmp_path):
        engine = ParallelSweepRunner(
            executor="multihost", store=SessionStore(tmp_path),
            sweep_id="feedface", registry=MetricsRegistry(),
        )
        engine.run_comparison(["RBA"], short_video, lte_traces[:4])
        assert (tmp_path / "leases" / "feedface").is_dir()


def engine_sweep_id(engine, specs, video, traces):
    """The lease-directory id the engine will derive for this grid."""
    from repro.experiments.scheduler import sweep_grid_id
    from repro.player.session import SessionConfig

    if engine.sweep_id is not None:
        return engine.sweep_id
    keys = [
        engine.scheduler.keys_for(spec, video, traces, SessionConfig())
        for spec in specs
    ]
    return sweep_grid_id(keys)


class TestCachedShortCircuit:
    @pytest.mark.parametrize("executor", ["pool", "multihost"])
    def test_fully_cached_grid_skips_backend(
        self, short_video, lte_traces, tmp_path, executor
    ):
        store = SessionStore(tmp_path)
        seed_engine = ParallelSweepRunner(store=store)
        seeded = seed_engine.run_comparison(["RBA"], short_video, lte_traces[:4])
        warm = ParallelSweepRunner(
            executor=executor, store=SessionStore(tmp_path)
        )
        result = warm.run_comparison(["RBA"], short_video, lte_traces[:4])
        assert_sweeps_identical(seeded, result)
        assert warm.store.stats.hits == 4


class TestCLI:
    def test_sweep_worker_joins_manifest(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        recipe = SweepRecipe(
            schemes=("RBA",), videos=("ED-ffmpeg-h264",),
            network="lte", traces=2, seed=0,
        )
        write_manifest(store_dir, recipe_sweep_id(recipe), recipe)
        assert main(["sweep-worker", "--cache-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "ED-ffmpeg-h264, 2 LTE traces:" in out
        assert "RBA" in out

    def test_sweep_worker_without_manifest_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no sweep manifests"):
            main(["sweep-worker", "--cache-dir", str(tmp_path)])

    def test_compare_multihost_requires_cache_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cache-dir"):
            main([
                "compare", "ED-ffmpeg-h264", "--traces", "2",
                "--schemes", "RBA", "--executor", "multihost",
            ])

    def test_compare_rejects_unknown_executor(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "compare", "ED-ffmpeg-h264", "--traces", "2",
                "--schemes", "RBA", "--executor", "asyncio",
            ])
        assert "invalid choice: 'asyncio'" in capsys.readouterr().err

    def test_cache_leases_lists_and_expires(self, tmp_path, capsys):
        from repro.cli import main

        board = LeaseBoard(tmp_path, "cafe", owner="host:9", ttl_s=1.0)
        board.claim("u00000-s0-0-4")
        backdate(board, "u00000-s0-0-4", age_s=60.0)
        assert main(["cache", "leases", "--cache-dir", str(tmp_path),
                     "--lease-ttl", "1"]) == 0
        out = capsys.readouterr().out
        assert "u00000-s0-0-4" in out
        assert "STALE" in out
        assert main(["cache", "leases", "--cache-dir", str(tmp_path),
                     "--lease-ttl", "1", "--expire"]) == 0
        assert "reclaimed u00000-s0-0-4" in capsys.readouterr().out
        assert board.list_leases() == []

    def test_cache_gc_dry_run_removes_nothing(self, short_video, lte_traces, tmp_path, capsys):
        from repro.cli import main

        store = SessionStore(tmp_path)
        engine = ParallelSweepRunner(store=store)
        engine.run_comparison(["RBA"], short_video, lte_traces[:4])
        before = store.describe()["entries"]
        assert before == 4
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-entries", "1", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert SessionStore(tmp_path).describe()["entries"] == before
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        assert "removed" in capsys.readouterr().out
        assert SessionStore(tmp_path).describe()["entries"] == 1
