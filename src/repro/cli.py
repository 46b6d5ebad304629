"""Command-line interface: ``python -m repro ...`` (or the ``repro``
console script).

Subcommands:

- ``dataset``        — build the 16-video dataset analogue and print the
                       §2 statistics per video;
- ``characterize``   — run the §3 characterization on one video;
- ``traces``         — synthesize an LTE or FCC trace set and write it to
                       a directory (one Mbps-per-line file per trace);
- ``manifest``       — export one video's manifest as DASH MPD or HLS;
- ``run``            — stream one video over one trace with one scheme
                       and print the §6.1 QoE metrics (``--events`` adds
                       the session event timeline);
- ``compare``        — the §6.3 comparison across schemes and traces
                       (``--metrics-out`` dumps sweep telemetry);
- ``top``            — live terminal dashboard for a sweep started with
                       ``--metrics-dir`` (progress, rate, ETA, per-scheme
                       stage breakdown);
- ``trace``          — replay one session with controller tracing on and
                       print the per-chunk timeline (target buffer, PID
                       error, estimated vs realized bandwidth, quartile);
- ``cache``          — inspect or maintain a session-result store
                       (``stats`` / ``verify`` / ``gc`` / ``leases``;
                       ``gc --dry-run`` previews, ``leases --expire``
                       reclaims stale multi-host leases);
- ``sweep-worker``   — join a multi-host sweep: lease missing work units
                       from a shared ``--cache-dir`` store, compute them,
                       and merge the full grid (start one with ``compare
                       --executor multihost``);
- ``fleet``          — simulate a population of VoD and live sessions
                       arriving at shared edge links (with a flash
                       crowd) and print sessions, concurrency, QoE,
                       rebuffering and utilization (``--out`` writes
                       the JSON report);
- ``schemes``      — list the registered ABR schemes.

Every subcommand takes ``--seed`` so results replay exactly. ``run`` and
``compare`` take ``--workers N`` to fan sessions out over a process pool
(``0`` = every core); results are identical at any worker count, and
``--executor {pool,multihost}`` picks the backend that runs the
planned work (bit-identical results on both). Both also take
``--faults SPEC`` to replay the same sessions under injected adverse
conditions (outages, throughput drops, latency spikes — see
:mod:`repro.faults.spec` for the grammar), and ``compare`` takes
``--on-error {raise,skip,retry}`` to pick the sweep's failure policy.

``run`` and ``compare`` also take ``--cache-dir PATH`` to attach a
content-addressed session store: previously computed sessions are read
back bit-identically instead of re-run, so a repeated comparison is
nearly free. ``--no-cache`` ignores the store for one invocation with no
other behavior change.

The observability plane rides the same two subcommands: ``--profile
out.json`` records a stitched cross-process span timeline as Chrome
trace-event JSON (load it in Perfetto or ``chrome://tracing``), and
``compare`` additionally takes ``--serve-metrics PORT`` (live Prometheus
scrape endpoint, with background RSS/CPU sampling) and ``--metrics-dir
PATH`` (streams ``progress.json`` for ``repro top``). All of it is
opt-in: without these flags no tracer, sampler, or board exists and
results are bit-identical either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.abr.registry import (
    make_scheme,
    needs_quality_manifest,
    resolve_scheme_name,
    scheme_names,
)
from repro.analysis.characterization import characterize
from repro.experiments.leases import (
    DEFAULT_LEASE_TTL_S,
    LeaseBoard,
    SweepRecipe,
    latest_sweep_id,
    list_sweeps,
    read_manifest,
    recipe_sweep_id,
    write_manifest,
)
from repro.experiments.parallel import EXECUTOR_NAMES, ParallelSweepRunner
from repro.experiments.report import render_table
from repro.faults.spec import parse_fault_plan
from repro.fleet import FlashCrowd, FleetRunner, FleetSpec
from repro.network.link import TraceLink
from repro.network.traces import (
    save_trace_file,
    synthesize_fcc_traces,
    synthesize_lte_traces,
)
from repro.player.events import format_events, session_events
from repro.player.metrics import metric_for_network
from repro.player.session import run_session
from repro.telemetry import (
    MetricsRegistry,
    MetricsServer,
    ProgressBoard,
    ResourceSampler,
    SpanTracer,
    load_progress,
    registry_to_prometheus,
    render_controller_timeline,
    render_top,
    trace_session,
    write_chrome_trace,
)
from repro.video.dataset import (
    build_video,
    fourx_spec,
    standard_dataset_specs,
)
from repro.video.manifest_io import manifest_to_hls, manifest_to_mpd

__all__ = ["main", "build_parser"]


def _video_names() -> List[str]:
    return [spec.name for spec in standard_dataset_specs()] + [fourx_spec().name]


def _build_named_video(name: str, seed: int):
    for spec in list(standard_dataset_specs()) + [fourx_spec()]:
        if spec.name == name:
            return build_video(spec, seed=seed)
    raise SystemExit(f"unknown video {name!r}; known: {', '.join(_video_names())}")


def _make_traces(network: str, count: int, seed: int):
    if network == "lte":
        return synthesize_lte_traces(count=count, seed=seed)
    if network == "fcc":
        return synthesize_fcc_traces(count=count, seed=seed)
    raise SystemExit(f"unknown network {network!r}; expected lte or fcc")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def cmd_dataset(args: argparse.Namespace) -> int:
    rows = []
    for spec in standard_dataset_specs():
        video = build_video(spec, seed=args.seed)
        covs = [t.bitrate_cov for t in video.tracks]
        ratios = [t.peak_to_average_ratio for t in video.tracks]
        rows.append(
            (
                video.name,
                video.genre,
                f"{video.chunk_duration_s:g}s",
                f"{video.num_chunks}",
                f"{video.track(video.num_tracks - 1).average_bitrate_bps / 1e6:.2f}",
                f"{min(covs):.2f}-{max(covs):.2f}",
                f"{min(ratios):.2f}-{max(ratios):.2f}",
            )
        )
    print(
        render_table(
            ("video", "genre", "chunk", "n", "top Mbps", "CoV", "peak/avg"), rows
        )
    )
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    video = _build_named_video(args.video, args.seed)
    summary = characterize(video, metric=args.metric)
    print(video.describe())
    print()
    print(f"SI/TI above thresholds per quartile: "
          + ", ".join(f"Q{q}={summary.siti_fraction_above[q]:.0%}" for q in range(1, 5)))
    print(f"{args.metric} medians (middle track):  "
          + ", ".join(f"Q{q}={summary.quality_medians[q]:.1f}" for q in range(1, 5)))
    print(f"Q4 quality gap: {summary.q4_quality_gap:.1f}")
    print(f"size-complexity correlation: {summary.size_complexity_corr:.2f}")
    print(f"min cross-track category correlation: {summary.min_cross_track_correlation:.2f}")
    return 0


def cmd_traces(args: argparse.Namespace) -> int:
    traces = _make_traces(args.network, args.count, args.seed)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        save_trace_file(trace, output / f"{trace.name}.txt")
    means = sorted(t.mean_bps / 1e6 for t in traces)
    print(
        f"wrote {len(traces)} {args.network.upper()} traces to {output} "
        f"(mean throughput {means[0]:.2f}-{means[-1]:.2f} Mbps)"
    )
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    video = _build_named_video(args.video, args.seed)
    manifest = video.manifest()
    output = Path(args.output)
    if args.format == "mpd":
        output.write_text(manifest_to_mpd(manifest))
        print(f"wrote DASH MPD to {output}")
    else:
        output.mkdir(parents=True, exist_ok=True)
        for name, contents in manifest_to_hls(manifest).items():
            (output / name).write_text(contents)
        print(f"wrote HLS playlists to {output}/")
    return 0


def _workers_arg(args: argparse.Namespace) -> Optional[int]:
    """Map the CLI convention (0 = all cores) to the engine's (None)."""
    return None if args.workers == 0 else args.workers


def _store_arg(args: argparse.Namespace):
    """Open the ``--cache-dir`` session store (None without one).

    ``--no-cache`` falls through to None even when a directory is
    given, so one invocation can bypass the store with no other
    behavior change.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from repro.experiments.store import SessionStore

    return SessionStore(cache_dir)


def _fault_plan_arg(args: argparse.Namespace):
    """Parse ``--faults`` (None when absent), exiting on a bad spec."""
    if getattr(args, "faults", None) is None:
        return None
    try:
        return parse_fault_plan(args.faults)
    except ValueError as exc:
        raise SystemExit(f"--faults: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    scheme = resolve_scheme_name(args.scheme)
    video = _build_named_video(args.video, args.seed)
    traces = _make_traces(args.network, args.trace_index + 1, args.seed)
    trace = traces[args.trace_index]
    plan = _fault_plan_arg(args)
    tracer = SpanTracer("scheduler") if args.profile else None
    store = _store_arg(args)
    if args.executor == "multihost" and store is None:
        raise SystemExit("--executor multihost requires --cache-dir "
                         "(the shared store coordinates the hosts)")
    engine = ParallelSweepRunner(
        n_workers=_workers_arg(args), fault_plan=plan, store=store,
        tracer=tracer, executor=args.executor,
    )
    sweep = engine.run_scheme(scheme, video, [trace], args.network)
    if tracer is not None:
        path = write_chrome_trace(tracer.spans, args.profile)
        print(f"wrote Chrome trace to {path} (open in Perfetto / chrome://tracing)")
    metrics = sweep.metrics[0]
    print(f"{scheme} on {video.name} over {trace.name} "
          f"(mean {trace.mean_bps / 1e6:.2f} Mbps):")
    if plan is not None:
        print(f"  faults: {plan.describe()}")
    for key, value in metrics.as_dict().items():
        print(f"  {key:26s} {value:10.3f}")
    if args.events:
        # Replay the same session directly to recover the full record
        # (the sweep engine only keeps the summary metrics), under the
        # same perturbed trace and latency spikes as the sweep.
        metric = metric_for_network(args.network)
        link_trace = trace
        if plan is not None:
            link_trace, _ = plan.perturb_trace(trace)
        link = TraceLink(link_trace)
        if plan is not None:
            link = plan.wrap_link(link)
        result = run_session(
            make_scheme(scheme, metric=metric),
            video,
            link,
            include_quality=needs_quality_manifest(scheme),
        )
        print()
        print(format_events(session_events(result)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    scheme = resolve_scheme_name(args.scheme)
    video = _build_named_video(args.video, args.seed)
    trace = _make_traces(args.network, 1, args.trace_seed)[0]
    metric = metric_for_network(args.network)
    result, session_trace = trace_session(
        make_scheme(scheme, metric=metric),
        video,
        trace,
        include_quality=needs_quality_manifest(scheme),
    )
    print(render_controller_timeline(session_trace, result, limit=args.limit))
    return 0


def _comparison_table(schemes, results) -> str:
    """Render the scheme-comparison table shared by compare/sweep-worker.

    One code path means a multi-host worker's report is byte-identical
    to the initiating ``compare`` run — CI diffs the two directly.
    """
    rows = []
    for scheme in schemes:
        sweep = results[scheme]
        rows.append(
            (
                scheme,
                f"{sweep.mean('q4_quality_mean'):.1f}",
                f"{sweep.mean('low_quality_fraction') * 100:.1f}%",
                f"{sweep.mean('rebuffer_s'):.1f}",
                f"{sweep.mean('quality_change_per_chunk'):.2f}",
                f"{sweep.mean('data_usage_mb'):.0f}",
            )
        )
    return render_table(
        ("scheme", "Q4 quality", "low-qual", "stall s", "qual chg", "data MB"), rows
    )


def cmd_compare(args: argparse.Namespace) -> int:
    video = _build_named_video(args.video, args.seed)
    traces = _make_traces(args.network, args.traces, args.seed)
    # A registry backs every metrics surface: the --metrics-out dump,
    # the --serve-metrics scrape endpoint, and the resource time series
    # that feed both the dashboard and the Chrome-trace counter lanes.
    want_registry = bool(
        args.metrics_out or args.serve_metrics is not None or args.metrics_dir
    )
    registry = MetricsRegistry() if want_registry else None
    tracer = SpanTracer("scheduler") if args.profile else None
    board = ProgressBoard(args.metrics_dir) if args.metrics_dir else None
    plan = _fault_plan_arg(args)
    store = _store_arg(args)
    sweep_id = None
    if args.executor == "multihost":
        # The shared store is the coordination medium: publish a seeded
        # recipe manifest so `repro sweep-worker` processes (on this or
        # other hosts) can rebuild the identical grid and lease units.
        if store is None:
            raise SystemExit("--executor multihost requires --cache-dir "
                             "(the shared store coordinates the hosts)")
        if args.on_error != "raise":
            raise SystemExit("--executor multihost supports only "
                             "--on-error raise")
        recipe = SweepRecipe(
            schemes=tuple(args.schemes), videos=(args.video,),
            network=args.network, traces=args.traces, seed=args.seed,
            faults=args.faults,
        )
        sweep_id = recipe_sweep_id(recipe)
        write_manifest(store.root, sweep_id, recipe)
        # stderr, so stdout stays byte-identical to a serial compare.
        print(f"sweep {sweep_id}: join with "
              f"`repro sweep-worker --cache-dir {store.root}`",
              file=sys.stderr)
    server = sampler = None
    if args.serve_metrics is not None:
        server = MetricsServer(registry, port=args.serve_metrics).start()
        print(f"serving Prometheus metrics at {server.url}")
    if registry is not None:
        sampler = ResourceSampler(registry).start()
    try:
        engine = ParallelSweepRunner(
            n_workers=_workers_arg(args), registry=registry,
            fault_plan=plan, on_error=args.on_error,
            max_retries=args.max_retries, store=store, tracer=tracer,
            progress=board, executor=args.executor, sweep_id=sweep_id,
            lease_ttl_s=args.lease_ttl, lease_poll_s=args.lease_poll,
        )
        results = engine.run_comparison(args.schemes, video, traces, args.network)
    finally:
        if sampler is not None:
            sampler.stop()
        if board is not None:
            board.close()
        if server is not None:
            server.stop()
    print(f"{video.name}, {len(traces)} {args.network.upper()} traces:")
    if plan is not None:
        print(f"faults: {plan.describe()}")
    print(_comparison_table(args.schemes, results))
    failures = [f for scheme in args.schemes for f in results[scheme].failures]
    if failures:
        print()
        print(f"{len(failures)} work unit(s) dropped (--on-error={args.on_error}):")
        for failed in failures:
            print(f"  {failed}")
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(registry_to_prometheus(registry))
        print(f"wrote sweep metrics to {path}")
    if tracer is not None:
        path = write_chrome_trace(tracer.spans, args.profile, registry)
        print(f"wrote Chrome trace to {path} (open in Perfetto / chrome://tracing)")
    return 0


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    store = _store_arg(args)
    if store is None:
        raise SystemExit("sweep-worker requires --cache-dir pointing at the "
                         "store shared with the initiating sweep")
    sweep_id = args.sweep_id or latest_sweep_id(store.root)
    if sweep_id is None:
        raise SystemExit(
            f"no sweep manifests under {store.root}/sweeps; start one with "
            "`repro compare --executor multihost --cache-dir ...`"
        )
    try:
        recipe = read_manifest(store.root, sweep_id)
    except FileNotFoundError:
        known = ", ".join(sid for sid, _ in list_sweeps(store.root)) or "none"
        raise SystemExit(
            f"no manifest for sweep {sweep_id!r} (known sweeps: {known})"
        ) from None
    videos = [_build_named_video(name, recipe.seed) for name in recipe.videos]
    traces = _make_traces(recipe.network, recipe.traces, recipe.seed)
    plan = parse_fault_plan(recipe.faults) if recipe.faults else None
    registry = MetricsRegistry() if args.metrics_out else None
    tracer = SpanTracer("scheduler") if args.profile else None
    print(f"joining sweep {sweep_id}: {len(recipe.schemes)} scheme(s) x "
          f"{len(videos)} video(s) x {recipe.traces} {recipe.network.upper()} "
          f"traces (seed {recipe.seed})", file=sys.stderr)
    engine = ParallelSweepRunner(
        registry=registry, fault_plan=plan, store=store, tracer=tracer,
        executor="multihost", sweep_id=sweep_id,
        lease_ttl_s=args.lease_ttl, lease_poll_s=args.lease_poll,
    )
    if len(videos) == 1:
        # Single-video recipes (everything `compare` initiates) report
        # with the exact stdout of the initiating run.
        results = engine.run_comparison(
            recipe.schemes, videos[0], traces, recipe.network
        )
        print(f"{videos[0].name}, {len(traces)} {recipe.network.upper()} traces:")
        if plan is not None:
            print(f"faults: {plan.describe()}")
        print(_comparison_table(recipe.schemes, results))
    else:
        grid = engine.run_grid(recipe.schemes, videos, traces, recipe.network)
        for video in videos:
            results = {
                scheme: grid[(scheme, video.name)] for scheme in recipe.schemes
            }
            print(f"{video.name}, {len(traces)} {recipe.network.upper()} traces:")
            if plan is not None:
                print(f"faults: {plan.describe()}")
            print(_comparison_table(recipe.schemes, results))
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(registry_to_prometheus(registry))
        print(f"wrote sweep metrics to {path}")
    if tracer is not None:
        path = write_chrome_trace(tracer.spans, args.profile, registry)
        print(f"wrote Chrome trace to {path} (open in Perfetto / chrome://tracing)")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    crowds = ()
    if args.crowd_multiplier > 1.0:
        crowds = (
            FlashCrowd(
                start_s=args.crowd_start_frac * args.duration,
                duration_s=args.crowd_duration,
                multiplier=args.crowd_multiplier,
            ),
        )
    try:
        spec = FleetSpec(
            seed=args.seed,
            duration_s=args.duration,
            n_edges=args.edges,
            arrivals_per_s=args.arrivals,
            edge_capacity_mbps=args.edge_capacity,
            flash_crowds=crowds,
            schemes=tuple(args.schemes),
            live_fraction=args.live_fraction,
            mean_watch_chunks=args.mean_watch_chunks,
            fault_plan=_fault_plan_arg(args),
        )
    except ValueError as exc:
        raise SystemExit(f"bad fleet spec: {exc}") from None
    want_registry = bool(
        args.metrics_out or args.serve_metrics is not None or args.metrics_dir
    )
    registry = MetricsRegistry() if want_registry else None
    tracer = SpanTracer("fleet") if args.profile else None
    board = ProgressBoard(args.metrics_dir) if args.metrics_dir else None
    server = sampler = None
    if args.serve_metrics is not None:
        server = MetricsServer(registry, port=args.serve_metrics).start()
        print(f"serving Prometheus metrics at {server.url}")
    if registry is not None:
        sampler = ResourceSampler(registry).start()
    try:
        runner = FleetRunner(
            spec, n_workers=_workers_arg(args), registry=registry,
            tracer=tracer, progress=board,
        )
        result = runner.run()
    finally:
        if sampler is not None:
            sampler.stop()
        if board is not None:
            board.close()
        if server is not None:
            server.stop()
    report = result.report()
    totals = report["totals"]
    print(
        f"fleet: {totals['sessions']} sessions ({totals['live_sessions']} live) "
        f"across {spec.n_edges} edges in {totals['wall_s']:.1f}s wall"
    )
    rows = [
        ("sessions", f"{totals['sessions']}"),
        ("peak concurrency", f"{totals['peak_concurrency']:.0f}"),
        ("chunks", f"{totals['chunks']}"),
        ("delivered", f"{totals['delivered_gbits']:.1f} Gbit"),
        ("mean QoE", f"{totals['mean_qoe']:.2f}"),
        ("mean quality", f"{totals['mean_quality']:.1f}"),
        ("rebuffer ratio", f"{totals['rebuffer_ratio'] * 100:.3f}%"),
        ("edge utilization", f"{totals['mean_utilization'] * 100:.1f}%"),
    ]
    print(render_table(("metric", "value"), rows))
    if spec.fault_plan is not None:
        print(f"faults: {spec.fault_plan.describe()}")
    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote fleet report to {path}")
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(registry_to_prometheus(registry))
        print(f"wrote fleet metrics to {path}")
    if tracer is not None:
        path = write_chrome_trace(tracer.spans, args.profile, registry)
        print(f"wrote Chrome trace to {path} (open in Perfetto / chrome://tracing)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import time

    while True:
        progress = load_progress(args.metrics_dir)
        if progress is None:
            frame = f"waiting for {args.metrics_dir}/progress.json ...\n"
        else:
            frame = render_top(progress)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home, then the frame: a flicker-free live board.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        if progress is not None and progress.get("phase") in ("merged", "done"):
            return 0
        try:
            time.sleep(args.refresh)
        except KeyboardInterrupt:
            return 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.store import SessionStore

    # Maintenance reads an existing store: opening one would create the
    # directory tree and report a mistyped path as a clean, empty store.
    if not Path(args.cache_dir).is_dir():
        raise SystemExit(
            f"cache {args.action}: no session store at {args.cache_dir}"
        )
    store = SessionStore(args.cache_dir)
    if args.action == "stats":
        # Both forms are machine-readable; --json selects the compact
        # single-line encoding for log pipelines.
        description = store.describe()
        if getattr(args, "json", False):
            print(json.dumps(description, separators=(",", ":")))
        else:
            print(json.dumps(description, indent=2))
        return 0
    if args.action == "verify":
        problems = store.verify()
        if not problems:
            print(f"{store.root}: all entries verified clean")
            return 0
        print(f"{store.root}: {len(problems)} defective entr"
              f"{'y' if len(problems) == 1 else 'ies'}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.action == "leases":
        ids = [sweep_id for sweep_id, _ in list_sweeps(store.root)]
        # Programmatic sweeps (sweep_grid_id) hold leases without ever
        # writing a manifest; pick their boards up from the lease tree.
        lease_tree = Path(store.root) / "leases"
        if lease_tree.is_dir():
            ids.extend(
                entry.name for entry in sorted(lease_tree.iterdir())
                if entry.is_dir() and entry.name not in ids
            )
        if args.sweep_id is not None:
            ids = [args.sweep_id]
        if not ids:
            print(f"{store.root}: no sweeps")
            return 0
        for sweep_id in ids:
            board = LeaseBoard(store.root, sweep_id, ttl_s=args.lease_ttl)
            leases = board.list_leases()
            print(f"sweep {sweep_id}: {len(leases)} lease(s)")
            for lease in leases:
                mark = "  STALE" if lease.stale else ""
                print(f"  {lease.unit}  owner={lease.owner}  "
                      f"age={lease.age_s:.1f}s/{lease.ttl_s:.0f}s{mark}")
            if args.expire:
                reclaimed = board.reclaim_stale()
                for unit in reclaimed:
                    print(f"  reclaimed {unit}")
                if not reclaimed:
                    print("  nothing stale to reclaim")
        return 0
    # gc
    removed = store.gc(
        max_entries=args.max_entries,
        max_age_s=(
            None if args.max_age_days is None else args.max_age_days * 86400.0
        ),
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    entries = removed["defective"] + removed["expired"] + removed["evicted"]
    print(
        f"{store.root}: {verb} {removed['defective']} defective, "
        f"{removed['expired']} expired, {removed['evicted']} over-cap "
        f"entr{'y' if entries == 1 else 'ies'}, "
        f"{removed['orphans']} orphaned temp file"
        f"{'' if removed['orphans'] == 1 else 's'}"
    )
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    for name in scheme_names():
        quality = " (needs per-chunk quality metadata)" if needs_quality_manifest(name) else ""
        print(f"  {name}{quality}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAVA / VBR-ABR reproduction toolkit (CoNEXT 2018)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("dataset", help="build and summarize the 16-video dataset")

    p = commands.add_parser("characterize", help="run the §3 characterization on one video")
    p.add_argument("video", help="video name, e.g. ED-ffmpeg-h264")
    p.add_argument("--metric", default="vmaf_phone",
                   choices=("vmaf_phone", "vmaf_tv", "psnr", "ssim"))

    p = commands.add_parser("traces", help="synthesize a trace set to a directory")
    p.add_argument("network", choices=("lte", "fcc"))
    p.add_argument("output", help="output directory")
    p.add_argument("--count", type=int, default=200)

    p = commands.add_parser("manifest", help="export a video's manifest")
    p.add_argument("video")
    p.add_argument("output", help="output file (mpd) or directory (hls)")
    p.add_argument("--format", choices=("mpd", "hls"), default="mpd")

    p = commands.add_parser("run", help="stream one video over one trace")
    p.add_argument("video")
    p.add_argument("--scheme", default="CAVA")
    p.add_argument("--network", choices=("lte", "fcc"), default="lte")
    p.add_argument("--trace-index", type=int, default=0)
    p.add_argument("--events", action="store_true",
                   help="also print the session event timeline")
    p.add_argument("--workers", type=int, default=1,
                   help="sweep worker processes (0 = all cores; default 1)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject adverse conditions, e.g. outages:p=0.05,seed=7")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="reuse/populate a content-addressed session store")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir for this invocation")
    p.add_argument("--executor", choices=EXECUTOR_NAMES, default="pool",
                   help="sweep execution backend (default pool)")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="write a Chrome trace of the run (open in Perfetto)")

    p = commands.add_parser(
        "trace", help="replay one session with controller tracing on"
    )
    p.add_argument("--scheme", default="CAVA",
                   help="scheme name or alias, e.g. cava-p123")
    p.add_argument("--video", required=True, help="video name, e.g. ED-ffmpeg-h264")
    p.add_argument("--network", choices=("lte", "fcc"), default="lte")
    p.add_argument("--trace-seed", type=int, default=0,
                   help="seed for the synthesized network trace")
    p.add_argument("--limit", type=int, default=None,
                   help="truncate the timeline to the first N rows")

    p = commands.add_parser("compare", help="compare schemes over a trace set")
    p.add_argument("video")
    p.add_argument("--network", choices=("lte", "fcc"), default="lte")
    p.add_argument("--traces", type=int, default=20)
    p.add_argument(
        "--schemes", nargs="+",
        default=["CAVA", "RobustMPC", "PANDA/CQ max-min"],
    )
    p.add_argument("--workers", type=int, default=1,
                   help="sweep worker processes (0 = all cores; default 1)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a Prometheus-format sweep telemetry dump")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject adverse conditions, e.g. "
                        "outages:p=0.05,seed=7+latency:p=0.1")
    p.add_argument("--on-error", choices=("raise", "skip", "retry"),
                   default="raise",
                   help="failure policy for sweep work units (default raise)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per work unit under --on-error retry")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="reuse/populate a content-addressed session store")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir for this invocation")
    p.add_argument("--executor", choices=EXECUTOR_NAMES, default="pool",
                   help="sweep execution backend; multihost publishes a "
                        "manifest other hosts join with `repro sweep-worker` "
                        "(default pool)")
    p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
                   help="multihost: seconds before an unrefreshed lease is "
                        f"stale (default {DEFAULT_LEASE_TTL_S:.0f})")
    p.add_argument("--lease-poll", type=float, default=0.5,
                   help="multihost: seconds between polls while other hosts "
                        "hold the remaining units (default 0.5)")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="write a Chrome trace of the sweep (open in Perfetto)")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve live Prometheus metrics over HTTP during the "
                        "sweep (0 picks an ephemeral port)")
    p.add_argument("--metrics-dir", default=None, metavar="PATH",
                   help="stream live progress for `repro top` to this directory")

    p = commands.add_parser(
        "sweep-worker",
        help="join a multi-host sweep by leasing work from a shared store",
    )
    p.add_argument("--cache-dir", required=True, metavar="PATH",
                   help="store directory shared with the initiating sweep")
    p.add_argument("--sweep-id", default=None,
                   help="sweep to join (default: newest manifest in the store)")
    p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
                   help="seconds before an unrefreshed lease is stale "
                        f"(default {DEFAULT_LEASE_TTL_S:.0f})")
    p.add_argument("--lease-poll", type=float, default=0.5,
                   help="seconds between polls while other hosts hold the "
                        "remaining units (default 0.5)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a Prometheus-format sweep telemetry dump")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="write a Chrome trace of the worker (open in Perfetto)")

    p = commands.add_parser(
        "fleet",
        help="simulate a session population contending at shared edges",
    )
    p.add_argument("--duration", type=float, default=5400.0,
                   help="arrival horizon in seconds (default 5400 = 90 min; "
                        "sessions in flight at the horizon play out)")
    p.add_argument("--edges", type=int, default=24,
                   help="shared bottleneck links in the fleet (default 24)")
    p.add_argument("--arrivals", type=float, default=20.0,
                   help="fleet-wide base arrival rate, sessions/s (default 20)")
    p.add_argument("--edge-capacity", type=float, default=220.0,
                   help="mean edge capacity in Mbps (default 220)")
    p.add_argument("--schemes", nargs="+", default=["CAVA", "RBA"],
                   help="ABR schemes sessions draw from (default CAVA RBA)")
    p.add_argument("--live-fraction", type=float, default=0.15,
                   help="fraction of sessions streaming live (default 0.15)")
    p.add_argument("--mean-watch-chunks", type=float, default=24.0,
                   help="mean chunks watched before abandoning (default 24)")
    p.add_argument("--crowd-multiplier", type=float, default=6.0,
                   help="flash-crowd arrival multiplier; <=1 disables "
                        "(default 6)")
    p.add_argument("--crowd-start-frac", type=float, default=0.6,
                   help="crowd start as a fraction of --duration (default 0.6)")
    p.add_argument("--crowd-duration", type=float, default=300.0,
                   help="crowd plateau length in seconds (default 300)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = all cores; default 0)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="perturb edge capacity / inject latency spikes, "
                        "e.g. outages:p=0.05,seed=7+latency:p=0.1")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON fleet report (curves + totals)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a Prometheus-format telemetry dump")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="write a Chrome trace of the fleet run")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve live Prometheus metrics over HTTP during the "
                        "run (0 picks an ephemeral port)")
    p.add_argument("--metrics-dir", default=None, metavar="PATH",
                   help="stream live progress for `repro top` to this directory")

    p = commands.add_parser(
        "top", help="live dashboard for a sweep started with --metrics-dir"
    )
    p.add_argument("metrics_dir", help="the sweep's --metrics-dir directory")
    p.add_argument("--refresh", type=float, default=1.0,
                   help="seconds between dashboard refreshes (default 1)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit")

    p = commands.add_parser(
        "cache", help="inspect or maintain a session-result store"
    )
    p.add_argument("action", choices=("stats", "verify", "gc", "leases"))
    p.add_argument("--cache-dir", required=True, metavar="PATH",
                   help="session store root directory")
    p.add_argument("--json", action="store_true",
                   help="stats: compact single-line JSON output")
    p.add_argument("--max-entries", type=int, default=None,
                   help="gc: keep at most this many newest entries")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="gc: drop entries older than this many days")
    p.add_argument("--dry-run", action="store_true",
                   help="gc: report what would be removed without removing")
    p.add_argument("--sweep-id", default=None,
                   help="leases: restrict to one sweep (default: all sweeps)")
    p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
                   help="leases: staleness threshold in seconds "
                        f"(default {DEFAULT_LEASE_TTL_S:.0f})")
    p.add_argument("--expire", action="store_true",
                   help="leases: reclaim stale leases so their units can "
                        "be re-leased")

    commands.add_parser("schemes", help="list registered ABR schemes")
    return parser


_HANDLERS = {
    "dataset": cmd_dataset,
    "characterize": cmd_characterize,
    "traces": cmd_traces,
    "manifest": cmd_manifest,
    "run": cmd_run,
    "trace": cmd_trace,
    "compare": cmd_compare,
    "sweep-worker": cmd_sweep_worker,
    "fleet": cmd_fleet,
    "top": cmd_top,
    "cache": cmd_cache,
    "schemes": cmd_schemes,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
