"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "schemes"])
        assert args.seed == 7


class TestSchemes:
    def test_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "CAVA" in out
        assert "RobustMPC" in out
        assert "PANDA/CQ max-min" in out


class TestDataset:
    def test_prints_sixteen_rows(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert out.count("youtube") == 8
        assert out.count("ffmpeg") == 8


class TestCharacterize:
    def test_known_video(self, capsys):
        assert main(["characterize", "ED-youtube-h264"]) == 0
        out = capsys.readouterr().out
        assert "Q4 quality gap" in out

    def test_unknown_video_exits(self):
        with pytest.raises(SystemExit, match="unknown video"):
            main(["characterize", "nope"])

    def test_fourx_video_available(self, capsys):
        assert main(["characterize", "ED-ffmpeg-h264-4x"]) == 0


class TestTraces:
    def test_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(["traces", "lte", str(out_dir), "--count", "3"]) == 0
        files = sorted(out_dir.glob("*.txt"))
        assert len(files) == 3
        assert "wrote 3" in capsys.readouterr().out

    def test_files_loadable(self, tmp_path):
        from repro.network.traces import load_trace_file

        out_dir = tmp_path / "traces"
        main(["traces", "fcc", str(out_dir), "--count", "1"])
        trace = load_trace_file(next(out_dir.glob("*.txt")), interval_s=5.0)
        assert trace.num_intervals > 0


class TestManifest:
    def test_mpd_export(self, tmp_path, capsys):
        out = tmp_path / "video.mpd"
        assert main(["manifest", "ED-youtube-h264", str(out)]) == 0
        assert out.read_text().startswith("<?xml")

    def test_hls_export(self, tmp_path):
        out = tmp_path / "hls"
        assert main(["manifest", "ED-youtube-h264", str(out), "--format", "hls"]) == 0
        assert (out / "master.m3u8").exists()
        assert (out / "track0.m3u8").exists()

    def test_mpd_round_trip_via_cli_output(self, tmp_path):
        from repro.video.manifest_io import manifest_from_mpd

        out = tmp_path / "video.mpd"
        main(["manifest", "ED-youtube-h264", str(out)])
        manifest = manifest_from_mpd(out.read_text())
        assert manifest.num_tracks == 6


class TestRun:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "ED-youtube-h264", "--scheme", "RBA"]) == 0
        out = capsys.readouterr().out
        assert "q4_quality_mean" in out
        assert "rebuffer_s" in out

    def test_run_quality_scheme(self, capsys):
        assert main(["run", "ED-youtube-h264", "--scheme", "PANDA/CQ max-min"]) == 0


class TestRunEvents:
    def test_events_flag_prints_timeline(self, capsys):
        assert main(
            ["run", "ED-youtube-h264", "--scheme", "RBA", "--events"]
        ) == 0
        out = capsys.readouterr().out
        assert "q4_quality_mean" in out  # metrics still printed first
        assert "playback started" in out

    def test_scheme_alias_accepted(self, capsys):
        assert main(
            ["run", "ED-youtube-h264", "--scheme", "cava-p123"]
        ) == 0
        assert "CAVA on" in capsys.readouterr().out


class TestTrace:
    def test_controller_timeline_columns(self, capsys):
        assert main(
            ["trace", "--scheme", "cava-p123", "--video", "ED-youtube-h264",
             "--trace-seed", "3", "--limit", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-chunk controller timeline" in out
        for column in ("target", "err", "u", "alpha", "est Mbps", "real Mbps", "Q"):
            assert column in out
        assert "Q4" in out or "Q1" in out  # quartile classes rendered

    def test_baseline_scheme_dashes(self, capsys):
        assert main(
            ["trace", "--scheme", "RBA", "--video", "ED-youtube-h264", "--limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "RBA on" in out
        assert " - " in out  # no controller columns for baselines

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            main(["trace", "--scheme", "nope", "--video", "ED-youtube-h264"])


class TestCompare:
    def test_compare_table(self, capsys):
        assert main(
            ["compare", "ED-youtube-h264", "--traces", "2", "--schemes", "CAVA", "RBA"]
        ) == 0
        out = capsys.readouterr().out
        assert "CAVA" in out and "RBA" in out
        assert "Q4 quality" in out

    def test_metrics_out_writes_prometheus_dump(self, tmp_path, capsys):
        path = tmp_path / "sweep.prom"
        assert main(
            ["compare", "ED-youtube-h264", "--traces", "2",
             "--schemes", "CAVA", "RBA", "--metrics-out", str(path)]
        ) == 0
        text = path.read_text()
        assert "repro_sweep_sessions_completed_total 4" in text
        assert "# TYPE repro_sweep_unit_seconds histogram" in text
        assert "wrote sweep metrics" in capsys.readouterr().out


class TestFaultsAndPolicyFlags:
    def test_compare_with_faults_prints_plan(self, capsys):
        assert main(
            ["compare", "ED-youtube-h264", "--traces", "2", "--schemes", "RBA",
             "--faults", "outages:p=0.02,seed=7", "--on-error", "skip"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults: outages(p=0.02" in out
        assert "seed=7" in out

    def test_compare_faults_change_results(self, capsys):
        main(["compare", "ED-youtube-h264", "--traces", "2", "--schemes", "RBA"])
        clean = capsys.readouterr().out
        main(["compare", "ED-youtube-h264", "--traces", "2", "--schemes", "RBA",
              "--faults", "scale:factor=0.3"])
        faulted = capsys.readouterr().out
        clean_row = [line for line in clean.splitlines() if line.startswith("RBA")]
        faulted_row = [line for line in faulted.splitlines() if line.startswith("RBA")]
        assert clean_row != faulted_row

    def test_bad_faults_spec_exits_with_message(self):
        with pytest.raises(SystemExit, match="--faults"):
            main(["compare", "ED-youtube-h264", "--traces", "2",
                  "--schemes", "RBA", "--faults", "bogus:p=1"])

    def test_run_with_faults_and_events(self, capsys):
        assert main(
            ["run", "ED-youtube-h264", "--scheme", "RBA", "--events",
             "--faults", "latency:p=0.2,spike_s=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults: latency(p=0.2" in out
        assert "playback started" in out

    def test_on_error_default_is_raise(self):
        args = build_parser().parse_args(["compare", "v"])
        assert args.on_error == "raise"
        assert args.max_retries == 2
        assert args.faults is None


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "schemes"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "CAVA" in proc.stdout


class TestCacheMaintenance:
    @pytest.mark.parametrize("action", ["stats", "verify", "gc", "leases"])
    def test_missing_store_fails_and_creates_nothing(self, tmp_path, capsys, action):
        missing = tmp_path / "no-such-store"
        with pytest.raises(SystemExit) as exc:
            main(["cache", action, "--cache-dir", str(missing)])
        assert exc.value.code not in (0, None)
        assert str(missing) in str(exc.value.code)
        assert not missing.exists()
        assert "entries" not in capsys.readouterr().out

    def test_existing_empty_store_is_clean(self, tmp_path, capsys):
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "all entries verified clean" in capsys.readouterr().out
