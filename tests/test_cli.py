"""The command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure", "raytrace"])
        assert args.threads == 1
        assert args.mode == "undervolt"

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.servers == 4
        assert args.duration == 86_400.0
        assert args.seed == 7
        assert args.rate == 18.0
        assert args.lc_fraction == 0.15
        assert args.no_advisor_gate is False
        assert args.trace_out is None
        # The settle-cache options ride along.
        assert args.cache_dir is None
        assert args.timings is False

    def test_sweep_parses_bad_workers_for_post_validation(self):
        # Out-of-range numerics parse cleanly (type=int) and are rejected
        # post-parse by validate_numeric_args with a ConfigError — not by
        # argparse's exit-2 usage dump.
        args = build_parser().parse_args(
            ["sweep", "raytrace", "--workers", "0"]
        )
        assert args.workers == 0


class TestNumericValidation:
    """Out-of-range numeric options: one error line, ConfigError exit 4."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--servers", "0"],
            ["fleet", "--servers", "-3"],
            ["figure", "fig3", "--workers", "0"],
            ["fleet", "--duration", "-5"],
            ["fleet", "--duration", "0"],
            ["fleet", "--duration", "nan"],
            ["fleet", "--duration", "inf"],
            ["fleet", "--rate", "-1"],
            ["fleet", "--rate", "nan"],
            ["fleet", "--lc-fraction", "1.5"],
            ["fleet", "--lc-fraction", "nan"],
            ["chaos", "--servers", "0"],
            ["chaos", "--crash-at", "-10"],
            ["chaos", "--repair-after", "nan"],
            ["measure", "raytrace", "-n", "0"],
            ["sweep", "raytrace", "--workers", "-2"],
        ],
    )
    def test_bad_numeric_exits_4_with_one_line(self, argv, capsys):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1

    def test_error_names_the_offending_option(self, capsys):
        assert main(["fleet", "--duration", "nan"]) == 4
        assert "--duration" in capsys.readouterr().err

    def test_validation_happens_before_the_handler_runs(self, capsys):
        # A huge fleet with --servers 0 must fail instantly, proving the
        # check runs pre-dispatch (the handler would take minutes).
        assert main(["fleet", "--servers", "0", "--duration", "864000"]) == 4

    def test_debug_reraises_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["fleet", "--servers", "0", "--debug"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["workloads"],
            ["measure", "raytrace"],
            ["sweep", "raytrace"],
            ["figure", "fig3"],
            ["audit", "raytrace"],
            ["fleet"],
            ["selfcheck"],
            ["report"],
            ["export", "fig3"],
            ["metrics", "m.json"],
        ],
    )
    def test_every_subcommand_accepts_shared_options(self, argv):
        args = build_parser().parse_args(
            argv
            + [
                "--seed", "3",
                "--metrics-out", "m.json",
                "--trace-spans", "s.jsonl",
            ]
        )
        assert args.seed == 3
        assert args.metrics_out == "m.json"
        assert args.trace_spans == "s.jsonl"

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "raytrace"], ["figure", "fig3"], ["fleet"], ["chaos"]],
    )
    def test_runner_options_on_the_commands_that_read_them(self, argv):
        args = build_parser().parse_args(
            argv + ["--cache-dir", "cache", "--timings"]
        )
        assert args.cache_dir == "cache"
        assert args.timings is True

    def test_workers_only_on_sweep_and_figure(self):
        # Fleet settles are one-task batches that never reach a pool, so
        # the fleet-running commands do not take --workers.
        for argv in (["sweep", "raytrace"], ["figure", "fig3"]):
            args = build_parser().parse_args(argv + ["--workers", "2"])
            assert args.workers == 2
        for argv in (["fleet"], ["chaos"], ["chaos", "campaign"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv + ["--workers", "2"])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["workloads"],
            ["measure", "raytrace"],
            ["audit", "raytrace"],
            ["selfcheck"],
            ["report"],
            ["export", "fig3"],
            ["metrics", "m.json"],
            ["scenario", "check"],
        ],
    )
    @pytest.mark.parametrize(
        "option", [["--workers", "2"], ["--cache-dir", "cache"], ["--timings"]]
    )
    def test_commands_that_ignore_runner_options_reject_them(
        self, argv, option
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + option)
        assert exc.value.code == 2

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics", "m.json"])
        assert args.path == "m.json"
        assert args.prometheus is False


class TestCommands:
    def test_workloads_lists_catalog(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "raytrace" in out
        assert "GemsFDTD" in out
        assert "spec2006" in out

    def test_measure_undervolt(self, capsys):
        assert main(["measure", "raytrace", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "power saving" in out
        assert "undervolt" in out

    def test_measure_overclock(self, capsys):
        assert main(["measure", "lu_cb", "-n", "2", "-m", "overclock"]) == 0
        out = capsys.readouterr().out
        assert "frequency boost" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "swaptions"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 9  # header + 8 core counts

    def test_audit_passes_on_safe_state(self, capsys):
        assert main(["audit", "raytrace", "-n", "4"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_figure_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "8 cores" in out

    def test_figure_fig16(self, capsys):
        assert main(["figure", "fig16"]) == 0
        assert "RMSE" in capsys.readouterr().out

    def test_fleet_short_day(self, capsys, tmp_path):
        trace_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "fleet",
                    "--servers",
                    "2",
                    "--duration",
                    "7200",
                    "--seed",
                    "7",
                    "--trace-out",
                    str(trace_path),
                    "--timings",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet: 2 server(s)" in out
        assert "conserved" in out
        assert "static guardband" in out
        assert "event log:" in out
        assert "settle cache: " in out  # --timings prints the cache stats
        lines = trace_path.read_text().splitlines()
        assert lines, "trace-out must contain events"
        import json

        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"arrival", "start", "epoch"} <= kinds

    @pytest.mark.parametrize(
        "servers, cell_servers, line",
        [
            ("2", "100", "1 cell(s) x 2 server(s) over 1 shard(s)"),
            ("3", "2", "2 cell(s) x 2 server(s) (last 1) over 1 shard(s)"),
        ],
    )
    def test_fleet_cell_line_shows_the_real_widths(
        self, servers, cell_servers, line, capsys
    ):
        argv = ["fleet", "--servers", servers, "--duration", "1800",
                "--cell-servers", cell_servers]
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()[0]

    def test_fleet_is_deterministic_across_invocations(self, capsys):
        hashes = []
        for _ in range(2):
            assert main(["fleet", "--servers", "2", "--duration", "3600"]) == 0
            out = capsys.readouterr().out
            hashes.append(
                next(
                    line for line in out.splitlines()
                    if line.startswith("event log:")
                )
            )
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--shards", "2", "--timings"],
            ["--cell-servers", "1", "--shards", "2", "--cache-dir", "cache",
             "--timings"],
        ],
    )
    def test_sharded_fleet_rejects_runner_only_options(
        self, extra, capsys, tmp_path
    ):
        # Pool workers' cache counters never reach the parent, so
        # --timings would report a cache the run did not use.  The refusal
        # comes before anything touches the cache directory.
        argv = ["fleet", "--servers", "2", "--duration", "3600", *extra]
        argv = [str(tmp_path / a) if a == "cache" else a for a in argv]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError:")
        assert captured.err.count("\n") == 1
        assert "--shards" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "layout",
        [[], ["--cell-servers", "1"], ["--cell-servers", "1", "--shards", "2"]],
    )
    def test_fleet_cache_dir_persists_settles_for_every_layout(
        self, layout, capsys, tmp_path
    ):
        cache = tmp_path / "settle"
        argv = ["fleet", "--servers", "2", "--duration", "3600",
                "--cache-dir", str(cache), *layout]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        logs = [
            next(line for line in out.splitlines() if line.startswith("event log:"))
            for out in outputs
        ]
        assert logs[0] == logs[1]
        names = [p.name for p in cache.iterdir()]
        assert names
        assert all(n.startswith("settle-") and n.endswith(".json") for n in names)

    def test_fleet_timings_reports_disk_hits(self, capsys, tmp_path):
        argv = ["fleet", "--servers", "2", "--duration", "3600",
                "--cache-dir", str(tmp_path), "--cell-servers", "1",
                "--timings"]
        lines = []
        for _ in range(2):
            assert main(argv) == 0
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert all(line.startswith("settle cache: ") for line in lines)
        stores, from_disk = zip(
            *(
                map(int, re.search(r"(\d+) stores, (\d+) from", line).groups())
                for line in lines
            )
        )
        # The second run's fresh cache reads back what the first stored.
        assert from_disk[0] == 0 and stores[0] > 0
        assert stores[1] == 0 and from_disk[1] == stores[0]

    @pytest.mark.parametrize(
        "extra", [["--timings"], ["--cache-dir", "cache"]]
    )
    def test_chaos_campaign_rejects_runner_only_options(
        self, extra, capsys, tmp_path
    ):
        # The campaign runs every scenario through its own runners; it
        # has no in-process runner to report on or to point at a cache.
        argv = ["chaos", "campaign", "--smoke", *extra]
        argv = [str(tmp_path / a) if a == "cache" else a for a in argv]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    def test_unknown_workload_exits_with_code(self, capsys):
        assert main(["measure", "doom"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: WorkloadError:")
        assert err.count("\n") == 1

    def test_unknown_workload_debug_reraises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["measure", "doom", "--debug"])

    def test_measure_accepts_seed(self, capsys):
        assert main(["measure", "raytrace", "-n", "2", "--seed", "11"]) == 0
        assert "power saving" in capsys.readouterr().out


class TestEnvironmentKnobs:
    """Malformed environment knobs: one error line, ConfigError exit 4."""

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_sweep_workers(self, value, monkeypatch, capsys):
        from repro.sim import batch

        monkeypatch.setattr(batch, "_default_runner", None)
        monkeypatch.setenv(batch.WORKERS_ENV, value)
        assert main(["export", "fig3"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError:")
        assert "REPRO_SWEEP_WORKERS" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_fleet_settle_entries(self, value, monkeypatch, capsys):
        from repro.fleet import settle_cache

        monkeypatch.setattr(settle_cache, "_cache", None)
        monkeypatch.setenv(settle_cache.ENV_ENTRIES, value)
        assert main(["fleet", "--servers", "2", "--duration", "3600"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError:")
        assert "REPRO_FLEET_SETTLE_ENTRIES" in captured.err
        assert captured.err.count("\n") == 1


class TestObservabilityOptions:
    def test_measure_metrics_out_writes_snapshot(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["measure", "raytrace", "--metrics-out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert path.is_file()

    def test_metrics_summary_round_trip(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["sweep", "raytrace", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "sweep_batches_total" in out
        assert "guardband_operate_total" in out

    def test_metrics_prometheus_rendering(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["measure", "raytrace", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE guardband_operate_total counter" in out
        assert 'guardband_operate_total{mode="undervolt"}' in out

    def test_metrics_on_missing_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        assert main(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot read metrics snapshot {path}:"
        )
        assert captured.err.count("\n") == 1

    def test_metrics_on_non_snapshot_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        assert main(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cannot read metrics snapshot" in captured.err


@pytest.mark.slow
class TestAllFigurePrinters:
    @pytest.mark.parametrize(
        "name",
        ["fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10",
         "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"],
    )
    def test_figure_prints_nonempty(self, capsys, name):
        assert main(["figure", name]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) >= 1
        assert "Fig" in out or "RMSE" in out or "r^2" in out
