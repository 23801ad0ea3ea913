"""The ``repro scenario`` subcommand and the ScenarioError exit code."""

import pytest

from repro.cli import ERROR_EXIT_CODES, build_parser, exit_code_for, main
from repro.errors import ReproError, ScenarioError

TINY = """\
[scenario]
name = "cli_tiny"
seed = 3

[traffic]
duration_seconds = 1800.0
jobs_per_hour = 40.0
diurnal_amplitude = 0.2
peak_time_seconds = 900.0
lc_fraction = 0.2

[mix]
lc_service_mean = 300.0
batch_service_mean = 600.0
service_floor = 60.0

[topology]
[[topology.groups]]
name = "only"
servers = 1

[policy]
policy = "ags"
"""


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY)
    return str(path)


class TestExitCode:
    def test_scenario_error_maps_to_12(self):
        assert exit_code_for(ScenarioError("x")) == 12

    def test_scenario_error_checked_before_base_repro_error(self):
        # ScenarioError is a ReproError; the table must match the
        # subclass first or every scenario failure would exit 11.
        codes = [code for _, code in ERROR_EXIT_CODES]
        families = [exc for exc, _ in ERROR_EXIT_CODES]
        assert families.index(ScenarioError) < families.index(ReproError)
        assert len(set(codes)) == len(codes)

    def test_validate_without_files_exits_12(self, capsys):
        assert main(["scenario", "validate"]) == 12
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError:")
        assert err.count("\n") == 1

    def test_run_without_files_exits_12(self):
        assert main(["scenario", "run"]) == 12

    def test_missing_file_exits_12(self, tmp_path, capsys):
        assert main(
            ["scenario", "validate", str(tmp_path / "absent.toml")]
        ) == 12
        assert "absent.toml" in capsys.readouterr().err

    def test_unknown_key_exits_12_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(TINY + "\n[traffic.extra]\nx = 1\n")
        assert main(["scenario", "validate", str(path)]) == 12
        assert "extra" in capsys.readouterr().err


class TestParserDefaults:
    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario", "check"])
        assert args.action == "check"
        assert args.files == []
        assert args.catalog_dir is None
        assert args.shards == 1
        assert args.skip_slow is False
        assert args.trace_out is None
        # Shared options ride along from the common parent parser.
        assert args.seed == 7
        assert args.metrics_out is None

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "explode"])


class TestActions:
    def test_validate_reports_shape(self, tiny_path, capsys):
        assert main(["scenario", "validate", tiny_path]) == 0
        out = capsys.readouterr().out
        assert "cli_tiny" in out
        assert "1 server(s)" in out

    def test_list_reads_files(self, tiny_path, capsys):
        assert main(["scenario", "list", tiny_path]) == 0
        out = capsys.readouterr().out
        assert "cli_tiny" in out
        assert "no" in out  # golden column: no golden block

    def test_run_prints_summary_and_hash(self, tiny_path, capsys):
        assert main(["scenario", "run", tiny_path]) == 0
        out = capsys.readouterr().out
        assert "scenario cli_tiny" in out
        assert "event log:" in out

    def test_run_seed_changes_hash(self, tiny_path, capsys):
        def hash_line(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if "event log:" in l]

        base = hash_line(["scenario", "run", tiny_path])
        same = hash_line(["scenario", "run", tiny_path])
        other = hash_line(["scenario", "run", tiny_path, "--seed", "11"])
        assert base == same
        assert base != other

    def test_run_shards_keep_the_hash(self, tiny_path, capsys):
        assert main(["scenario", "run", tiny_path]) == 0
        base = capsys.readouterr().out
        assert main(
            ["scenario", "run", tiny_path, "--shards", "2"]
        ) == 0
        assert capsys.readouterr().out == base

    def test_trace_out_writes_jsonl(self, tiny_path, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main(
            ["scenario", "run", tiny_path, "--trace-out", str(trace)]
        ) == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all(line.startswith("{") for line in lines)

    def test_check_without_goldens_exits_12(self, tiny_path, capsys):
        assert main(["scenario", "check", tiny_path]) == 12
        assert "golden" in capsys.readouterr().err

    def test_check_adjudicates_failure_as_exit_1(self, tmp_path, capsys):
        path = tmp_path / "pinned.toml"
        path.write_text(
            TINY + "\n[golden]\nevent_log_hash = \"" + "0" * 64 + "\"\n"
        )
        assert main(["scenario", "check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "event_log_hash" in out


class TestSetOverrides:
    def test_array_and_string_overrides_apply(self, tiny_path):
        from repro.cli import _apply_scenario_overrides
        from repro.scenarios import codec

        scenario = _apply_scenario_overrides(
            codec.load(tiny_path),
            ["mix.lc_threads=[1]", "policy.pdn_backend=flexwatts"],
        )
        assert scenario.traffic.lc_threads == (1,)
        assert scenario.policy.pdn_backend == "flexwatts"

    def test_run_with_overrides_exits_0(self, tiny_path, capsys):
        assert main(
            ["scenario", "run", tiny_path, "--set", "mix.lc_threads=[1]"]
        ) == 0
        assert "event log:" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["[2.5]", "[1"])
    def test_malformed_array_override_exits_12(self, tiny_path, value, capsys):
        assert main(
            ["scenario", "run", tiny_path, "--set", f"mix.lc_threads={value}"]
        ) == 12
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError:")
        assert err.count("\n") == 1
