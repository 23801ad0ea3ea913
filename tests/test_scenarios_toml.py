"""Scenario TOML: read with the stdlib ``tomllib``, written by ``tomlio``.

The codec parses with :mod:`tomllib` plus a float hook that rejects
``nan``/``inf``, and wraps every decode error as a
:class:`~repro.errors.ScenarioError` that keeps tomllib's line/column
text.  :func:`repro.scenarios.tomlio.dumps` is the writer; everything it
emits must read back through :mod:`tomllib` to the same document.  The
typed codec on top checks every value against its field's type, and
``dumps`` is the exact inverse of ``loads`` on any valid scenario.
"""

import math
import tomllib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import exit_code_for, main
from repro.errors import ReproError, ScenarioError
from repro.fleet.scheduler import POLICIES
from repro.fleet.traffic import TrafficConfig
from repro.pdn import backend_names
from repro.scenarios import (
    WINDOW_KINDS,
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    PolicySpec,
    Scenario,
    ServerGroupSpec,
    TopologySpec,
    codec,
    tomlio,
)
from repro.workloads import profile_names


def parse(text):
    """The codec's read: tomllib with the finite-float hook."""
    return tomllib.loads(text, parse_float=codec._finite_float)


SAMPLE = """\
# A comment.
[scenario]
name = "sample"  # trailing comment
seed = 7
tags = ["slow", "x"]

[traffic]
duration_seconds = 14400.0
jobs_per_hour = 1_800.5
surges = [
    [3600.0, 600.0, 4.0],
    [7200.0, 600.0, 0.5],
]

[policy]
enabled = true
gated = false

[[faults.windows]]
kind = "server_crash"
start_seconds = 3600.0

[[faults.windows]]
kind = "job_kill"
job_id = 12
"""


class TestParse:
    def test_tables_and_scalars(self):
        doc = parse(SAMPLE)
        assert doc["scenario"]["name"] == "sample"
        assert doc["scenario"]["seed"] == 7
        assert isinstance(doc["scenario"]["seed"], int)
        assert doc["scenario"]["tags"] == ["slow", "x"]
        assert doc["traffic"]["duration_seconds"] == 14400.0
        assert doc["traffic"]["jobs_per_hour"] == 1800.5
        assert doc["policy"]["enabled"] is True
        assert doc["policy"]["gated"] is False

    def test_multiline_array_and_array_of_tables(self):
        doc = parse(SAMPLE)
        assert doc["traffic"]["surges"] == [
            [3600.0, 600.0, 4.0],
            [7200.0, 600.0, 0.5],
        ]
        kinds = [w["kind"] for w in doc["faults"]["windows"]]
        assert kinds == ["server_crash", "job_kill"]

    def test_empty_document(self):
        assert parse("") == {}
        assert parse("# only a comment\n") == {}

    @pytest.mark.parametrize(
        "text",
        [
            "a = 1\na = 2\n",              # duplicate key
            "[t]\n[t]\n",                  # duplicate table
            "a = nan\n",                   # non-finite number
            "a = inf\n",                   # non-finite number
            "a = \n",                      # missing value
            "= 3\n",                       # missing key
            "[unclosed\n",                 # bad header
            'a = "unterminated\n',         # unterminated string
            "a = 1__0\n",                  # bad underscore grouping
        ],
    )
    def test_malformed_input_raises_toml_error(self, text):
        with pytest.raises(ScenarioError, match="invalid scenario TOML"):
            codec.loads(text)

    @pytest.mark.parametrize("text", ["a = -inf\n", "a = +nan\n", "a = [1.0, inf]\n"])
    def test_every_non_finite_spelling_is_rejected(self, text):
        with pytest.raises(ScenarioError, match="non-finite"):
            codec.loads(text)

    def test_toml_error_is_a_repro_error(self):
        # Malformed TOML surfaces as a ScenarioError: CLI exit code 12.
        with pytest.raises(ScenarioError) as raised:
            codec.loads("a = \n")
        assert isinstance(raised.value, ReproError)
        assert exit_code_for(raised.value) == 12

    def test_error_carries_line_number(self):
        with pytest.raises(ScenarioError, match="line 3"):
            codec.loads("a = 1\nb = 2\nc = oops\n")

    def test_load_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[scenario]\nname = \n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"broken\.toml.*line 2"):
            codec.load(str(path))

    def test_unreadable_file_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            codec.load(str(tmp_path / "missing.toml"))


class TestRoundTrip:
    def test_dump_parse_dump_is_stable(self):
        doc = parse(SAMPLE)
        once = tomlio.dumps(doc)
        twice = tomlio.dumps(parse(once))
        assert once == twice

    def test_round_trip_preserves_values(self):
        doc = parse(SAMPLE)
        assert tomllib.loads(tomlio.dumps(doc)) == doc

    def test_string_escapes_survive(self):
        doc = {"t": {"s": 'quote " backslash \\ tab \t'}}
        assert tomllib.loads(tomlio.dumps(doc)) == doc

    def test_floats_keep_identity(self):
        doc = {"t": {"x": 0.1, "y": 1e-9, "z": 12345.678901234}}
        out = tomllib.loads(tomlio.dumps(doc))
        for key, value in doc["t"].items():
            assert math.isclose(out["t"][key], value, rel_tol=0, abs_tol=0)

    def test_non_finite_floats_are_not_written(self):
        with pytest.raises(ScenarioError):
            tomlio.dumps({"t": {"x": float("nan")}})


class TestAgainstTomllib:
    def test_sample_matches_tomllib(self):
        # The finite-float hook validates; it never changes a value.
        assert parse(SAMPLE) == tomllib.loads(SAMPLE)

    def test_catalog_matches_tomllib(self):
        from repro.scenarios import catalog_paths

        for path in catalog_paths():
            with open(path, "rb") as handle:
                theirs = tomllib.load(handle)
            with open(path, encoding="utf-8") as handle:
                assert parse(handle.read()) == theirs, path

    def test_dumps_output_is_valid_toml(self):
        doc = parse(SAMPLE)
        assert tomllib.loads(tomlio.dumps(doc)) == doc


#: Values of the wrong type inside arrays: each must fail with its key
#: path instead of escaping as a bare ValueError/TypeError or being
#: coerced (``[2.5]`` to ``(2,)``, ``true`` to ``1``).
MALFORMED_ARRAYS = [
    ('[traffic]\nsurges = [["x", 600.0, 2.0]]\n', r"traffic\.surges\[0\]\[0\]"),
    ("[traffic]\nsurges = [5]\n", r"traffic\.surges\[0\] must be an array"),
    ('[mix]\nlc_threads = ["a"]\n', r"mix\.lc_threads\[0\] must be int"),
    ("[mix]\nlc_threads = [2.5]\n", r"mix\.lc_threads\[0\] must be int"),
    ("[mix]\nlc_threads = [true]\n", r"mix\.lc_threads\[0\] must be int"),
    ("[traffic]\nsurges = [[true, 600.0, 2.0]]\n", r"traffic\.surges\[0\]\[0\]"),
]


class TestTypedCodec:
    @pytest.mark.parametrize("body, path", MALFORMED_ARRAYS)
    def test_malformed_array_rejected_with_its_path(self, body, path):
        with pytest.raises(ScenarioError, match=path):
            codec.loads("[scenario]\n" + body)

    @pytest.mark.parametrize("body, path", MALFORMED_ARRAYS)
    def test_validate_exits_12_on_one_line(self, body, path, tmp_path, capsys):
        scenario_file = tmp_path / "bad.toml"
        scenario_file.write_text("[scenario]\n" + body)
        assert main(["scenario", "validate", str(scenario_file)]) == 12
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError:")
        assert err.count("\n") == 1

    def test_unknown_key_names_its_full_path(self):
        with pytest.raises(ScenarioError, match=r"topology\.groups\[1\]\]: sever"):
            codec.loads(
                "[scenario]\n[[topology.groups]]\nname = 'a'\n"
                "[[topology.groups]]\nname = 'b'\nsever = 2\n"
            )

    def test_section_errors_carry_the_section_path(self):
        with pytest.raises(ScenarioError, match=r"faults\.windows\[0\]: .*factor"):
            codec.loads(
                "[scenario]\n[[faults.windows]]\n"
                "kind = 'loadline_excursion'\nfactor = -1.0\n"
            )

    def test_default_scenario_round_trips(self):
        text = codec.dumps(Scenario())
        assert codec.loads(text) == Scenario()
        assert codec.dumps(codec.loads(text)) == text


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _windows(draw, groups, horizon):
    """One window of every fault kind, with optional keys drawn."""
    windows = []
    for kind, (_, keys) in WINDOW_KINDS.items():
        values = {
            "duration_seconds": _floats(1.0, 7200.0),
            "socket": st.integers(0, 1),
            "repair_seconds": _floats(1.0, 7200.0),
            "job_id": st.integers(0, 500),
            "code": st.integers(0, 63),
            "amplitude_bits": st.integers(1, 8),
            "depth_volts": _floats(0.001, 0.1),
            "factor": _floats(0.1, 4.0),
        }
        params = {
            key: draw(values[key])
            for key in keys
            if key == "job_id" or draw(st.booleans())
        }
        if kind != "job_kill":
            group = draw(st.sampled_from(groups))
            params["group"] = group.name
            if draw(st.booleans()):
                params["all_servers"] = True
            else:
                params["server"] = draw(st.integers(0, group.servers - 1))
        windows.append(
            FaultWindowSpec(
                kind=kind,
                start_seconds=draw(_floats(0.0, horizon * 0.99)),
                **params,
            )
        )
    return tuple(windows)


@st.composite
def scenarios(draw):
    """Valid scenarios that set every section, surges and several groups."""
    horizon = draw(_floats(600.0, 2 * 86_400.0))
    profiles = st.lists(
        st.sampled_from(profile_names()), min_size=1, max_size=3
    ).map(tuple)
    threads = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple)
    traffic = TrafficConfig(
        duration_seconds=horizon,
        jobs_per_hour=draw(_floats(0.5, 500.0)),
        diurnal_amplitude=draw(_floats(0.0, 0.95)),
        peak_time_seconds=draw(_floats(0.0, 86_400.0)),
        lc_fraction=draw(_floats(0.0, 1.0)),
        lc_profiles=draw(profiles),
        batch_profiles=draw(profiles),
        lc_threads=draw(threads),
        batch_threads=draw(threads),
        lc_service_mean=draw(_floats(1.0, 5000.0)),
        batch_service_mean=draw(_floats(1.0, 5000.0)),
        service_floor=draw(_floats(1.0, 300.0)),
        surges=draw(
            st.lists(
                st.tuples(
                    _floats(0.0, horizon * 0.99),
                    _floats(1.0, 7200.0),
                    _floats(0.1, 5.0),
                ),
                max_size=3,
            )
        ),
    )
    groups = tuple(
        ServerGroupSpec(
            name=name,
            servers=draw(st.integers(1, 6)),
            age_years=draw(_floats(0.0, 12.0)),
            cell_servers=draw(st.none() | st.integers(1, 4)),
            cap_gain=draw(st.none() | _floats(0.05, 2.0)),
        )
        for name in draw(
            st.lists(
                st.sampled_from(["east", "west", "old", "rack-2"]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    low, high = sorted(draw(st.tuples(_floats(0.0, 1.0), _floats(0.0, 1.0))))
    return Scenario(
        name=draw(st.sampled_from(["s", "study_1", "rack-a"])),
        description=draw(st.text(max_size=20).filter(str.isprintable)),
        seed=draw(st.integers(0, 2**31)),
        tags=tuple(draw(st.lists(st.sampled_from(["slow", "x"]), max_size=2))),
        traffic=traffic,
        topology=TopologySpec(
            groups=groups,
            aging_end_of_life_shift=draw(_floats(0.0, 0.1)),
            aging_lifetime_years=draw(_floats(1.0, 20.0)),
            aging_exponent=draw(_floats(0.05, 1.0)),
        ),
        policy=PolicySpec(
            policy=draw(st.sampled_from(sorted(POLICIES))),
            qos_frequency_fraction=draw(_floats(0.5, 1.5)),
            power_off_hysteresis_seconds=draw(_floats(0.0, 3600.0)),
            utilization_threshold=draw(_floats(0.01, 1.0)),
            server_power_cap_w=draw(st.none() | _floats(50.0, 500.0)),
            fleet_power_budget_w=draw(st.none() | _floats(100.0, 5000.0)),
            power_cap_interval_seconds=draw(_floats(1.0, 600.0)),
            power_cap_gain=draw(_floats(0.01, 2.0)),
            pdn_backend=draw(st.sampled_from(backend_names())),
        ),
        faults=FaultPlanSpec(
            windows=draw(_windows(groups, horizon)),
            seed=draw(st.integers(0, 1000)),
        ),
        golden=GoldenSpec(
            event_log_hash=draw(
                st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)
            ),
            n_arrivals=draw(st.none() | st.integers(0, 10**6)),
            saving_fraction_min=low,
            saving_fraction_max=high,
            cap_tracking_error_max=draw(st.none() | _floats(0.0, 1.0)),
        ),
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_loads_inverts_dumps_and_dumps_is_a_fixed_point(self, scenario):
        text = codec.dumps(scenario)
        assert codec.loads(text) == scenario
        assert codec.dumps(codec.loads(text)) == text
