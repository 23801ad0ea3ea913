"""Scenario TOML: read with the stdlib ``tomllib``, written by ``tomlio``.

The codec parses with :mod:`tomllib` plus a float hook that rejects
``nan``/``inf``, and wraps every decode error as a
:class:`~repro.errors.ScenarioError` that keeps tomllib's line/column
text.  :func:`repro.scenarios.tomlio.dumps` is the writer; everything it
emits must read back through :mod:`tomllib` to the same document.
"""

import math
import tomllib

import pytest

from repro.cli import exit_code_for
from repro.errors import ReproError, ScenarioError
from repro.scenarios import codec, tomlio


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
