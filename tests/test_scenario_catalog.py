"""The shipped scenario catalog: shape, round-trips, and goldens.

``repro scenario check`` is the regression suite for the catalog; here
the fastest scenario's golden runs unmarked so every test run exercises
the full load→lower→run→adjudicate path, while the rest ride behind the
``slow`` marker (CI's scenario job runs them all).
"""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    catalog_paths,
    check_scenario,
    codec,
    find_scenario,
    load_catalog,
)

EXPECTED_NAMES = {
    "dirty_power",
    "diurnal_batch_backfill",
    "flash_crowd",
    "heterogeneous_aging",
    "power_capped_consolidation",
    "rack_power_budget",
    "rack_power_budget_crash",
    "regional_failover",
}


class TestCatalogShape:
    def test_catalog_holds_the_named_scenarios(self):
        names = {s.name for s in load_catalog()}
        assert EXPECTED_NAMES <= names

    def test_every_scenario_carries_a_golden_block(self):
        for scenario in load_catalog():
            assert not scenario.golden.is_empty, scenario.name
            assert scenario.golden.event_log_hash is not None, scenario.name

    def test_names_match_file_stems(self):
        import os

        for path in catalog_paths():
            stem = os.path.splitext(os.path.basename(path))[0]
            assert codec.load(path).name == stem

    def test_find_scenario(self):
        assert find_scenario("flash_crowd").traffic.surges
        with pytest.raises(ScenarioError, match="no catalog scenario"):
            find_scenario("does_not_exist")

    def test_missing_catalog_dir_is_an_error(self, tmp_path):
        with pytest.raises(ScenarioError):
            catalog_paths(str(tmp_path / "absent"))


class TestCatalogRoundTrip:
    def test_load_dump_load_is_identity(self):
        for path in catalog_paths():
            scenario = codec.load(path)
            assert codec.loads(codec.dumps(scenario)) == scenario, path

    def test_dump_is_stable(self):
        for path in catalog_paths():
            once = codec.dumps(codec.load(path))
            assert codec.dumps(codec.loads(once)) == once, path


def _by_speed():
    """Catalog scenarios, the single fastest one split out."""
    scenarios = sorted(
        load_catalog(),
        key=lambda s: s.traffic.duration_seconds
        * s.traffic.jobs_per_hour
        * s.topology.n_servers,
    )
    return scenarios[0], scenarios[1:]


FASTEST, REST = _by_speed()


class TestGoldens:
    def test_fastest_scenario_passes_its_golden(self):
        verdict = check_scenario(FASTEST)
        assert verdict.passed, verdict.failures

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "scenario", REST, ids=[s.name for s in REST]
    )
    def test_catalog_scenario_passes_its_golden(self, scenario):
        verdict = check_scenario(scenario)
        assert verdict.passed, verdict.failures

    @pytest.mark.slow
    def test_goldens_hold_under_sharded_execution(self):
        verdict = check_scenario(FASTEST, n_shards=2)
        assert verdict.passed, verdict.failures
