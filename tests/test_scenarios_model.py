"""The frozen scenario config model: eager and cross-field validation.

The ``[traffic]`` and ``[mix]`` sections are the fleet's own
:class:`TrafficConfig`, whose checks live in ``repro.fleet.traffic``;
here they are exercised through the load path, where they surface as
:class:`ScenarioError` naming the section.
"""

import dataclasses

import pytest

from repro.errors import FaultError, ReproError, ScenarioError
from repro.fleet import FleetConfig, build_cells
from repro.fleet.traffic import TrafficConfig
from repro.scenarios import (
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    PolicySpec,
    Scenario,
    ServerGroupSpec,
    TopologySpec,
    scenario_from_document,
)


def load_sections(**tables) -> Scenario:
    """A scenario loaded from a document holding only ``tables``."""
    return scenario_from_document({"scenario": {}, **tables})


class TestScenarioError:
    def test_is_a_repro_error(self):
        assert issubclass(ScenarioError, ReproError)


class TestTrafficSpec:
    """The ``[traffic]`` table: TrafficConfig's arrival-shape fields."""

    def test_defaults_validate(self):
        assert load_sections().traffic == TrafficConfig()
        assert load_sections().traffic.duration_seconds == 86_400.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_seconds": 0.0},
            {"duration_seconds": -1.0},
            {"duration_seconds": float("nan")},
            {"jobs_per_hour": 0.0},
            {"diurnal_amplitude": 1.0},
            {"diurnal_amplitude": -0.1},
            {"lc_fraction": 1.5},
            {"peak_time_seconds": -1.0},
        ],
    )
    def test_bad_scalars_rejected(self, kwargs):
        with pytest.raises(ScenarioError, match="traffic"):
            load_sections(traffic=kwargs)

    def test_surge_normalized_to_tuples(self):
        traffic = load_sections(traffic={"surges": [[100, 50, 2]]}).traffic
        assert traffic.surges == ((100.0, 50.0, 2.0),)

    @pytest.mark.parametrize(
        "surge",
        [
            [100.0, 50.0],               # wrong arity
            [-1.0, 50.0, 2.0],           # negative start
            [100.0, 0.0, 2.0],           # zero duration
            [100.0, 50.0, 0.0],          # zero multiplier
            [90_000.0, 50.0, 2.0],       # opens beyond the horizon
        ],
    )
    def test_bad_surges_rejected(self, surge):
        with pytest.raises(ScenarioError, match="traffic"):
            load_sections(
                traffic={"duration_seconds": 86_400.0, "surges": [surge]}
            )


class TestWorkloadMixSpec:
    """The ``[mix]`` table: TrafficConfig's profile and service fields."""

    def test_unknown_profile_rejected_with_known_list(self):
        with pytest.raises(ScenarioError, match="unknown workload profile"):
            load_sections(mix={"lc_profiles": ["no_such_profile"]})

    def test_empty_pools_rejected(self):
        with pytest.raises(ScenarioError):
            load_sections(mix={"batch_profiles": []})
        with pytest.raises(ScenarioError):
            load_sections(mix={"lc_threads": []})

    def test_zero_threads_rejected(self):
        with pytest.raises(ScenarioError):
            load_sections(mix={"batch_threads": [0, 2]})


class TestTopologySpec:
    def test_cells_follow_cell_servers(self):
        def widths(group):
            config = FleetConfig(n_servers=group.servers)
            cells = build_cells([(config, group.cell_servers, group.name)])
            return [cell.config.n_servers for cell in cells]

        group = ServerGroupSpec(name="g", servers=5, cell_servers=2)
        assert widths(group) == [2, 2, 1]
        assert widths(ServerGroupSpec(name="g", servers=4)) == [4]

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ScenarioError, match="unique"):
            TopologySpec(
                groups=(ServerGroupSpec(name="a"), ServerGroupSpec(name="a"))
            )

    def test_group_lookup(self):
        topo = TopologySpec(
            groups=(
                ServerGroupSpec(name="east", servers=2),
                ServerGroupSpec(name="west", servers=3),
            )
        )
        assert topo.n_servers == 5
        assert topo.group("west").servers == 3
        with pytest.raises(ScenarioError, match="no server group"):
            topo.group("north")

    def test_negative_age_rejected(self):
        with pytest.raises(ScenarioError):
            ServerGroupSpec(name="g", age_years=-1.0)


class TestPolicySpec:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ScenarioError, match="policy"):
            PolicySpec(policy="nonsense")

    def test_negative_cap_rejected(self):
        with pytest.raises(ScenarioError):
            PolicySpec(server_power_cap_w=-10.0)


class TestFaultWindowSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            FaultWindowSpec(kind="meteor_strike")

    def test_job_kill_needs_job_id(self):
        with pytest.raises(ScenarioError, match="job_id"):
            FaultWindowSpec(kind="job_kill")

    def test_job_kill_rejects_server_targets(self):
        with pytest.raises(ScenarioError, match="not a group or server"):
            FaultWindowSpec(kind="job_kill", job_id=3, group="east")

    def test_server_and_all_servers_exclusive(self):
        with pytest.raises(ScenarioError, match="exclusive"):
            FaultWindowSpec(kind="server_crash", server=0, all_servers=True)

    def test_kind_foreign_field_rejected(self):
        with pytest.raises(ScenarioError, match="repair_seconds"):
            FaultWindowSpec(kind="vrm_droop", repair_seconds=60.0)

    @pytest.mark.parametrize("kind", ["server_crash", "job_kill"])
    @pytest.mark.parametrize(
        "key, value", [("duration_seconds", 600.0), ("socket", 1)]
    )
    def test_crash_and_kill_reject_socket_window_keys(self, kind, key, value):
        # Neither fault has a socket or a window length: a crash lasts
        # until repair_seconds, a kill is instantaneous.
        extra = {"job_id": 0} if kind == "job_kill" else {}
        with pytest.raises(ScenarioError, match=f"does not take {key}"):
            FaultWindowSpec(kind=kind, **extra, **{key: value})

    def test_values_are_checked_by_the_fault_class(self):
        with pytest.raises(FaultError, match="depth_volts"):
            FaultWindowSpec(kind="vrm_droop", depth_volts=-0.01)
        with pytest.raises(FaultError, match="server_id"):
            FaultWindowSpec(kind="cpm_drop", server=-1)

    def test_unset_keys_take_the_fault_class_defaults(self):
        from repro.faults.spec import VrmDroopFault

        window = FaultWindowSpec(kind="vrm_droop", start_seconds=5.0)
        assert window.fault(2) == VrmDroopFault(start_seconds=5.0, server_id=2)


class TestGoldenSpec:
    def test_malformed_hash_rejected(self):
        with pytest.raises(ScenarioError, match="hex"):
            GoldenSpec(event_log_hash="abc")
        with pytest.raises(ScenarioError, match="hex"):
            GoldenSpec(event_log_hash="Z" * 64)

    def test_inverted_bracket_rejected(self):
        with pytest.raises(ScenarioError, match="exceeds"):
            GoldenSpec(saving_fraction_min=0.5, saving_fraction_max=0.1)

    def test_is_empty(self):
        assert GoldenSpec().is_empty
        assert not GoldenSpec(n_arrivals=3).is_empty


class TestScenarioCrossFields:
    def test_fault_window_beyond_horizon_rejected(self):
        with pytest.raises(ScenarioError, match="beyond"):
            Scenario(
                traffic=TrafficConfig(duration_seconds=3600.0),
                faults=FaultPlanSpec(
                    windows=(
                        FaultWindowSpec(
                            kind="server_crash", start_seconds=7200.0
                        ),
                    )
                ),
            )

    def test_fault_server_beyond_group_rejected(self):
        with pytest.raises(ScenarioError, match="only"):
            Scenario(
                topology=TopologySpec(
                    groups=(ServerGroupSpec(name="g", servers=2),)
                ),
                faults=FaultPlanSpec(
                    windows=(
                        FaultWindowSpec(kind="server_crash", server=2),
                    )
                ),
            )

    def test_fault_unknown_group_rejected(self):
        with pytest.raises(ScenarioError, match="no server group"):
            Scenario(
                faults=FaultPlanSpec(
                    windows=(
                        FaultWindowSpec(kind="server_crash", group="ghost"),
                    )
                ),
            )

    def test_bad_name_rejected(self):
        with pytest.raises(ScenarioError, match="letters"):
            Scenario(name="has spaces")
        with pytest.raises(ScenarioError):
            Scenario(name="")

    def test_is_slow_reads_tags(self):
        assert Scenario(tags=("slow",)).is_slow
        assert not Scenario().is_slow

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Scenario().seed = 9
