"""The fleet power-cap coordinator and the pluggable PDN backends.

Three layers under test:

* the :class:`~repro.fleet.powercap.PowerCapCoordinator` control law in
  isolation (integral tracking, proportional redistribution,
  quantization, anti-windup, budget decomposition);
* the PDN backend registry (`repro.pdn.backends`) and its facade
  plumbing through ``measure``/``sweep``;
* the budgeted fleet end to end — the coordinator ticking inside the
  event loop, caps enforced through the DVFS walk, and the event-log
  digest invariant across shard and worker counts.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import measure, sweep
from repro.errors import ConfigError, SchedulingError
from repro.faults.plan import FaultPlan
from repro.faults.spec import ServerCrashFault
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.fleet.powercap import (
    CapUpdate,
    PowerCapCoordinator,
    decompose_budget,
)
from repro.fleet.shard import run_sharded
from repro.pdn.backends import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    register_backend,
)
from repro.scenarios import find_scenario, run_scenario
from repro.workloads import get_profile

#: Short but binding fleet day for the integration tests: two servers,
#: an hour of load heavy enough that a 380 W budget throttles.
TRAFFIC = TrafficConfig(
    duration_seconds=3600.0, jobs_per_hour=60.0, lc_fraction=0.15
)


@pytest.fixture(scope="module")
def budgeted_result():
    config = FleetConfig(
        n_servers=2, traffic=TRAFFIC, seed=7, fleet_power_budget_w=380.0
    )
    return FleetSimulation(config).run()


class TestCoordinatorValidation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(SchedulingError):
            PowerCapCoordinator(budget_w=0.0, n_servers=2)

    def test_rejects_zero_servers(self):
        with pytest.raises(SchedulingError):
            PowerCapCoordinator(budget_w=100.0, n_servers=0)

    def test_rejects_out_of_range_gain(self):
        for gain in (0.0, 2.5, -1.0):
            with pytest.raises(SchedulingError):
                PowerCapCoordinator(budget_w=100.0, n_servers=1, gain=gain)

    def test_rejects_measurement_length_mismatch(self):
        coordinator = PowerCapCoordinator(budget_w=100.0, n_servers=2)
        with pytest.raises(SchedulingError):
            coordinator.tick([50.0])


class TestCoordinatorControlLaw:
    def test_tracks_a_proportional_plant(self):
        """Against a plant that draws exactly its cap, the integral
        loop settles the measured total onto the budget."""
        coordinator = PowerCapCoordinator(
            budget_w=400.0, n_servers=2, floor_w=50.0
        )
        measured = [300.0, 300.0]  # demand above budget
        update = None
        for _ in range(30):
            update = coordinator.tick(measured)
            # The plant follows its cap but never draws above demand.
            measured = [min(300.0, cap) for cap in update.caps]
        assert update is not None
        assert sum(measured) == pytest.approx(400.0, rel=0.02)

    def test_distribution_is_proportional_to_demand(self):
        coordinator = PowerCapCoordinator(budget_w=300.0, n_servers=2)
        update = coordinator.tick([200.0, 100.0])
        assert update.caps[0] > update.caps[1]
        assert update.caps[0] == pytest.approx(
            2 * update.caps[1], abs=2 * coordinator.quantum_w
        )

    def test_zero_draw_servers_get_uniform_share(self):
        coordinator = PowerCapCoordinator(budget_w=300.0, n_servers=3)
        update = coordinator.tick([150.0, 0.0, 0.0])
        assert update.caps[1] == update.caps[2]
        assert update.caps[1] == pytest.approx(
            coordinator.fleet_cap_w / 3, abs=coordinator.quantum_w
        )

    def test_caps_are_quantized_and_floored(self):
        coordinator = PowerCapCoordinator(
            budget_w=120.0, n_servers=2, quantum_w=1.0, floor_w=50.0
        )
        update = coordinator.tick([1000.0, 1.0])
        for cap in update.caps:
            assert cap >= 50.0
            assert cap == pytest.approx(round(cap))

    def test_ceiling_bounds_windup(self):
        coordinator = PowerCapCoordinator(
            budget_w=100.0, n_servers=1, ceiling_factor=2.0
        )
        for _ in range(100):  # demand far below budget: error always +
            update = coordinator.tick([10.0])
        assert coordinator.fleet_cap_w <= 200.0
        assert update.fleet_cap_w <= 200.0

    def test_update_totals(self):
        coordinator = PowerCapCoordinator(budget_w=200.0, n_servers=2)
        update = coordinator.tick([80.0, 120.0])
        assert isinstance(update, CapUpdate)
        assert update.measured_w == pytest.approx(200.0)
        assert update.total_cap_w == pytest.approx(sum(update.caps))


#: Coordinator ticks a load step above the budget may take to be held.
STEP_TICKS = 5


@pytest.mark.xfail(
    strict=True,
    reason="integrator windup: light load winds the fleet cap up to its "
    "ceiling_factor x budget ceiling, and a load step then unwinds it by "
    "only gain x error per tick, so the fleet runs over budget for ~1/gain "
    "ticks",
)
@settings(max_examples=50, deadline=None)
@example(gain=0.5)
@given(gain=st.floats(0.0, 2.0, exclude_min=True))
def test_load_step_above_the_budget_is_tracked(gain):
    """Every gain the schema accepts, (0, 2], holds a load step above the
    budget within STEP_TICKS ticks, whatever the load before the step."""
    budget = 400.0
    coordinator = PowerCapCoordinator(budget_w=budget, n_servers=2, gain=gain)
    caps = (budget / 2,) * 2
    totals = []
    # Half an hour of light load, then demand steps to 1.5x the budget.
    for demand in [0.25 * budget / 2] * 30 + [0.75 * budget] * 30:
        # The plant draws its demand up to its cap.
        measured = [min(demand, cap) for cap in caps]
        totals.append(sum(measured))
        caps = coordinator.tick(measured).caps
    after_step = totals[30 + STEP_TICKS :]
    assert max(after_step) <= 1.05 * budget, after_step


class TestCoordinatorLiveMask:
    def test_all_live_mask_identical_to_no_mask(self):
        masked = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        bare = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        for _ in range(5):
            assert masked.tick(
                [300.0, 250.0], live=(True, True)
            ) == bare.tick([300.0, 250.0])

    def test_dead_servers_get_zero_cap(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=3)
        update = coordinator.tick([200.0, 0.0, 200.0], live=(True, False, True))
        assert update.caps[1] == 0.0
        assert update.caps[0] > 0.0 and update.caps[2] > 0.0

    def test_dead_watts_are_not_measured(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        update = coordinator.tick([200.0, 999.0], live=(True, False))
        assert update.measured_w == pytest.approx(200.0)

    def test_membership_change_resets_integral_state(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        for _ in range(20):  # wind the cap up against low demand
            coordinator.tick([10.0, 10.0])
        assert coordinator.fleet_cap_w > 400.0
        coordinator.tick([10.0, 0.0], live=(True, False))
        # Anti-windup: the wound-up error history tracked a two-server
        # plant; the crash restarts from zero prior error (one tick of
        # fresh integration on top of the reset budget).
        assert coordinator.fleet_cap_w == pytest.approx(
            400.0 + coordinator.gain * (400.0 - 10.0)
        )

    def test_all_dead_hands_out_nothing_and_learns_nothing(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        before = coordinator.fleet_cap_w
        update = coordinator.tick([0.0, 0.0], live=(False, False))
        assert update.caps == (0.0, 0.0)
        assert coordinator.fleet_cap_w == before

    def test_live_mask_length_mismatch_rejected(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        with pytest.raises(SchedulingError):
            coordinator.tick([100.0, 100.0], live=(True,))


class TestSetBudget:
    def test_retarget_resets_integral_state_and_ceiling(self):
        coordinator = PowerCapCoordinator(
            budget_w=400.0, n_servers=2, ceiling_factor=2.0
        )
        for _ in range(20):
            coordinator.tick([10.0, 10.0])
        assert coordinator.fleet_cap_w > 400.0
        coordinator.set_budget(300.0)
        assert coordinator.budget_w == 300.0
        assert coordinator.fleet_cap_w == 300.0
        assert coordinator.ceiling_w == 600.0

    def test_rejects_nonpositive_budget(self):
        coordinator = PowerCapCoordinator(budget_w=400.0, n_servers=2)
        with pytest.raises(SchedulingError):
            coordinator.set_budget(0.0)


class TestDecomposeBudget:
    def test_none_passes_through(self):
        assert decompose_budget(None, [2, 2]) == (None, None)

    def test_shares_sum_exactly(self):
        shares = decompose_budget(1000.0, [3, 2, 2])
        assert sum(shares) == 1000.0
        assert shares[0] > shares[1]
        # The last cell absorbs the float remainder (at most an ulp).
        assert shares[2] == pytest.approx(shares[1], abs=1e-9)

    def test_rounding_remainder_lands_on_last_cell(self):
        shares = decompose_budget(100.0, [1, 1, 1])
        assert sum(shares) == 100.0

    def test_single_cell_gets_the_whole_budget(self):
        assert decompose_budget(333.33, [5]) == (333.33,)

    def test_adversarial_splits_sum_exactly(self):
        # Ragged sizes whose proportional shares are non-terminating
        # binary fractions: the remainder must always land somewhere.
        for sizes in ([7, 3, 13, 1], [1] * 9, [3, 3, 3], [11, 13, 17, 19]):
            for budget in (100.0, 333.33, 1234.567, 50.0 * sum(sizes)):
                shares = decompose_budget(budget, sizes)
                assert sum(shares) == budget
                assert all(share > 0 for share in shares)

    def test_floor_holds_when_budget_covers_the_floor(self):
        # The proportional split hands every server budget/total W, so
        # the 50 W per-server floor is satisfiable in every cell exactly
        # when the budget covers 50 W x total servers.
        sizes = [7, 3, 13, 1]
        total = sum(sizes)
        shares = decompose_budget(50.0 * total, sizes)
        for share, size in zip(shares, sizes):
            assert share >= 50.0 * size - 1e-9

    def test_zero_servers_rejected(self):
        with pytest.raises(SchedulingError):
            decompose_budget(100.0, [])


class TestBudgetSchedule:
    def test_schedule_requires_a_budget(self):
        with pytest.raises(SchedulingError, match="needs a fleet budget"):
            FleetConfig(
                n_servers=2,
                traffic=TRAFFIC,
                fleet_power_budget_schedule=((60.0, 200.0),),
            )

    def test_budget_updates_land_in_the_log(self):
        config = FleetConfig(
            n_servers=2,
            traffic=TRAFFIC,
            seed=7,
            fleet_power_budget_w=380.0,
            fleet_power_budget_schedule=((1200.0, 300.0), (2400.0, 380.0)),
        )
        result = FleetSimulation(config).run()
        updates = [
            entry for entry in result.events
            if entry["kind"] == "budget_update"
        ]
        assert [u["budget_w"] for u in updates] == [300.0, 380.0]

    def test_no_op_schedule_entries_are_skipped(self):
        # An entry equal to the current budget emits nothing, so the
        # run stays bit-identical to the unscheduled one.
        base = FleetConfig(
            n_servers=2, traffic=TRAFFIC, seed=7,
            fleet_power_budget_w=380.0,
        )
        noop = FleetConfig(
            n_servers=2, traffic=TRAFFIC, seed=7,
            fleet_power_budget_w=380.0,
            fleet_power_budget_schedule=((1200.0, 380.0),),
        )
        assert (
            FleetSimulation(noop).run().event_log_hash
            == FleetSimulation(base).run().event_log_hash
        )


class TestCrashResplit:
    """A crash re-splits a sharded fleet's budget over the live servers."""

    def test_sharded_crash_resplits_the_budget(self):
        config = FleetConfig(
            n_servers=4, traffic=TRAFFIC, seed=7, fleet_power_budget_w=1100.0
        )
        plan = FaultPlan(
            specs=(ServerCrashFault(start_seconds=900.0, server_id=1),)
        )
        one, two = (
            run_sharded(
                config, cell_servers=2, n_shards=n_shards, fault_plan=plan
            )
            for n_shards in (1, 2)
        )
        assert one.event_log_hash == two.event_log_hash
        updates = sorted(
            entry["budget_w"]
            for entry in one.events
            if entry["kind"] == "budget_update"
        )
        # Cell 0 keeps one live server of three, cell 1 two of three.
        assert updates == pytest.approx([1100.0 / 3, 2200.0 / 3])
        assert sum(updates) == 1100.0


class TestBackendRegistry:
    def test_default_backend_registered(self):
        assert DEFAULT_BACKEND in backend_names()
        assert "flexwatts" in backend_names()

    def test_unknown_backend_names_the_registry(self):
        with pytest.raises(ConfigError, match="flexwatts"):
            get_backend("no-such-backend")

    def test_register_rejects_empty_name(self):
        from repro.pdn.backends import PdnBackend

        with pytest.raises(ConfigError):
            register_backend(
                PdnBackend(name="", description="d", transform=lambda c: c)
            )

    def test_power7_transform_is_identity(self):
        from repro.config import ServerConfig

        pdn = ServerConfig().pdn
        assert get_backend("power7").effective_config(pdn) == pdn

    def test_flexwatts_transform_differs(self):
        from repro.config import ServerConfig

        pdn = ServerConfig().pdn
        effective = get_backend("flexwatts").effective_config(pdn)
        assert effective.r_loadline < pdn.r_loadline
        assert effective.r_ir_shared > pdn.r_ir_shared


class TestFacadeKwargs:
    def test_pdn_backend_changes_the_operating_point(self):
        profile = get_profile("raytrace")
        base = measure(profile, mode="undervolt", n_threads=8)
        flex = measure(
            profile, mode="undervolt", n_threads=8, pdn_backend="flexwatts"
        )
        assert (
            flex.adaptive.point.server_power
            != base.adaptive.point.server_power
        )

    def test_explicit_default_backend_matches_no_backend(self):
        profile = get_profile("raytrace")
        base = measure(profile, mode="undervolt", n_threads=4)
        explicit = measure(
            profile, mode="undervolt", n_threads=4, pdn_backend="power7"
        )
        assert (
            explicit.adaptive.point.server_power
            == base.adaptive.point.server_power
        )

    def test_server_and_backend_kwargs_conflict(self):
        from repro.sim.run import build_server

        profile = get_profile("raytrace")
        server = build_server()
        with pytest.raises(SchedulingError):
            measure(
                profile,
                mode="undervolt",
                server=server,
                pdn_backend="flexwatts",
            )

    def test_sweep_power_cap_holds_every_point(self):
        profile = get_profile("raytrace")
        free = sweep(profile, mode="undervolt", core_counts=(4, 8))
        cap = max(
            r.adaptive.point.server_power for r in free
        ) - 10.0
        capped = sweep(
            profile, mode="undervolt", core_counts=(4, 8), power_cap=cap
        )
        for result in capped:
            assert result.adaptive.point.server_power <= cap


class TestBudgetedFleet:
    def test_coordinator_ticks_and_throttles(self, budgeted_result):
        assert budgeted_result.powercap_ticks == 60
        assert budgeted_result.cap_throttle_epochs > 0
        assert budgeted_result.cap_budget_w == 380.0
        assert budgeted_result.cap_measured_steady_w > 0

    def test_budget_events_in_log(self, budgeted_result):
        kinds = {entry["kind"] for entry in budgeted_result.events}
        assert "powercap" in kinds
        assert "cap_update" in kinds

    def test_uncapped_run_has_no_cap_artifacts(self):
        config = FleetConfig(n_servers=2, traffic=TRAFFIC, seed=7)
        result = FleetSimulation(config).run()
        for entry in result.events:
            assert entry["kind"] not in ("powercap", "cap_update")
            assert "cap_w" not in entry
        assert result.powercap_ticks == 0
        assert result.cap_budget_w == 0.0

    def test_budget_changes_the_run(self, budgeted_result):
        config = FleetConfig(n_servers=2, traffic=TRAFFIC, seed=7)
        uncapped = FleetSimulation(config).run()
        assert (
            uncapped.event_log_hash != budgeted_result.event_log_hash
        )

    def test_budgeted_digest_invariant_across_shards_and_workers(self):
        config = FleetConfig(
            n_servers=4,
            traffic=TRAFFIC,
            seed=7,
            fleet_power_budget_w=760.0,
        )
        digests = {
            run_sharded(
                config,
                cell_servers=2,
                n_shards=n_shards,
                workers=workers,
            ).event_log_hash
            for n_shards, workers in ((1, 1), (2, 1), (2, 2))
        }
        assert len(digests) == 1

    def test_tracking_error_property(self, budgeted_result):
        error = budgeted_result.cap_tracking_error
        assert error == pytest.approx(
            abs(budgeted_result.cap_measured_steady_w - 380.0) / 380.0
        )

    def test_overshoot_and_slack_split_tracking_error(self, budgeted_result):
        over, slack = budgeted_result.cap_overshoot, budgeted_result.cap_slack
        assert min(over, slack) == 0.0
        assert over + slack == budgeted_result.cap_tracking_error
        assert (over > 0) == (budgeted_result.cap_measured_steady_w > 380.0)

    def test_rack_power_budget_runs_over_its_budget(self):
        """The catalog rack draws ~1,134.8 W against its 1,100 W feed: all
        of its tracking error is overshoot."""
        fleet = run_scenario(
            find_scenario("rack_power_budget"), keep_events=False
        ).fleet
        assert fleet.cap_budget_w == 1100.0
        assert fleet.cap_measured_steady_w == pytest.approx(1134.8, abs=0.1)
        assert fleet.cap_overshoot == pytest.approx(0.032, abs=0.001)
        assert fleet.cap_slack == 0.0
        assert fleet.cap_overshoot == fleet.cap_tracking_error
