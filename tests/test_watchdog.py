"""The invariant watchdog and the chaos campaign.

The watchdog is the robustness PR's tripwire: fault recovery (worker
re-execution, cache quarantine, budget re-decomposition) must never
*silently* corrupt a run.  These tests pin each check's trip condition,
the counting-vs-strict contract (strict raises
:class:`~repro.errors.WatchdogError`, CLI exit 13), the handle
install/restore mechanics, and that real fleet runs — fault-free and
faulted — stay violation-free.  The campaign tests drive
``repro chaos campaign`` machinery over a tiny inline scenario.
"""

import random

import pytest

from repro.errors import WatchdogError
from repro.faults.campaign import (
    CampaignReport,
    CampaignRow,
    campaign_seed,
    run_campaign,
)
from repro.faults.plan import FaultPlan
from repro.faults.spec import ServerCrashFault
from repro.faults.watchdog import (
    NULL_WATCHDOG,
    InvariantWatchdog,
    install_watchdog,
    watchdog,
    watched,
)
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.scenarios import (
    Scenario,
    ServerGroupSpec,
    TopologySpec,
)


def strict_dog() -> InvariantWatchdog:
    return InvariantWatchdog(strict=True)


class TestConservation:
    def test_balanced_population_passes(self):
        dog = strict_dog()
        dog.conservation(10, 6, 3, 1)
        assert dog.violations == {}

    def test_lost_job_trips(self):
        with pytest.raises(WatchdogError, match="conservation"):
            strict_dog().conservation(10, 6, 2, 1)

    def test_counting_mode_counts_and_continues(self):
        dog = InvariantWatchdog(strict=False)
        dog.conservation(10, 5, 0, 0)
        dog.conservation(10, 5, 0, 0)
        assert dog.violations == {"conservation": 2}


class TestCapSum:
    ARGS = dict(fleet_cap_w=400.0, ceiling_w=1600.0, floor_w=50.0,
                quantum_w=1.0)
    BOTH_DRAWING = dict(measured_w=(150.0, 150.0), live=(True, True))

    def test_within_budget_passes(self):
        dog = strict_dog()
        dog.cap_sum((200.0, 200.0), **self.BOTH_DRAWING, **self.ARGS)
        assert dog.violations == {}

    def test_floor_and_quantization_allowance_is_honoured(self):
        # Two drawing servers may legitimately exceed the fleet cap by
        # up to floor + quantum each.
        strict_dog().cap_sum(
            (250.0, 250.0), **self.BOTH_DRAWING, **self.ARGS
        )

    def test_idle_servers_get_the_uniform_share(self):
        # One server drawing, one idle: the drawer can hold the whole
        # fleet cap while the idle server holds C / n_live.
        strict_dog().cap_sum(
            (400.0, 200.0),
            measured_w=(300.0, 0.0),
            live=(True, True),
            **self.ARGS,
        )

    def test_idle_server_above_uniform_share_trips(self):
        with pytest.raises(WatchdogError, match="uniform share"):
            strict_dog().cap_sum(
                (400.0, 250.0),
                measured_w=(300.0, 0.0),
                live=(True, True),
                **self.ARGS,
            )

    def test_overdistribution_trips(self):
        with pytest.raises(WatchdogError, match="cap_sum"):
            strict_dog().cap_sum(
                (400.0, 400.0), **self.BOTH_DRAWING, **self.ARGS
            )

    def test_negative_cap_trips(self):
        with pytest.raises(WatchdogError, match="negative"):
            strict_dog().cap_sum(
                (200.0, -1.0), **self.BOTH_DRAWING, **self.ARGS
            )

    def test_fleet_cap_above_ceiling_trips(self):
        with pytest.raises(WatchdogError, match="ceiling"):
            strict_dog().cap_sum(
                (0.0,), measured_w=(0.0,), live=(True,),
                fleet_cap_w=1601.0, ceiling_w=1600.0,
                floor_w=50.0, quantum_w=1.0,
            )

    def test_dead_server_handed_watts_trips(self):
        with pytest.raises(WatchdogError, match="dead server"):
            strict_dog().cap_sum(
                (200.0, 50.0),
                measured_w=(150.0, 0.0),
                live=(True, False),
                **self.ARGS,
            )

    def test_dead_server_at_zero_passes(self):
        dog = strict_dog()
        dog.cap_sum(
            (400.0, 0.0),
            measured_w=(150.0, 0.0),
            live=(True, False),
            **self.ARGS,
        )
        assert dog.violations == {}


class TestEnergyLedger:
    def test_monotone_passes(self):
        dog = strict_dog()
        dog.energy_ledger(100.0, 100.0)
        dog.energy_ledger(100.0, 250.0)
        assert dog.violations == {}

    def test_backwards_ledger_trips(self):
        with pytest.raises(WatchdogError, match="backwards"):
            strict_dog().energy_ledger(100.0, 99.0)

    def test_nan_trips(self):
        with pytest.raises(WatchdogError, match="energy_ledger"):
            strict_dog().energy_ledger(0.0, float("nan"))

    def test_infinity_trips(self):
        with pytest.raises(WatchdogError, match="energy_ledger"):
            strict_dog().energy_ledger(0.0, float("inf"))


class TestHeapGeneration:
    def test_current_or_stale_generation_passes(self):
        dog = strict_dog()
        dog.heap_generation(3, 1, 1)
        dog.heap_generation(3, 0, 1)  # stale event: legal, just ignored
        assert dog.violations == {}

    def test_future_generation_trips(self):
        with pytest.raises(WatchdogError, match="heap_generation"):
            strict_dog().heap_generation(3, 2, 1)


class TestHandle:
    def test_default_handle_counts_rather_than_raises(self):
        dog = watchdog()
        assert dog.enabled
        assert not dog.strict

    def test_null_watchdog_is_disabled_and_inert(self):
        assert not NULL_WATCHDOG.enabled
        NULL_WATCHDOG.conservation(1, 0, 0, 0)
        NULL_WATCHDOG.energy_ledger(10.0, 0.0)
        assert NULL_WATCHDOG.violations == {}

    def test_install_returns_previous_and_none_restores_default(self):
        mine = strict_dog()
        previous = install_watchdog(mine)
        try:
            assert watchdog() is mine
        finally:
            restored = install_watchdog(previous)
        assert restored is mine
        fresh = install_watchdog(None)
        try:
            assert watchdog().enabled and not watchdog().strict
        finally:
            install_watchdog(previous)

    def test_watched_installs_strict_and_restores_on_error(self):
        before = watchdog()
        with pytest.raises(RuntimeError):
            with watched() as dog:
                assert watchdog() is dog
                assert dog.strict
                raise RuntimeError("boom")
        assert watchdog() is before


class TestFleetIntegration:
    """Real runs hold every invariant — the watchdog stays silent."""

    TRAFFIC = TrafficConfig(
        duration_seconds=2 * 3600.0, jobs_per_hour=120.0, lc_fraction=0.2
    )

    def test_clean_run_is_violation_free(self):
        config = FleetConfig(n_servers=4, traffic=self.TRAFFIC, seed=11)
        with watched() as dog:
            result = FleetSimulation(config).run()
        assert result.n_arrivals > 0
        assert dog.violations == {}

    def test_budgeted_run_with_crash_is_violation_free(self):
        # Power capping plus a mid-run crash exercises all four checks:
        # cap_sum and energy_ledger every coordinator tick, requeue
        # generations, conservation at the horizon.
        config = FleetConfig(
            n_servers=4,
            traffic=self.TRAFFIC,
            seed=11,
            fleet_power_budget_w=1100.0,
        )
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    server_id=1,
                    start_seconds=1800.0,
                    repair_seconds=1800.0,
                ),
            ),
            seed=2,
        )
        with watched() as dog:
            result = FleetSimulation(config, fault_plan=plan).run()
        assert result.n_server_crashes == 1
        assert dog.violations == {}

    def test_strict_watchdog_maps_to_exit_13(self):
        from repro.cli import exit_code_for

        assert exit_code_for(WatchdogError("x")) == 13


TINY_SCENARIO = Scenario(
    name="tiny_campaign",
    description="one small group, smoke-scale traffic",
    seed=5,
    traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=40.0,
                          lc_fraction=0.2),
    topology=TopologySpec(
        groups=(ServerGroupSpec(name="rack", servers=2),)
    ),
)


class TestCampaign:
    def test_seed_derivation_is_stable_across_processes(self):
        import zlib

        assert campaign_seed("x", 0) == zlib.crc32(b"x")
        assert campaign_seed("x", 3) != campaign_seed("y", 3)

    def test_campaign_over_tiny_scenario_conserves(self):
        report = run_campaign(scenarios=[TINY_SCENARIO], seed=1)
        assert isinstance(report, CampaignReport)
        assert report.passed
        (row,) = report.rows
        assert row.scenario == "tiny_campaign"
        assert row.n_windows == 3
        assert row.conserved
        assert row.watchdog_violations == 0
        assert row.n_server_crashes >= 1

    def test_campaign_is_deterministic(self):
        first = run_campaign(scenarios=[TINY_SCENARIO], seed=1)
        again = run_campaign(scenarios=[TINY_SCENARIO], seed=1)
        assert first.rows == again.rows

    def test_render_names_every_scenario_and_the_verdict(self):
        report = run_campaign(scenarios=[TINY_SCENARIO], seed=1)
        text = report.render()
        assert "tiny_campaign" in text
        assert "conserved" in text
        assert text.splitlines()[-1].startswith("campaign: 1/1 conserved")

    def test_campaign_restores_previous_watchdog(self):
        before = watchdog()
        run_campaign(scenarios=[TINY_SCENARIO], seed=1)
        assert watchdog() is before

    def test_smoke_shrinks_but_still_runs(self):
        big = Scenario(
            name="tiny_campaign_big",
            seed=5,
            traffic=TrafficConfig(
                duration_seconds=24 * 3600.0,
                jobs_per_hour=200.0,
                lc_fraction=0.2,
                surges=((8 * 3600.0, 3600.0, 2.0),),
            ),
            topology=TopologySpec(
                groups=(ServerGroupSpec(name="rack", servers=2),)
            ),
        )
        report = run_campaign(scenarios=[big], seed=1, smoke=True)
        assert report.smoke
        assert report.passed

    def test_row_failure_flows_into_report(self):
        row = CampaignRow(
            scenario="s", n_windows=3, baseline_energy_kwh=1.0,
            degraded_energy_kwh=1.1, qos_delta=0, n_server_crashes=1,
            n_job_kills=1, n_requeues=1, conserved=False,
            watchdog_violations=0,
        )
        report = CampaignReport(rows=(row,), seed=0, smoke=False)
        assert not report.passed
        assert "LOST JOBS" in report.render()
