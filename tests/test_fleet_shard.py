"""Sharded fleet execution: cell layout, fault routing, digest identity.

The load-bearing property: the merged event-log SHA-256 depends only on
the *cell layout*, never on how many shard processes (or sweep workers)
executed it.  These tests run the same day under every shard/worker
combination and assert one digest.
"""

import dataclasses

import pytest

from repro.errors import FaultError, SchedulingError
from repro.faults.plan import FaultPlan
from repro.faults.spec import CpmStuckFault, JobKillFault, ServerCrashFault
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.fleet.scheduler import AGS_POLICY
from repro.fleet.shard import (
    ENV_SHARD_FAULT,
    MAX_SHARD_RETRIES,
    CellLayout,
    CellSpec,
    _split_fault_plan,
    run_cell_specs,
    run_sharded,
)

#: Short but non-trivial day: queueing, completions, and power cycling
#: all occur, so the logs exercise every event kind.
DURATION = 2 * 3600.0


@pytest.fixture(scope="module")
def config():
    return FleetConfig(
        n_servers=8,
        traffic=TrafficConfig(
            duration_seconds=DURATION, jobs_per_hour=200, lc_fraction=0.2
        ),
        seed=5,
    )


class TestCellLayout:
    def test_even_partition(self):
        layout = CellLayout(n_servers=8, cell_servers=2)
        assert layout.n_cells == 4
        assert [layout.size(c) for c in range(4)] == [2, 2, 2, 2]
        assert [layout.offset(c) for c in range(4)] == [0, 2, 4, 6]

    def test_ragged_tail_cell(self):
        layout = CellLayout(n_servers=10, cell_servers=4)
        assert layout.n_cells == 3
        assert [layout.size(c) for c in range(3)] == [4, 4, 2]

    def test_single_cell_when_wider_than_fleet(self):
        layout = CellLayout(n_servers=4, cell_servers=100)
        assert layout.n_cells == 1
        assert layout.size(0) == 4

    def test_job_routing_covers_every_cell(self):
        layout = CellLayout(n_servers=8, cell_servers=2)
        routed = {layout.cell_of_job(j) for j in range(100)}
        assert routed == {0, 1, 2, 3}

    def test_server_routing(self):
        layout = CellLayout(n_servers=10, cell_servers=4)
        assert layout.cell_of_server(0) == 0
        assert layout.cell_of_server(7) == 1
        assert layout.cell_of_server(9) == 2
        with pytest.raises(SchedulingError):
            layout.cell_of_server(10)

    def test_rejects_bad_shapes(self):
        with pytest.raises(SchedulingError):
            CellLayout(n_servers=0, cell_servers=1)
        with pytest.raises(SchedulingError):
            CellLayout(n_servers=4, cell_servers=0)


class TestFaultRouting:
    LAYOUT = CellLayout(n_servers=8, cell_servers=2)

    def test_crash_spec_remaps_to_cell_local_id(self):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=10.0, server_id=5, repair_seconds=60.0
                ),
            )
        )
        routed = _split_fault_plan(plan, self.LAYOUT)
        assert set(routed) == {2}
        spec = routed[2].specs[0]
        assert spec.server_id == 1  # global 5 → cell 2, local 1
        assert spec.repair_seconds == 60.0

    def test_job_kill_routes_by_job_id(self):
        plan = FaultPlan(specs=(JobKillFault(start_seconds=5.0, job_id=7),))
        routed = _split_fault_plan(plan, self.LAYOUT)
        assert set(routed) == {7 % self.LAYOUT.n_cells}

    def test_socket_fault_remaps_server_keeps_socket(self):
        plan = FaultPlan(
            specs=(
                CpmStuckFault(
                    start_seconds=1.0,
                    duration_seconds=10.0,
                    server_id=6,
                    socket_id=1,
                ),
            )
        )
        routed = _split_fault_plan(plan, self.LAYOUT)
        spec = routed[3].specs[0]
        assert spec.server_id == 0
        assert spec.socket_id == 1

    def test_standalone_specs_are_rejected_under_sharding(self):
        plan = FaultPlan(
            specs=(CpmStuckFault(start_seconds=1.0, server_id=None),)
        )
        with pytest.raises(FaultError, match="standalone"):
            _split_fault_plan(plan, self.LAYOUT)

    def test_single_cell_passes_the_plan_through_untouched(self):
        plan = FaultPlan(
            specs=(CpmStuckFault(start_seconds=1.0, server_id=None),)
        )
        layout = CellLayout(n_servers=4, cell_servers=4)
        assert _split_fault_plan(plan, layout) == {0: plan}


class TestDigestIdentity:
    def test_single_cell_equals_the_plain_simulation(self, config):
        plain = FleetSimulation(config).run()
        sharded = run_sharded(config, n_shards=1)
        assert sharded.event_log_hash == plain.event_log_hash
        assert (
            sharded.adaptive_energy_joules == plain.adaptive_energy_joules
        )
        assert sharded.static_energy_joules == plain.static_energy_joules
        assert len(sharded.events) == len(plain.events)
        assert sharded.job_records == plain.job_records

    @pytest.mark.slow
    def test_digest_is_invariant_across_shards_and_workers(self, config):
        """The acceptance matrix: shards 1/2/4 x workers 1/2, one hash."""
        outcomes = {}
        for n_shards in (1, 2, 4):
            for workers in (1, 2):
                result = run_sharded(
                    config,
                    n_shards=n_shards,
                    cell_servers=2,
                    workers=workers,
                )
                outcomes[(n_shards, workers)] = result
        digests = {r.event_log_hash for r in outcomes.values()}
        assert len(digests) == 1, f"split digests: {digests}"
        energies = {
            r.adaptive_energy_joules for r in outcomes.values()
        }
        assert len(energies) == 1
        assert all(r.conserved for r in outcomes.values())

    def test_shard_count_does_not_change_the_digest(self, config):
        """The quick (not slow) core of the matrix: 1 vs 2 shards."""
        one = run_sharded(config, n_shards=1, cell_servers=4)
        two = run_sharded(config, n_shards=2, cell_servers=4)
        assert one.event_log_hash == two.event_log_hash
        assert one.n_completions == two.n_completions

    def test_cell_layout_is_part_of_the_identity(self, config):
        """Different cell widths are different runs — by design."""
        wide = run_sharded(config, n_shards=1, cell_servers=8)
        narrow = run_sharded(config, n_shards=1, cell_servers=2)
        assert wide.event_log_hash != narrow.event_log_hash

    def test_merged_log_reads_as_one_fleet(self, config):
        result = run_sharded(config, n_shards=2, cell_servers=2)
        server_ids = {
            entry["server_id"]
            for entry in result.events
            if "server_id" in entry
        }
        assert server_ids  # the day touched servers at all
        assert max(server_ids) >= 2  # beyond cell 0's local range
        assert all(0 <= s < config.n_servers for s in server_ids)
        times = [entry["time_ns"] for entry in result.events]
        assert times == sorted(times)


@pytest.mark.chaos
class TestShardedChaos:
    def test_conservation_under_sharded_crash_and_repair(self, config):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=600.0, server_id=1, repair_seconds=1200.0
                ),
                ServerCrashFault(start_seconds=900.0, server_id=6),
                JobKillFault(start_seconds=1800.0, job_id=3),
            )
        )
        results = [
            run_sharded(
                config, n_shards=shards, cell_servers=2, fault_plan=plan
            )
            for shards in (1, 2)
        ]
        assert results[0].event_log_hash == results[1].event_log_hash
        for result in results:
            assert result.conserved
            assert result.n_server_crashes == 2
            assert result.n_requeues >= 1

    def test_out_of_range_server_is_rejected_before_running(self, config):
        plan = FaultPlan(
            specs=(ServerCrashFault(start_seconds=1.0, server_id=99),)
        )
        with pytest.raises(SchedulingError):
            run_sharded(config, n_shards=1, cell_servers=2, fault_plan=plan)


def _cells_for(config):
    layout = CellLayout(n_servers=config.n_servers, cell_servers=2)
    return tuple(
        CellSpec(
            index=cell_id,
            offset=layout.offset(cell_id),
            config=dataclasses.replace(
                config, n_servers=layout.size(cell_id)
            ),
        )
        for cell_id in range(layout.n_cells)
    )


@pytest.mark.chaos
@pytest.mark.usefixtures("require_pools")
class TestShardCrashRecovery:
    """Worker death never fails the run or moves its digest.

    The kill hook (:data:`~repro.fleet.shard.ENV_SHARD_FAULT`) makes the
    pool worker about to simulate a chosen cell die with ``os._exit`` on
    a chosen attempt — a deterministic stand-in for an OOM kill.  The
    recovery contract: failed cells re-execute (fresh pool, then
    in-process), the retry manifest names them, and the merged SHA-256
    is bit-identical to an unfaulted run.
    """

    def test_killed_worker_recovers_bit_identical(
        self, config, monkeypatch
    ):
        baseline = run_cell_specs(_cells_for(config), AGS_POLICY, n_shards=2)
        assert baseline.retries == ()
        monkeypatch.setenv(ENV_SHARD_FAULT, "kill:cell=1,attempt=0")
        recovered = run_cell_specs(
            _cells_for(config), AGS_POLICY, n_shards=2
        )
        assert (
            recovered.merged.event_log_hash
            == baseline.merged.event_log_hash
        )
        assert recovered.merged.job_records == baseline.merged.job_records
        # The kill takes down the whole batch, so every cell sharing the
        # dead worker re-executes; cell 1 is among them, on attempt 1,
        # recovered on a fresh pool.
        assert recovered.retries
        by_cell = {r.cell_index: r for r in recovered.retries}
        assert by_cell[1].attempt == 1
        assert by_cell[1].reason == "broken_pool"
        assert by_cell[1].recovered_via == "fresh_pool"

    def test_repeated_kills_fall_back_in_process(self, config, monkeypatch):
        baseline = run_cell_specs(_cells_for(config), AGS_POLICY, n_shards=2)
        # Kill cell 1's worker on every fresh-pool attempt (0, 1, 2);
        # the hook never fires in the parent, so the in-process last
        # resort always completes.
        for attempt in range(MAX_SHARD_RETRIES + 1):
            monkeypatch.setenv(
                ENV_SHARD_FAULT, f"kill:cell=1,attempt={attempt}"
            )
            recovered = run_cell_specs(
                _cells_for(config), AGS_POLICY, n_shards=2
            )
            assert (
                recovered.merged.event_log_hash
                == baseline.merged.event_log_hash
            )

    def test_scenario_result_carries_the_manifest(self, monkeypatch):
        from repro.scenarios import (
            Scenario,
            ServerGroupSpec,
            TopologySpec,
            run_scenario,
        )

        scenario = Scenario(
            name="shard_recovery_probe",
            seed=5,
            traffic=TrafficConfig(
                duration_seconds=3600.0, jobs_per_hour=60.0,
                lc_fraction=0.2,
            ),
            topology=TopologySpec(
                groups=(
                    ServerGroupSpec(
                        name="rack", servers=4, cell_servers=2
                    ),
                )
            ),
        )
        clean = run_scenario(scenario, n_shards=2)
        assert clean.retries == ()
        monkeypatch.setenv(ENV_SHARD_FAULT, "kill:cell=0,attempt=0")
        faulted = run_scenario(scenario, n_shards=2)
        assert faulted.retries
        assert 0 in {r.cell_index for r in faulted.retries}
        assert (
            faulted.fleet.event_log_hash == clean.fleet.event_log_hash
        )
