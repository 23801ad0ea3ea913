"""The kept thread count: ``ServerState.total_threads`` equals the sum of
its resident jobs' widths after every handled event.

Admission reads the count instead of summing ``jobs`` and rejects a full
server on it before building any candidate list, so a count that drifts
from ``jobs`` would silently change first-fit.  The engine changes both
only through ``add_job``/``remove_job`` (start, completion and
``_requeue``).  A checking subclass asserts the invariant after every
handled event of a fault-free churn cell, a budgeted cell, and (``chaos``)
job kills with their retries, and a server crash plus repair.
"""

import pytest

from repro.faults import FaultPlan, JobKillFault, ServerCrashFault
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.fleet.events import ns_to_seconds
from repro.fleet.scheduler import AGS_POLICY, ServerState
from repro.fleet.traffic import BATCH, JobSpec, generate_trace
from repro.sim.batch import SweepRunner

DURATION = 2 * 3600.0


def _checked(handler):
    def run_and_check(self, event):
        handler(self, event)
        self._check_counts()

    return run_and_check


class CheckedCount(FleetSimulation):
    """The engine, checking every server's kept count after each event."""

    #: Every handler, followed by the check.
    _DISPATCH = {
        kind: _checked(handler)
        for kind, handler in FleetSimulation._DISPATCH.items()
    }

    #: Handled events checked so far.
    checks = 0

    def _check_counts(self) -> None:
        for state in self.servers:
            expected = sum(job.n_threads for job in state.jobs.values())
            assert state.total_threads == expected, (
                self.now_ns,
                state.server_id,
                state.total_threads,
                sorted(state.jobs),
            )
        self.checks += 1


@pytest.fixture(scope="module")
def runner():
    return SweepRunner()


def _churn_config(budget_w=None):
    """A small churn cell: one profile at one width, many short jobs."""
    return FleetConfig(
        n_servers=4,
        traffic=TrafficConfig(
            duration_seconds=DURATION,
            jobs_per_hour=120.0,
            lc_fraction=0.0,
            batch_profiles=("raytrace",),
            batch_threads=(2,),
        ),
        seed=7,
        fleet_power_budget_w=budget_w,
    )


def _mixed_config():
    """Mixed widths and critical jobs, so counts vary across servers."""
    return FleetConfig(
        n_servers=3,
        traffic=TrafficConfig(
            duration_seconds=DURATION, jobs_per_hour=45.0, lc_fraction=0.2
        ),
        seed=11,
    )


def _run(config, runner, plan=None):
    sim = CheckedCount(config, AGS_POLICY, runner=runner, fault_plan=plan)
    result = sim.run()
    return sim, result


class TestServerState:
    def test_add_and_remove_keep_the_count(self):
        state = ServerState(server_id=0)
        jobs = [
            JobSpec(
                job_id=job_id,
                arrival_ns=0,
                job_class=BATCH,
                profile_name="raytrace",
                n_threads=width,
                service_seconds=60.0,
            )
            for job_id, width in enumerate((2, 4, 8))
        ]
        for job in jobs:
            state.add_job(job)
        assert state.total_threads == 14
        state.remove_job(1)
        assert state.total_threads == 10
        assert sorted(state.jobs) == [0, 2]
        with pytest.raises(KeyError):
            state.remove_job(1)
        assert state.total_threads == 10


class TestEveryEvent:
    def test_fault_free_churn_cell(self, runner):
        sim, result = _run(_churn_config(), runner)
        assert result.n_completions > 50
        # Servers carried co-runners, so the count summed several jobs.
        assert max(
            entry["n_jobs"] for entry in result.events
            if entry["kind"] == "epoch"
        ) >= 3
        assert sim.checks > 2 * result.n_completions

    def test_mixed_widths(self, runner):
        sim, result = _run(_mixed_config(), runner)
        assert result.n_completions > 0
        assert sim.checks > 2 * result.n_completions

    def test_budgeted_cell(self, runner):
        sim, result = _run(_churn_config(budget_w=400.0), runner)
        assert result.cap_throttle_epochs > 0  # the budget binds
        assert result.powercap_ticks > 0
        assert sim.checks > 2 * result.n_completions


@pytest.mark.chaos
class TestEveryFaultedEvent:
    def test_job_kills_and_retries(self, runner):
        config = _mixed_config()
        plan = FaultPlan(
            specs=tuple(
                JobKillFault(
                    start_seconds=ns_to_seconds(job.arrival_ns) + 60.0,
                    job_id=job.job_id,
                )
                for job in generate_trace(config.traffic, config.seed)[::3]
            )
        )
        sim, result = _run(config, runner, plan)
        assert result.n_job_kills > 0
        assert result.n_requeues == result.n_job_kills
        # Some killed job was retried and started a second time.
        starts = [e["job_id"] for e in result.events if e["kind"] == "start"]
        assert len(starts) > len(set(starts))
        assert result.conserved

    def test_server_crash_and_repair(self, runner):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=0.3 * DURATION,
                    server_id=0,
                    repair_seconds=0.2 * DURATION,
                ),
                ServerCrashFault(
                    start_seconds=0.6 * DURATION,
                    server_id=1,
                    repair_seconds=600.0,
                ),
            )
        )
        sim, result = _run(_churn_config(), runner, plan)
        assert result.n_server_crashes == 2
        assert result.n_requeues > 0  # the crashes had victims
        assert any(e["kind"] == "server_repair" for e in result.events)
        assert result.conserved
