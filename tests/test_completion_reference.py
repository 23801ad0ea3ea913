"""One completion in flight per server, against the per-job push it replaced.

Every epoch re-rates all of a server's resident jobs, but the engine
now pushes only the server's earliest completion; it used to push one
``CompletionEvent`` per resident job and let the next commit orphan all
but the first.  This module keeps the former push loop verbatim in a
test-side subclass and asserts the two engines return equal
``FleetResult``s (event-log SHA-256, job records, both energy ledgers)
fault-free, under job kills, a server crash and repair, a CPM fallback
window, a binding fleet power budget and a same-nanosecond tie between
two jobs (the lower job id finishes first).  It also checks the
precondition the change relies on after every handled event: each
server holds exactly one live completion while it has resident work,
and that one is its job with the earliest ``(time_ns, job_id)``.
"""

from typing import Dict, List

import pytest

from repro.errors import SchedulingError
from repro.faults import (
    CpmStuckFault,
    FaultPlan,
    JobKillFault,
    ServerCrashFault,
)
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.fleet.events import CompletionEvent, ns_to_seconds, seconds_to_ns
from repro.fleet.scheduler import AGS_POLICY
from repro.fleet.traffic import BATCH, JobSpec, generate_trace
from repro.sim.batch import SweepRunner

DURATION = 2 * 3600.0
SEEDS = (7, 11, 3)


class PerJobPush(FleetSimulation):
    """The engine with the former per-job completion push, verbatim."""

    def _reestimate(self, state, plan, result, now_ns):
        for job_id in sorted(state.jobs):
            runner_job = self.running[job_id]
            runner_job.sync(now_ns)
            runner_job.rate = self._job_rate(
                runner_job.spec, plan.job_shares[job_id], result
            )
            runner_job.generation += 1
            # The bump orphans the job's previously scheduled completion
            # (a fresh start has none — a self-correcting overcount).
            self.events.note_stale()
            self._schedule_completion(runner_job, now_ns)

    def _schedule_completion(self, job, now_ns):
        if job.rate <= 0:
            raise SchedulingError(
                f"job {job.spec.job_id} has a non-positive progress rate"
            )
        eta_ns = seconds_to_ns(job.remaining_seconds / job.rate)
        self.events.push(
            CompletionEvent(
                time_ns=now_ns + eta_ns,
                job_id=job.spec.job_id,
                generation=job.generation,
            )
        )


@pytest.fixture(scope="module")
def runner():
    return SweepRunner()


def _config(seed, budget_w=None):
    # ~15 jobs an hour per server, each running ~half an hour: servers
    # carry several co-runners, so most epochs re-rate more than one job.
    return FleetConfig(
        n_servers=3,
        traffic=TrafficConfig(
            duration_seconds=DURATION, jobs_per_hour=45.0, lc_fraction=0.2
        ),
        seed=seed,
        fleet_power_budget_w=budget_w,
    )


def _kill_plan(config):
    """Kill every fourth job a minute after it arrives."""
    return FaultPlan(
        specs=tuple(
            JobKillFault(
                start_seconds=ns_to_seconds(job.arrival_ns) + 60.0,
                job_id=job.job_id,
            )
            for job in generate_trace(config.traffic, config.seed)[::4]
        )
    )


def _crash_plan():
    return FaultPlan(
        specs=(
            ServerCrashFault(
                start_seconds=0.3 * DURATION,
                server_id=0,
                repair_seconds=0.2 * DURATION,
            ),
        )
    )


def _fallback_plan():
    return FaultPlan(
        specs=(
            CpmStuckFault(
                start_seconds=0.25 * DURATION,
                duration_seconds=0.25 * DURATION,
                server_id=0,
                socket_id=0,
            ),
        )
    )


def _both(config, runner, plan=None):
    trace = generate_trace(config.traffic, config.seed)
    return tuple(
        engine(
            config, AGS_POLICY, runner=runner, trace=trace, fault_plan=plan
        ).run()
        for engine in (PerJobPush, FleetSimulation)
    )


def _assert_equal(reference, result):
    assert result.event_log_hash == reference.event_log_hash
    assert result.job_records == reference.job_records
    assert result.adaptive_energy_joules == reference.adaptive_energy_joules
    assert result.static_energy_joules == reference.static_energy_joules
    assert result == reference


@pytest.mark.parametrize("seed", SEEDS)
class TestMatchesPerJobPush:
    def test_fault_free(self, seed, runner):
        reference, result = _both(_config(seed), runner)
        assert reference.n_completions > 0
        # Epochs re-rated several co-runners, whose completions the
        # former loop pushed and the engine now does not.
        assert max(
            entry["n_jobs"]
            for entry in reference.events
            if entry["kind"] == "epoch"
        ) >= 3
        _assert_equal(reference, result)

    def test_binding_power_budget(self, seed, runner):
        reference, result = _both(_config(seed, budget_w=400.0), runner)
        assert reference.cap_throttle_epochs > 0  # the budget binds
        _assert_equal(reference, result)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestFaultedMatchesPerJobPush:
    def test_job_kill(self, seed, runner):
        config = _config(seed)
        reference, result = _both(config, runner, _kill_plan(config))
        assert reference.n_job_kills > 0
        _assert_equal(reference, result)

    def test_server_crash_and_repair(self, seed, runner):
        reference, result = _both(_config(seed), runner, _crash_plan())
        assert reference.n_server_crashes == 1
        assert reference.n_requeues > 0  # the crash had victims
        _assert_equal(reference, result)

    def test_fallback_enter_exit(self, seed, runner):
        reference, result = _both(_config(seed), runner, _fallback_plan())
        assert reference.fallback_seconds  # the window opened
        assert any(
            entry["kind"] == "fallback_exit" for entry in reference.events
        )
        _assert_equal(reference, result)


def _checked(handler):
    def run_and_check(self, event):
        handler(self, event)
        self._check_completions()

    return run_and_check


class CheckedHeap(FleetSimulation):
    """The engine, checking the completion heap after every handled event."""

    #: Every handler, followed by the check.
    _DISPATCH = {
        kind: _checked(handler)
        for kind, handler in FleetSimulation._DISPATCH.items()
    }

    #: Handled events checked so far.
    checks = 0

    def _check_completions(self) -> None:
        live: Dict[int, List[CompletionEvent]] = {}
        for _, _, _, event in self.events._heap:
            if isinstance(event, CompletionEvent) and not self._event_is_stale(
                event
            ):
                server_id = self.running[event.job_id].server_id
                live.setdefault(server_id, []).append(event)
        for state in self.servers:
            in_flight = live.get(state.server_id, [])
            if not state.jobs:
                assert in_flight == []
                continue
            assert len(in_flight) == 1, (state.server_id, in_flight)
            etas = []
            for job_id in state.jobs:
                job = self.running[job_id]
                eta_ns = seconds_to_ns(job.remaining_seconds / job.rate)
                etas.append((job.last_update_ns + eta_ns, job_id))
            event = in_flight[0]
            assert (event.time_ns, event.job_id) == min(etas)
        self.checks += 1


def test_a_tie_goes_to_the_lower_job_id(runner):
    """Two identical jobs started together on one server finish at the
    same nanosecond; the lower job id completes first, as the former
    per-job push's FIFO sequence had it."""
    trace = tuple(
        JobSpec(
            job_id=job_id,
            arrival_ns=0,
            job_class=BATCH,
            profile_name="raytrace",
            n_threads=2,
            service_seconds=600.0,
        )
        for job_id in (0, 1)
    )
    config = FleetConfig(
        n_servers=1,
        traffic=TrafficConfig(duration_seconds=3600.0),
        seed=7,
    )
    reference, result = (
        engine(config, AGS_POLICY, runner=runner, trace=trace).run()
        for engine in (PerJobPush, CheckedHeap)
    )
    completions = [e for e in result.events if e["kind"] == "completion"]
    assert [e["job_id"] for e in completions] == [0, 1]
    assert completions[0]["time_ns"] == completions[1]["time_ns"]
    _assert_equal(reference, result)


@pytest.mark.chaos
def test_one_live_completion_per_server(runner):
    config = _config(5)
    plan = FaultPlan(
        specs=_kill_plan(config).specs
        + _crash_plan().specs
        + (
            ServerCrashFault(
                start_seconds=0.6 * DURATION, server_id=1, repair_seconds=600.0
            ),
        )
    )
    sim = CheckedHeap(config, AGS_POLICY, runner=runner, fault_plan=plan)
    result = sim.run()
    assert result.n_job_kills > 0 and result.n_server_crashes == 2
    assert sim.checks > 100
    assert result.conserved
