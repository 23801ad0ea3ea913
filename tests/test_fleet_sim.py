"""Fleet simulation engine: determinism, conservation, energy, QoS."""

import pytest

from repro.fleet import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    FleetConfig,
    FleetSimulation,
    JobSpec,
    TrafficConfig,
    UNGATED_AGS_POLICY,
    constant_trace,
    run_comparison,
)
from repro.fleet.traffic import BATCH, LATENCY_CRITICAL
from repro.sim.batch import SweepRunner
from repro.sim.cache import OperatingPointCache


def _mk(job_id, t_seconds, job_class, profile, n_threads, service=3600.0):
    return JobSpec(
        job_id=job_id,
        arrival_ns=int(t_seconds * 1e9),
        job_class=job_class,
        profile_name=profile,
        n_threads=n_threads,
        service_seconds=service,
    )


#: One latency-critical job plus enough compute-bound work to saturate a
#: server: the scenario where the advisor gate earns its keep.
SATURATION_TRACE = (
    _mk(0, 0.0, LATENCY_CRITICAL, "perl", 1),
    _mk(1, 10.0, BATCH, "raytrace", 4),
    _mk(2, 20.0, BATCH, "raytrace", 4),
    _mk(3, 30.0, BATCH, "raytrace", 4),
    _mk(4, 40.0, BATCH, "bzip2", 2),
)


@pytest.fixture(scope="module")
def short_config():
    return FleetConfig(
        n_servers=2,
        seed=7,
        traffic=TrafficConfig(duration_seconds=4 * 3600.0),
    )


@pytest.fixture(scope="module")
def short_result(short_config):
    return FleetSimulation(short_config, AGS_POLICY).run()


class TestDeterminism:
    def test_identical_rerun(self, short_config, short_result):
        rerun = FleetSimulation(short_config, AGS_POLICY).run()
        assert rerun.event_log_hash == short_result.event_log_hash
        assert rerun.adaptive_energy_joules == short_result.adaptive_energy_joules
        assert rerun.static_energy_joules == short_result.static_energy_joules
        assert rerun.events == short_result.events

    def test_identical_across_worker_counts(self, short_config, short_result):
        """The acceptance property: --workers N never changes the run."""
        wide = SweepRunner(max_workers=4, cache=OperatingPointCache())
        result = FleetSimulation(
            short_config, AGS_POLICY, runner=wide
        ).run()
        assert result.event_log_hash == short_result.event_log_hash
        assert result.adaptive_energy_joules == short_result.adaptive_energy_joules

    def test_different_seeds_differ(self, short_config):
        other = FleetConfig(
            n_servers=2,
            seed=8,
            traffic=short_config.traffic,
        )
        result = FleetSimulation(other, AGS_POLICY).run()
        assert result.event_log_hash != FleetSimulation(
            short_config, AGS_POLICY
        ).run().event_log_hash


class TestConservation:
    @pytest.mark.parametrize("seed", [7, 13])
    def test_arrivals_are_conserved(self, seed):
        config = FleetConfig(
            n_servers=2,
            seed=seed,
            traffic=TrafficConfig(duration_seconds=3 * 3600.0),
        )
        result = FleetSimulation(config, AGS_POLICY).run()
        assert result.conserved
        assert result.n_arrivals == len(result.records_of_class(BATCH)) + len(
            result.records_of_class(LATENCY_CRITICAL)
        )

    def test_every_completion_has_a_lifecycle(self, short_result):
        for record in short_result.job_records:
            if record.completed:
                assert record.started
                assert record.completion_ns >= record.start_ns >= record.arrival_ns
                assert record.slowdown > 0


class TestEnergy:
    def test_ags_beats_the_static_guardband(self, short_result):
        assert (
            short_result.adaptive_energy_joules
            < short_result.static_energy_joules
        )

    def test_energy_is_positive_and_bounded(self, short_config, short_result):
        # 2 servers x 4 h at <= ~900 W each bounds the integral.
        ceiling = 2 * 4 * 3600.0 * 900.0
        assert 0 < short_result.adaptive_energy_joules < ceiling

    def test_consolidation_static_rails_coincide(self, short_config):
        """A STATIC-mode policy's adaptive and static ledgers are one."""
        result = FleetSimulation(short_config, CONSOLIDATION_POLICY).run()
        assert result.adaptive_energy_joules == result.static_energy_joules

    def test_comparison_report(self, short_config, short_result):
        comparison = run_comparison(short_config)
        # One cell, one shard: the plain simulation, bit for bit.
        assert comparison.ags.event_log_hash == short_result.event_log_hash
        assert comparison.ags_energy_joules < comparison.static_energy_joules
        assert comparison.consolidation_energy_joules > 0
        assert 0 < comparison.saving_vs_static < 0.5


class TestQos:
    def test_gated_run_has_zero_violations(self):
        config = FleetConfig(
            n_servers=1, traffic=TrafficConfig(duration_seconds=3600.0)
        )
        result = FleetSimulation(
            config, AGS_POLICY, trace=SATURATION_TRACE
        ).run()
        assert result.qos_violations == 0

    def test_ungated_run_violates_the_sla(self):
        config = FleetConfig(
            n_servers=1, traffic=TrafficConfig(duration_seconds=3600.0)
        )
        result = FleetSimulation(
            config, UNGATED_AGS_POLICY, trace=SATURATION_TRACE
        ).run()
        assert result.qos_violations >= 1
        reasons = {
            e["reason"] for e in result.events if e["kind"] == "qos_violation"
        }
        assert "frequency" in reasons


class TestPowerLifecycle:
    def test_hysteresis_power_cycle(self):
        """A long gap powers the server off; the next arrival restarts it."""
        trace = constant_trace(
            2, n_threads=4, service_seconds=600.0, gap_seconds=3600.0
        )
        config = FleetConfig(
            n_servers=1,
            traffic=TrafficConfig(duration_seconds=2 * 3600.0),
            power_off_hysteresis_seconds=300.0,
        )
        result = FleetSimulation(config, AGS_POLICY, trace=trace).run()
        kinds = [
            e["kind"]
            for e in result.events
            if e["kind"] in ("power_on", "power_off")
        ]
        assert kinds == ["power_on", "power_off", "power_on", "power_off"]

    def test_hysteresis_holds_through_short_gaps(self):
        trace = constant_trace(
            2, n_threads=4, service_seconds=550.0, gap_seconds=600.0
        )
        config = FleetConfig(
            n_servers=1,
            traffic=TrafficConfig(duration_seconds=2 * 3600.0),
            power_off_hysteresis_seconds=300.0,
        )
        result = FleetSimulation(config, AGS_POLICY, trace=trace).run()
        ons = [e for e in result.events if e["kind"] == "power_on"]
        assert len(ons) == 1  # the 50 s idle gap never reaches hysteresis


class TestQueueing:
    def test_overload_queues_then_drains(self):
        trace = tuple(
            _mk(i, i * 10.0, BATCH, "mcf", 8, service=1800.0)
            for i in range(4)
        )
        config = FleetConfig(
            n_servers=1, traffic=TrafficConfig(duration_seconds=2 * 3600.0)
        )
        result = FleetSimulation(config, AGS_POLICY, trace=trace).run()
        queued = [e for e in result.events if e["kind"] == "queued"]
        assert len(queued) == 2  # jobs 2 and 3 wait for capacity
        assert result.conserved
        waits = [
            r.queue_seconds for r in result.job_records if r.queue_seconds
        ]
        assert all(w > 0 for w in waits)

    def test_fleet_full_returns_conserved_counts(self):
        trace = tuple(
            _mk(i, 0.0, BATCH, "mcf", 16, service=4 * 3600.0)
            for i in range(3)
        )
        config = FleetConfig(
            n_servers=2, traffic=TrafficConfig(duration_seconds=3600.0)
        )
        result = FleetSimulation(config, AGS_POLICY, trace=trace).run()
        assert result.n_running == 2
        assert result.n_queued == 1
        assert result.conserved


@pytest.mark.slow
class TestTailPercentiles:
    """p50/p95/p99 latency and slowdown — the QoS report's tail view."""

    @staticmethod
    def _result_with_latencies(latencies):
        from repro.fleet.metrics import FleetResult, JobRecord

        records = tuple(
            JobRecord(
                job_id=i,
                job_class=LATENCY_CRITICAL if i % 2 else BATCH,
                profile_name="perl",
                n_threads=1,
                service_seconds=100.0,
                arrival_ns=0,
                start_ns=0,
                completion_ns=int(lat * 1e9),
            )
            for i, lat in enumerate(latencies)
        )
        return FleetResult(
            policy="ags",
            horizon_ns=10**12,
            adaptive_energy_joules=1.0,
            static_energy_joules=2.0,
            n_arrivals=len(records),
            n_completions=len(records),
            n_running=0,
            n_queued=0,
            qos_violations=0,
            n_epochs=0,
            event_log_hash="0" * 64,
            job_records=records,
        )

    def test_nearest_rank_is_a_sample_member(self):
        from repro.fleet.metrics import percentile

        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([7.0], 99) == 7.0
        assert percentile([], 95) == 0.0

    def test_percentiles_expose_the_tail_the_mean_hides(self):
        # 99 fast jobs and one pathological straggler: the mean moves a
        # little, p99 jumps to the straggler.
        latencies = [100.0] * 99 + [10_000.0]
        result = self._result_with_latencies(latencies)
        tail = result.latency_percentiles()
        assert tail[50] == 100.0
        assert tail[95] == 100.0
        assert tail[99] == 100.0  # rank 99 of 100
        assert result.mean_latency_seconds() == pytest.approx(199.0)
        from repro.fleet.metrics import percentile

        sample = [r.latency_seconds for r in result.job_records]
        assert percentile(sample, 100) == 10_000.0

    def test_slowdown_percentiles_track_latency(self):
        result = self._result_with_latencies([100.0, 200.0, 400.0])
        tail = result.slowdown_percentiles()
        assert tail[50] == pytest.approx(2.0)  # 200 s / 100 s service
        assert tail[99] == pytest.approx(4.0)

    def test_summary_by_class_carries_tail_columns(self, short_result):
        from repro.fleet.metrics import summarize_by_class

        for stats in summarize_by_class(short_result).values():
            for key in (
                "p50_latency_s", "p95_latency_s", "p99_latency_s",
                "p50_slowdown", "p95_slowdown", "p99_slowdown",
            ):
                assert key in stats
            assert stats["p50_latency_s"] <= stats["p99_latency_s"]
            assert stats["p50_slowdown"] <= stats["p99_slowdown"]
            if stats["completions"]:
                assert stats["p99_latency_s"] > 0.0


class TestFullDay:
    def test_default_day_meets_the_acceptance_bar(self):
        comparison = run_comparison(FleetConfig(n_servers=4, seed=7))
        ags = comparison.ags
        assert ags.conserved
        assert ags.qos_violations == 0
        assert comparison.ags_energy_joules < comparison.static_energy_joules
        rerun = run_comparison(FleetConfig(n_servers=4, seed=7))
        assert rerun.ags.event_log_hash == ags.event_log_hash
        assert (
            rerun.ags.adaptive_energy_joules == ags.adaptive_energy_joules
        )
