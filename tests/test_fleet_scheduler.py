"""Online fleet scheduler: regimes, placement canonicalization, the gate."""

from types import SimpleNamespace

import pytest

from repro.errors import SchedulingError
from repro.fleet.scheduler import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    MODE_BORROWING,
    MODE_PACKING,
    MODE_QOS,
    OnlineFleetScheduler,
    ServerState,
    UNGATED_AGS_POLICY,
    socket_min_active_frequency,
)
from repro.fleet.traffic import BATCH, LATENCY_CRITICAL, JobSpec
from repro.guardband import GuardbandMode

GHZ = 1e9


def _job(job_id, profile="raytrace", n=4, job_class=BATCH):
    return JobSpec(
        job_id=job_id,
        arrival_ns=0,
        job_class=job_class,
        profile_name=profile,
        n_threads=n,
        service_seconds=600.0,
    )


def _fake_settle(frequency_hz):
    """A settle stub whose socket-0 clock is a constant."""
    solution = SimpleNamespace(
        frequencies=[frequency_hz] * 8, active_core_ids=[0]
    )
    point = SimpleNamespace(
        socket_point=lambda socket_id: SimpleNamespace(solution=solution)
    )
    result = SimpleNamespace(adaptive=SimpleNamespace(point=point))
    calls = []

    def settle(placement, mode):
        calls.append((placement, mode))
        return result

    settle.calls = calls
    return settle


@pytest.fixture
def scheduler(server_config):
    return OnlineFleetScheduler(
        server_config,
        AGS_POLICY,
        required_frequency=4.536 * GHZ,
        settle=_fake_settle(4.6 * GHZ),
    )


class TestValidation:
    def test_rejects_bad_parameters(self, server_config):
        with pytest.raises(SchedulingError):
            OnlineFleetScheduler(
                server_config, AGS_POLICY, required_frequency=0.0,
                settle=_fake_settle(4.6 * GHZ),
            )
        with pytest.raises(SchedulingError):
            OnlineFleetScheduler(
                server_config, AGS_POLICY, required_frequency=4.2 * GHZ,
                settle=_fake_settle(4.6 * GHZ), utilization_threshold=0.0,
            )


class TestRegimes:
    def test_light_load_borrows(self, scheduler):
        plan = scheduler.build_plan([_job(0, n=4), _job(1, n=4)])
        assert plan.mode_name == MODE_BORROWING
        # Threads balance across sockets: both jobs split 2+2.
        assert plan.job_shares[0] == (2, 2)
        assert plan.job_shares[1] == (2, 2)
        assert plan.guardband_mode is GuardbandMode.UNDERVOLT

    def test_heavy_load_packs(self, scheduler):
        plan = scheduler.build_plan([_job(0, n=8), _job(1, n=4)])
        assert plan.mode_name == MODE_PACKING
        # Canonical order places the smaller raytrace job first; socket 0
        # fills completely before anything lands on socket 1.
        assert plan.job_shares[1] == (4, 0)
        assert plan.job_shares[0] == (4, 4)
        assert plan.placement.threads_on(0) == 8

    def test_lc_switches_to_qos_mapping(self, scheduler):
        plan = scheduler.build_plan(
            [_job(0, n=4), _job(1, "perl", n=2, job_class=LATENCY_CRITICAL)]
        )
        assert plan.mode_name == MODE_QOS
        assert plan.has_lc
        # The critical job is isolated on socket 0; batch prefers socket 1.
        assert plan.job_shares[1] == (2, 0)
        assert plan.job_shares[0] == (0, 4)
        assert plan.guardband_mode is GuardbandMode.OVERCLOCK

    def test_qos_overflow_lands_on_socket_zero(self, scheduler):
        jobs = [
            _job(0, "mcf", n=8),
            _job(1, "mcf", n=4),
            _job(2, "perl", n=2, job_class=LATENCY_CRITICAL),
        ]
        plan = scheduler.build_plan(jobs)
        shares = plan.job_shares
        assert sum(s[0] for s in shares.values()) == 2 + 4
        assert sum(s[1] for s in shares.values()) == 8

    def test_consolidation_always_packs_static(self, server_config):
        scheduler = OnlineFleetScheduler(
            server_config,
            CONSOLIDATION_POLICY,
            required_frequency=4.536 * GHZ,
            settle=_fake_settle(4.2 * GHZ),
        )
        plan = scheduler.build_plan(
            [_job(0, n=2), _job(1, "perl", n=2, job_class=LATENCY_CRITICAL)]
        )
        assert plan.mode_name == MODE_PACKING
        assert plan.guardband_mode is GuardbandMode.STATIC

    def test_empty_plan(self, scheduler):
        plan = scheduler.build_plan([])
        assert plan.placement is None
        assert plan.job_shares == {}

    def test_keep_on_gates_spare_cores(self, scheduler):
        plan = scheduler.build_plan([_job(0, n=6)])
        assert plan.placement.keep_on == (3, 3)


class TestCanonicalization:
    def test_plan_is_permutation_invariant(self, scheduler):
        jobs = [
            _job(0, "raytrace", n=4),
            _job(1, "mcf", n=2),
            _job(2, "perl", n=1, job_class=LATENCY_CRITICAL),
            _job(3, "fft", n=4),
        ]
        reference = scheduler.build_plan(jobs)
        shuffled = [jobs[2], jobs[3], jobs[0], jobs[1]]
        assert scheduler.build_plan(shuffled) == reference


class TestFits:
    def test_capacity_bound(self, scheduler):
        assert scheduler.fits([_job(0, n=16)])
        assert not scheduler.fits([_job(0, n=16), _job(1, n=1)])
        assert not scheduler.fits([_job(0, n=17)])

    def test_qos_mapping_caps_critical_threads(self, scheduler):
        lc = [
            _job(i, "perl", n=2, job_class=LATENCY_CRITICAL) for i in range(5)
        ]
        assert not scheduler.fits(lc)  # 10 critical threads > one socket
        assert scheduler.fits(lc[:4])


class TestTryPlace:
    def test_first_fit_prefers_lowest_powered_server(self, scheduler):
        servers = [ServerState(server_id=i) for i in range(3)]
        servers[1].powered = True
        placed = scheduler.try_place(_job(0), servers)
        assert placed is not None
        assert placed[0] == 1  # powered server wins over dark server 0

    def test_powers_on_when_no_powered_server_fits(self, scheduler):
        servers = [ServerState(server_id=i) for i in range(2)]
        servers[0].powered = True
        servers[0].add_job(_job(9, n=16))
        placed = scheduler.try_place(_job(0, n=4), servers)
        assert placed is not None
        assert placed[0] == 1

    def test_returns_none_when_fleet_is_full(self, scheduler):
        servers = [ServerState(server_id=0, powered=True)]
        servers[0].add_job(_job(9, n=16))
        assert scheduler.try_place(_job(0, n=4), servers) is None


class TestAdvisorGate:
    def _gated(self, server_config, settle, verdicts):
        scheduler = OnlineFleetScheduler(
            server_config,
            AGS_POLICY,
            required_frequency=4.536 * GHZ,
            settle=settle,
        )
        scheduler._advisor_verdicts.update(verdicts)
        return scheduler

    def _qos_server(self):
        state = ServerState(server_id=0, powered=True)
        state.add_job(_job(0, "perl", n=2, job_class=LATENCY_CRITICAL))
        state.add_job(_job(1, "mcf", n=8))
        return [state]

    def test_rejects_predicted_unsafe_corunner(self, server_config):
        settle = _fake_settle(4.6 * GHZ)
        scheduler = self._gated(
            server_config, settle, {("perl", "raytrace"): False}
        )
        # raytrace must overflow to socket 0 (socket 1 holds mcf x 8).
        assert scheduler.try_place(_job(2, "raytrace", n=4), self._qos_server()) is None
        assert settle.calls == []  # predictor fast path, no settling

    def test_admits_predicted_safe_corunner_after_verification(
        self, server_config
    ):
        settle = _fake_settle(4.6 * GHZ)
        scheduler = self._gated(
            server_config, settle, {("perl", "fft"): True}
        )
        placed = scheduler.try_place(_job(2, "fft", n=4), self._qos_server())
        assert placed is not None
        assert len(settle.calls) == 1  # exact verification ran

    def test_rejects_when_verification_misses_the_sla(self, server_config):
        settle = _fake_settle(4.5 * GHZ)  # below the 4.536 GHz requirement
        scheduler = self._gated(
            server_config, settle, {("perl", "fft"): True}
        )
        assert scheduler.try_place(_job(2, "fft", n=4), self._qos_server()) is None

    def test_ungated_policy_skips_the_gate(self, server_config):
        settle = _fake_settle(4.5 * GHZ)
        scheduler = OnlineFleetScheduler(
            server_config,
            UNGATED_AGS_POLICY,
            required_frequency=4.536 * GHZ,
            settle=settle,
        )
        placed = scheduler.try_place(
            _job(2, "raytrace", n=4), self._qos_server()
        )
        assert placed is not None
        assert settle.calls == []


class TestSocketMinActiveFrequency:
    def test_reads_active_cores_only(self):
        solution = SimpleNamespace(
            frequencies=[4.0 * GHZ, 3.0 * GHZ, 5.0 * GHZ],
            active_core_ids=[0, 2],
        )
        point = SimpleNamespace(
            socket_point=lambda sid: SimpleNamespace(solution=solution)
        )
        assert socket_min_active_frequency(point, 0) == 4.0 * GHZ

    def test_idle_socket_falls_back_to_all_cores(self):
        solution = SimpleNamespace(
            frequencies=[4.0 * GHZ, 3.5 * GHZ], active_core_ids=[]
        )
        point = SimpleNamespace(
            socket_point=lambda sid: SimpleNamespace(solution=solution)
        )
        assert socket_min_active_frequency(point, 0) == 3.5 * GHZ
