"""The fault-injection layer: specs, plans, the injector and the gate."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    DROPPED_CODE,
    NULL_INJECTOR,
    CalibrationFault,
    CpmDropFault,
    CpmNoiseFault,
    CpmPlausibilityGate,
    CpmStuckFault,
    FaultInjector,
    FaultPlan,
    JobKillFault,
    LoadlineExcursionFault,
    ServerCrashFault,
    StaleTelemetryFault,
    VrmDroopFault,
    chaos_plan,
    fault_injector,
    injected,
    install_injector,
)


class TestSpecValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultError):
            CpmStuckFault(start_seconds=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(FaultError):
            CpmStuckFault(duration_seconds=0.0)

    def test_negative_socket_rejected(self):
        with pytest.raises(FaultError):
            CpmDropFault(socket_id=-1)

    def test_negative_stuck_code_rejected(self):
        with pytest.raises(FaultError):
            CpmStuckFault(code=-1)

    def test_noise_amplitude_rejected(self):
        with pytest.raises(FaultError):
            CpmNoiseFault(amplitude_bits=0)

    def test_droop_depth_rejected(self):
        with pytest.raises(FaultError):
            VrmDroopFault(depth_volts=0.0)

    def test_loadline_factor_rejected(self):
        with pytest.raises(FaultError):
            LoadlineExcursionFault(factor=0.0)

    def test_crash_server_rejected(self):
        with pytest.raises(FaultError):
            ServerCrashFault(server_id=-1)

    def test_kill_job_rejected(self):
        with pytest.raises(FaultError):
            JobKillFault(job_id=-2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: VrmDroopFault(depth_volts=float("nan")),
            lambda: ServerCrashFault(start_seconds=float("nan")),
            lambda: ServerCrashFault(repair_seconds=float("nan")),
            lambda: LoadlineExcursionFault(factor=float("inf")),
            lambda: CpmStuckFault(duration_seconds=float("inf")),
        ],
        ids=["nan-depth", "nan-start", "nan-repair", "inf-factor",
             "inf-duration"],
    )
    def test_non_finite_values_rejected(self, build):
        with pytest.raises(FaultError, match="finite"):
            build()

    def test_activity_window(self):
        spec = CpmStuckFault(start_seconds=10.0, duration_seconds=5.0)
        assert not spec.active_at(9.9)
        assert spec.active_at(10.0)
        assert spec.active_at(14.9)
        assert not spec.active_at(15.0)

    def test_open_ended_window(self):
        spec = CpmStuckFault(start_seconds=10.0)
        assert spec.active_at(1e9)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan

    def test_standalone_vs_server_scoped_split(self):
        standalone = CpmStuckFault(socket_id=0)
        scoped = CpmStuckFault(socket_id=0, server_id=1)
        crash = ServerCrashFault(start_seconds=5.0, server_id=0)
        kill = JobKillFault(start_seconds=5.0, job_id=3)
        plan = FaultPlan(specs=(standalone, scoped, crash, kill))
        assert plan.standalone_specs() == (standalone,)
        assert plan.server_scoped_specs() == (scoped, crash, kill)

    def test_describe_names_every_spec(self):
        plan = chaos_plan(1000.0, kill_jobs=(4,))
        text = plan.describe()
        assert "server_crash" in text
        assert "cpm_stuck" in text
        assert "job 4" in text

    def test_chaos_plan_defaults(self):
        plan = chaos_plan(1000.0)
        kinds = [type(s) for s in plan.specs]
        assert kinds == [ServerCrashFault, CpmStuckFault]
        crash, stuck = plan.specs
        assert crash.start_seconds == 250.0
        assert crash.repair_seconds == 250.0
        assert stuck.start_seconds == 300.0
        assert stuck.duration_seconds == 200.0

    def test_chaos_plan_ingredients_droppable(self):
        assert chaos_plan(100.0, crash_server=None, corrupt_server=None).is_empty


class TestInjectorDisabled:
    def test_default_handle_is_disabled(self):
        handle = fault_injector()
        assert handle is NULL_INJECTOR
        assert not handle.enabled

    def test_disabled_hooks_are_identity(self):
        assert NULL_INJECTOR.transform_codes(0, 0, [5, 6]) == [5, 6]
        assert NULL_INJECTOR.rail_droop(0) == 0.0
        assert NULL_INJECTOR.loadline_scale(0) == 1.0
        assert not NULL_INJECTOR.stale_active(0)
        assert not NULL_INJECTOR.calibration_should_fail(0)

    def test_injected_restores_previous_handle(self):
        plan = FaultPlan(specs=(CpmStuckFault(socket_id=0),))
        with injected(plan) as inj:
            assert fault_injector() is inj
            assert inj.enabled
        assert fault_injector() is NULL_INJECTOR

    def test_injected_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with injected(FaultPlan()):
                raise RuntimeError("boom")
        assert fault_injector() is NULL_INJECTOR

    def test_install_returns_previous(self):
        inj = FaultInjector(FaultPlan())
        previous = install_injector(inj)
        try:
            assert previous is NULL_INJECTOR
            assert fault_injector() is inj
        finally:
            install_injector(previous)


class TestInjectorHooks:
    def test_stuck_pins_every_code(self):
        plan = FaultPlan(specs=(CpmStuckFault(socket_id=0, code=3),))
        inj = FaultInjector(plan)
        assert inj.transform_codes(0, 0, [10, 20, 30]) == [3, 3, 3]
        assert inj.counts["cpm_stuck"] == 1

    def test_stuck_respects_socket_and_core_scope(self):
        plan = FaultPlan(
            specs=(CpmStuckFault(socket_id=1, code=0, core_id=2),)
        )
        inj = FaultInjector(plan)
        assert inj.transform_codes(0, 2, [10]) == [10]
        assert inj.transform_codes(1, 0, [10]) == [10]
        assert inj.transform_codes(1, 2, [10]) == [0]

    def test_drop_returns_sentinel(self):
        plan = FaultPlan(specs=(CpmDropFault(socket_id=0),))
        inj = FaultInjector(plan)
        assert inj.transform_codes(0, 0, [10, 20]) == [DROPPED_CODE] * 2

    def test_noise_is_seed_deterministic(self):
        plan = FaultPlan(specs=(CpmNoiseFault(socket_id=0),), seed=11)
        a = FaultInjector(plan).transform_codes(0, 0, [50] * 8)
        b = FaultInjector(plan).transform_codes(0, 0, [50] * 8)
        assert a == b
        other = FaultPlan(specs=(CpmNoiseFault(socket_id=0),), seed=12)
        c = FaultInjector(other).transform_codes(0, 0, [50] * 8)
        assert a != c

    def test_clock_gates_activity(self):
        plan = FaultPlan(
            specs=(
                CpmStuckFault(
                    socket_id=0, code=0, start_seconds=100.0,
                    duration_seconds=50.0,
                ),
            )
        )
        inj = FaultInjector(plan)
        assert inj.transform_codes(0, 0, [9]) == [9]
        inj.set_time(120.0)
        assert inj.transform_codes(0, 0, [9]) == [0]
        inj.set_time(150.0)
        assert inj.transform_codes(0, 0, [9]) == [9]

    def test_rail_droop_sums_and_loadline_scales(self):
        plan = FaultPlan(
            specs=(
                VrmDroopFault(socket_id=0, depth_volts=0.02),
                VrmDroopFault(socket_id=0, depth_volts=0.01),
                LoadlineExcursionFault(socket_id=0, factor=2.0),
            )
        )
        inj = FaultInjector(plan)
        assert inj.rail_droop(0) == pytest.approx(0.03)
        assert inj.rail_droop(1) == 0.0
        assert inj.loadline_scale(0) == pytest.approx(2.0)
        assert inj.loadline_scale(1) == 1.0

    def test_calibration_failure_window(self):
        plan = FaultPlan(
            specs=(CalibrationFault(socket_id=0, duration_seconds=10.0),)
        )
        inj = FaultInjector(plan)
        assert inj.calibration_should_fail(0)
        assert not inj.calibration_should_fail(1)
        inj.set_time(11.0)
        assert not inj.calibration_should_fail(0)

    def test_stale_window_flag(self):
        plan = FaultPlan(specs=(StaleTelemetryFault(socket_id=1),))
        inj = FaultInjector(plan)
        assert inj.stale_active(1)
        assert not inj.stale_active(0)


class TestPlausibilityGate:
    def gate(self):
        return CpmPlausibilityGate(code_max=127, tolerance_bits=2)

    def test_healthy(self):
        verdict = self.gate().judge([10, 11, 12], [11, 11, 11])
        assert verdict.healthy
        assert verdict.reason == "ok"

    def test_missing(self):
        assert self.gate().judge([], []).reason == "missing"
        assert self.gate().judge([1, 2], [1]).reason == "missing"

    def test_dropped(self):
        assert self.gate().judge([10, -1], [10, 10]).reason == "dropped"

    def test_out_of_range(self):
        assert self.gate().judge([10, 200], [10, 10]).reason == "out_of_range"

    def test_pinned_low(self):
        assert self.gate().judge([0, 0, 0], [9, 10, 11]).reason == "pinned_low"

    def test_pinned_high(self):
        verdict = self.gate().judge([127, 127], [10, 10])
        assert verdict.reason == "pinned_high"

    def test_implausible(self):
        assert self.gate().judge([30, 10], [10, 10]).reason == "implausible"

    def test_all_zero_with_zero_expectation_is_healthy(self):
        assert self.gate().judge([0, 0], [1, 2]).healthy

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CpmPlausibilityGate(code_max=0)
        with pytest.raises(ValueError):
            CpmPlausibilityGate(code_max=127, tolerance_bits=-1)
