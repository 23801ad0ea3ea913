"""Graceful degradation of the guardband controller and the PDN hooks."""

import pytest

from repro.api import measure
from repro.errors import CalibrationError
from repro.faults import (
    CalibrationFault,
    CpmDropFault,
    CpmStuckFault,
    FaultPlan,
    LoadlineExcursionFault,
    StaleTelemetryFault,
    VrmDroopFault,
    injected,
)
from repro.guardband import GuardbandController, GuardbandMode
from repro.sim.server import Power720Server
from repro.telemetry.cpm_reader import CpmReader, CpmReadMode
from repro.workloads import get_profile


def fresh_controller(n_threads=4):
    server = Power720Server(seed=7)
    server.place(0, get_profile("raytrace"), n_threads)
    return GuardbandController(server.sockets[0])


class TestControllerFallback:
    def test_stuck_cpm_enters_fallback_and_serves_static(self):
        ctrl = fresh_controller()
        plan = FaultPlan(specs=(CpmStuckFault(socket_id=0, code=0),))
        with injected(plan):
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
        assert ctrl.in_fallback
        assert ctrl.fallback_reason == "pinned_low"
        assert point.mode is GuardbandMode.STATIC
        assert point.undervolt == 0.0

    def test_dropped_cpm_enters_fallback(self):
        ctrl = fresh_controller()
        plan = FaultPlan(specs=(CpmDropFault(socket_id=0),))
        with injected(plan):
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
        assert ctrl.fallback_reason == "dropped"
        assert point.mode is GuardbandMode.STATIC

    def test_hysteresis_rearms_after_window(self):
        ctrl = fresh_controller()
        plan = FaultPlan(
            specs=(
                CpmStuckFault(
                    socket_id=0, code=0, duration_seconds=100.0
                ),
            )
        )
        with injected(plan) as inj:
            assert ctrl.operate(GuardbandMode.UNDERVOLT).mode is (
                GuardbandMode.STATIC
            )
            inj.set_time(200.0)  # fault window over; telemetry healthy
            # Hysteresis: the first two healthy probes still serve static.
            for _ in range(ctrl.REARM_HEALTHY_OPERATES - 1):
                point = ctrl.operate(GuardbandMode.UNDERVOLT)
                assert ctrl.in_fallback
                assert point.mode is GuardbandMode.STATIC
            # The streak completes: adaptive mode re-arms immediately.
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
        assert not ctrl.in_fallback
        assert point.mode is GuardbandMode.UNDERVOLT
        assert point.undervolt > 0.0

    def test_resumed_corruption_reenters_on_rearm_probe(self):
        ctrl = fresh_controller()
        # Two corruption windows with a healthy gap sized exactly to the
        # hysteresis: the re-arm probe lands back inside corruption.
        plan = FaultPlan(
            specs=(
                CpmStuckFault(socket_id=0, code=0, duration_seconds=10.0),
                CpmStuckFault(socket_id=0, code=0, start_seconds=20.0),
            )
        )
        with injected(plan) as inj:
            ctrl.operate(GuardbandMode.UNDERVOLT)
            assert ctrl.in_fallback
            inj.set_time(15.0)  # healthy gap
            for _ in range(ctrl.REARM_HEALTHY_OPERATES - 1):
                ctrl.operate(GuardbandMode.UNDERVOLT)
            inj.set_time(25.0)  # second window live at the re-arm probe
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
        assert ctrl.in_fallback
        assert point.mode is GuardbandMode.STATIC

    def test_calibration_failure_falls_back_then_recovers(self):
        ctrl = fresh_controller()
        plan = FaultPlan(
            specs=(CalibrationFault(socket_id=0, duration_seconds=10.0),)
        )
        with injected(plan) as inj:
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
            assert ctrl.fallback_reason == "calibration_failed"
            assert point.mode is GuardbandMode.STATIC
            # Fault clears; calibration retries, then hysteresis drains.
            inj.set_time(20.0)
            for _ in range(ctrl.REARM_HEALTHY_OPERATES):
                point = ctrl.operate(GuardbandMode.UNDERVOLT)
        assert not ctrl.in_fallback
        assert point.mode is GuardbandMode.UNDERVOLT

    def test_static_requests_untouched_by_fallback(self):
        ctrl = fresh_controller()
        plan = FaultPlan(specs=(CpmStuckFault(socket_id=0, code=0),))
        with injected(plan):
            ctrl.operate(GuardbandMode.UNDERVOLT)
            point = ctrl.operate(GuardbandMode.STATIC)
        assert point.mode is GuardbandMode.STATIC

    def test_rearm_hysteresis_validated(self):
        server = Power720Server(seed=7)
        with pytest.raises(ValueError):
            GuardbandController(server.sockets[0], rearm_healthy_operates=0)

    def test_calibration_error_surfaces_without_controller(self):
        from repro.guardband.calibration import calibrate_socket

        server = Power720Server(seed=7)
        server.place(0, get_profile("raytrace"), 2)
        plan = FaultPlan(specs=(CalibrationFault(socket_id=0),))
        with injected(plan):
            with pytest.raises(CalibrationError):
                calibrate_socket(
                    server.sockets[0].chip,
                    server.config.guardband,
                    socket_id=0,
                )
        # It raises before the die draws its CPM bank.
        assert "_cpms" not in vars(server.sockets[0].chip.cpm_bank)


class TestPdnInjection:
    def test_vrm_droop_changes_settled_point(self):
        clean = measure("raytrace", n_threads=2)
        plan = FaultPlan(
            specs=(VrmDroopFault(socket_id=0, depth_volts=0.030),)
        )
        droopy = measure("raytrace", n_threads=2, fault_plan=plan)
        clean_v = clean.static.point.socket_point(0).solution.core_voltages[0]
        droopy_v = droopy.static.point.socket_point(0).solution.core_voltages[0]
        assert droopy_v < clean_v

    def test_loadline_excursion_deepens_drop(self):
        clean = measure("raytrace", n_threads=4)
        plan = FaultPlan(
            specs=(LoadlineExcursionFault(socket_id=0, factor=5.0),)
        )
        excursion = measure("raytrace", n_threads=4, fault_plan=plan)
        clean_v = clean.static.point.socket_point(0).solution.core_voltages[0]
        excursion_v = (
            excursion.static.point.socket_point(0).solution.core_voltages[0]
        )
        assert excursion_v < clean_v

    def test_stale_telemetry_replays_frozen_codes(self):
        server = Power720Server(seed=7)
        server.place(0, get_profile("raytrace"), 4)
        socket = server.sockets[0]
        plan = FaultPlan(
            specs=(StaleTelemetryFault(socket_id=0, start_seconds=10.0),)
        )
        with injected(plan) as inj:
            point = server.operate(GuardbandMode.STATIC)
            reader = CpmReader(socket)
            before = reader.worst_codes(
                point.socket_point(0).solution, CpmReadMode.SAMPLE
            )
            inj.set_time(20.0)
            # Resettle at a different load: fresh codes would differ, but
            # the stale window replays the frozen ones.
            server.clear()
            server.place(0, get_profile("raytrace"), 1)
            repoint = server.operate(GuardbandMode.STATIC)
            frozen = reader.worst_codes(
                repoint.socket_point(0).solution, CpmReadMode.SAMPLE
            )
            assert frozen == before
            assert inj.counts["cpm_stale"] >= 1


class TestZeroPerturbation:
    def test_empty_plan_measure_is_bit_identical(self):
        plain = measure("raytrace", n_threads=4)
        empty = measure("raytrace", n_threads=4, fault_plan=FaultPlan())
        for attr in ("static", "adaptive"):
            a = getattr(plain, attr).point.socket_point(0)
            b = getattr(empty, attr).point.socket_point(0)
            assert a.chip_power == b.chip_power
            assert a.frequency == b.frequency
            assert a.undervolt == b.undervolt

    def test_measure_without_plan_leaves_injector_untouched(self):
        from repro.faults import NULL_INJECTOR, fault_injector

        measure("raytrace", n_threads=1)
        assert fault_injector() is NULL_INJECTOR
