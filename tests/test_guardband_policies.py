"""Guardband policies: static, undervolting, overclocking, parking."""

import pytest

from repro.guardband.calibration import calibrate_socket, calibrated_margin
from repro.guardband.overclock import OverclockPolicy
from repro.guardband.parking import park_if_fully_gated, park_voltage
from repro.guardband.static import StaticGuardbandPolicy
from repro.guardband.undervolt import UndervoltPolicy


@pytest.fixture
def loaded_server(server, raytrace):
    server.place(0, raytrace, 4)
    return server


class TestCalibration:
    def test_margin_is_code_times_bit_plus_nondeterminism(self, server_config):
        margin = calibrated_margin(server_config.chip, server_config.guardband)
        expected = (
            server_config.guardband.calibration_code
            * server_config.chip.cpm_mv_per_bit
            + server_config.guardband.nondeterminism_margin
        )
        assert margin == pytest.approx(expected)

    def test_default_margin_about_45mv(self, server_config):
        margin = calibrated_margin(server_config.chip, server_config.guardband)
        assert margin == pytest.approx(0.045, abs=0.002)

    def test_calibrate_socket_aligns_cpms(self, server, server_config):
        chip = server.sockets[0].chip
        margin = calibrate_socket(chip, server_config.guardband)
        codes = chip.cpm_bank.read_core(0, margin, server_config.chip.f_nominal)
        assert all(code == server_config.guardband.calibration_code for code in codes)


class TestStaticPolicy:
    def test_fixed_vdd(self, loaded_server, server_config):
        policy = StaticGuardbandPolicy(server_config)
        policy.apply(loaded_server.sockets[0])
        assert loaded_server.sockets[0].path.setpoint == pytest.approx(
            server_config.static_vdd, abs=server_config.pdn.vrm_step
        )

    def test_all_cores_at_nominal_frequency(self, loaded_server, server_config):
        policy = StaticGuardbandPolicy(server_config)
        solution = policy.apply(loaded_server.sockets[0])
        assert all(
            f == pytest.approx(server_config.chip.f_nominal)
            for f in solution.frequencies
        )

    def test_meets_timing_at_full_load(self, loaded_server, server_config):
        loaded_server.clear()
        from repro.workloads import get_profile

        loaded_server.place(0, get_profile("lu_cb"), 8)
        policy = StaticGuardbandPolicy(server_config)
        solution = policy.apply(loaded_server.sockets[0])
        assert policy.guardband_margin(solution) > 0

    def test_unused_margin_large_under_light_load(self, loaded_server, server_config):
        """The static guardband wastes most of its margin at light load —
        the paper's motivating observation."""
        policy = StaticGuardbandPolicy(server_config)
        solution = policy.apply(loaded_server.sockets[0])
        assert policy.guardband_margin(solution) > 0.08


class TestUndervoltPolicy:
    def test_converges_below_static(self, loaded_server, server_config):
        policy = UndervoltPolicy(server_config)
        result = policy.converge(loaded_server.sockets[0])
        assert result.undervolt > 0
        assert result.setpoint < server_config.static_vdd

    def test_frequency_held_at_target(self, loaded_server, server_config):
        policy = UndervoltPolicy(server_config)
        result = policy.converge(loaded_server.sockets[0])
        assert all(
            f == pytest.approx(server_config.chip.f_nominal)
            for f in result.solution.frequencies
        )

    def test_converged_state_droop_safe(self, loaded_server, server_config):
        """Even during the deepest droop the worst core stays above the
        timing wall plus the calibrated margin."""
        socket = loaded_server.sockets[0]
        policy = UndervoltPolicy(server_config)
        result = policy.converge(socket)
        margin = calibrated_margin(server_config.chip, server_config.guardband)
        droop = socket.path.noise.worst_droop(socket.chip.n_active_cores())
        wall = server_config.chip.vmin(server_config.chip.f_nominal)
        for voltage in result.solution.core_voltages:
            assert voltage - droop >= wall + margin - 1e-9

    def test_converged_within_one_step_of_limit(self, loaded_server, server_config):
        """Tightness: one more VRM step down would violate the requirement."""
        socket = loaded_server.sockets[0]
        policy = UndervoltPolicy(server_config)
        result = policy.converge(socket)
        step = socket.path.vrm.step
        excess = policy._worst_excess(
            socket, result.solution, server_config.chip.f_nominal
        )
        assert 0 <= excess < step

    def test_excess_reads_the_solutions_own_occupancy(
        self, loaded_server, server_config
    ):
        """The droop-safe requirement uses the active-core count the
        solution was settled at, not the live chip's: emptying the cores
        after the settle (same noise model) leaves the excess unchanged."""
        socket = loaded_server.sockets[0]
        policy = UndervoltPolicy(server_config)
        result = policy.converge(socket)
        target = server_config.chip.f_nominal
        settled = policy._worst_excess(socket, result.solution, target)
        socket.chip.clear_threads()
        assert socket.chip.n_active_cores() == 0
        assert policy._worst_excess(socket, result.solution, target) == settled

    def test_heavier_load_shallower_undervolt(self, server, raytrace, server_config):
        policy = UndervoltPolicy(server_config)
        server.place(0, raytrace, 1)
        light = policy.converge(server.sockets[0])
        server.clear()
        server.place(0, raytrace, 8)
        heavy = policy.converge(server.sockets[0])
        assert heavy.undervolt < light.undervolt

    def test_custom_frequency_target(self, loaded_server, server_config):
        policy = UndervoltPolicy(server_config)
        result = policy.converge(loaded_server.sockets[0], f_target=3.5e9)
        assert result.undervolt > 0
        assert all(
            f == pytest.approx(3.5e9) for f in result.solution.frequencies
        )


class TestOverclockPolicy:
    def test_boosts_above_nominal(self, loaded_server, server_config):
        policy = OverclockPolicy(server_config)
        solution = policy.apply(loaded_server.sockets[0])
        assert solution.mean_frequency > server_config.chip.f_nominal

    def test_setpoint_stays_static(self, loaded_server, server_config):
        policy = OverclockPolicy(server_config)
        policy.apply(loaded_server.sockets[0])
        assert loaded_server.sockets[0].path.setpoint == pytest.approx(
            server_config.static_vdd, abs=server_config.pdn.vrm_step
        )

    def test_boost_respects_ceiling(self, server, server_config):
        from repro.workloads import get_profile

        server.place(0, get_profile("mcf"), 1)
        policy = OverclockPolicy(server_config)
        solution = policy.apply(server.sockets[0])
        assert max(solution.frequencies) <= server_config.chip.f_ceiling

    def test_light_load_boosts_more(self, server, raytrace, server_config):
        policy = OverclockPolicy(server_config)
        server.place(0, raytrace, 1)
        light = policy.apply(server.sockets[0])
        server.clear()
        server.place(0, raytrace, 8)
        heavy = policy.apply(server.sockets[0])
        light_active = light.frequencies[0]
        heavy_active = min(heavy.frequencies)
        assert light_active > heavy_active

    def test_boost_fraction_metric(self, loaded_server, server_config):
        policy = OverclockPolicy(server_config)
        solution = policy.apply(loaded_server.sockets[0])
        assert policy.boost_fraction(solution) == pytest.approx(
            solution.mean_frequency / server_config.chip.f_nominal - 1
        )


class TestParking:
    def test_park_voltage_is_lowest_dvfs_point(self, server_config):
        expected = server_config.chip.vmin(server_config.chip.f_min) + (
            server_config.guardband.static_guardband
        )
        assert park_voltage(server_config) == pytest.approx(expected)

    def test_fully_gated_chip_parks(self, server, server_config):
        socket = server.sockets[1]
        socket.chip.gate_unused(keep_on=0)
        solution = park_if_fully_gated(socket, server_config)
        assert solution is not None
        assert all(
            f == pytest.approx(server_config.chip.f_min)
            for f in solution.frequencies
        )

    def test_partially_gated_chip_does_not_park(self, server, server_config):
        socket = server.sockets[0]
        socket.chip.gate_unused(keep_on=2)
        assert park_if_fully_gated(socket, server_config) is None

    def test_parked_chip_power_small(self, server, server_config):
        socket = server.sockets[1]
        socket.chip.gate_unused(keep_on=0)
        solution = park_if_fully_gated(socket, server_config)
        assert solution.chip_power < 10.0

    def test_undervolt_on_fully_gated_chip_reports_zero(
        self, server, server_config
    ):
        socket = server.sockets[1]
        socket.chip.gate_unused(keep_on=0)
        policy = UndervoltPolicy(server_config)
        result = policy.converge(socket)
        assert result.undervolt == 0.0
        assert result.ticks == 0
