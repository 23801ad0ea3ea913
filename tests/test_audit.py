"""Reliability audit of settled operating points."""

import dataclasses

import pytest

from repro.api import measure
from repro.config import DidtConfig, PdnConfig, ServerConfig
from repro.guardband import GuardbandMode, audit_operating_point
from repro.sim.run import build_server


def _audit(server, profile_name, n_threads, mode):
    result = measure(profile_name, n_threads=n_threads, mode=mode, server=server)
    solution = result.adaptive.point.socket_point(0).solution
    return audit_operating_point(
        server.sockets[0],
        solution,
        server.config,
        frequency_is_servoed=(mode is GuardbandMode.OVERCLOCK),
    )


class TestSafeStatesPass:
    @pytest.mark.parametrize("workload", ["raytrace", "lu_cb", "mcf"])
    @pytest.mark.parametrize("n_threads", [1, 8])
    def test_undervolt_states_pass(self, server, workload, n_threads):
        report = _audit(server, workload, n_threads, GuardbandMode.UNDERVOLT)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("workload", ["raytrace", "lu_cb"])
    def test_overclock_states_pass(self, server, workload):
        report = _audit(server, workload, 8, GuardbandMode.OVERCLOCK)
        assert report.passed, report.failures()

    def test_static_states_pass(self, server):
        report = _audit(server, "lu_cb", 8, GuardbandMode.STATIC)
        assert report.passed

    def test_undervolt_is_tight(self, server):
        """The converged undervolt leaves little droop slack — the audit
        proves safety, not over-provisioning."""
        report = _audit(server, "raytrace", 8, GuardbandMode.UNDERVOLT)
        margin = 0.045
        assert report.worst_droop_slack < margin + 0.02


class TestUnsafeStatesFail:
    def test_overdeep_setpoint_fails(self, server, raytrace):
        """Manually undervolting past the firmware's floor must be caught."""
        server.place(0, raytrace, 8)
        socket = server.sockets[0]
        socket.path.set_voltage(1.10)
        solution = socket.solve(frequencies=[4.2e9] * 8)
        report = audit_operating_point(socket, solution, server.config)
        assert not report.passed

    def test_finding_fields_explain_failure(self, server, raytrace):
        server.place(0, raytrace, 8)
        socket = server.sockets[0]
        socket.path.set_voltage(1.10)
        solution = socket.solve(frequencies=[4.2e9] * 8)
        report = audit_operating_point(socket, solution, server.config)
        failure = report.failures()[0]
        assert failure.droop_slack < 0 or failure.typical_slack < 0

    def test_monster_droops_fail_fixed_frequency(self, raytrace):
        """A platform with pathological droops cannot hold nominal clock
        at an aggressive setpoint."""
        didt = dataclasses.replace(DidtConfig(), droop_single_core=0.150)
        config = ServerConfig(pdn=dataclasses.replace(PdnConfig(), didt=didt))
        server = build_server(config)
        server.place(0, raytrace, 8)
        socket = server.sockets[0]
        socket.path.set_voltage(1.16)
        solution = socket.solve(frequencies=[4.2e9] * 8)
        report = audit_operating_point(socket, solution, config)
        assert not report.passed
