"""The socket's fixed point against the loop it replaced, to the bit.

``ProcessorSocket._iterate`` runs on constants hoisted once per solve
(:class:`~repro.chip.power.PreparedPower`,
:class:`~repro.pdn.delivery.PreparedDelivery`) and on plain floats, one
fused power step (``PreparedPower.currents``) and one delivery step
(``PreparedDelivery.drops``) per iteration.  The
operating-point cache and the fleet event-log SHA-256 hash exact floats,
so the settled state must equal what the per-iteration loop produced,
bit for bit.  This module keeps that loop as the reference: the scalar
``_iterate``/``_core_currents``/``_evaluate`` of the socket, with the
``chip_power`` and ``deliver`` bodies they called, copied verbatim
(only the removed array-backend branches are dropped).  Every
comparison is an exact ``==``.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.chip.core import HardwareThread
from repro.chip.power import LEAKAGE_VREF, PowerBreakdown
from repro.config import ChipConfig, ServerConfig
from repro.errors import ConvergenceError
from repro.faults import FaultPlan, LoadlineExcursionFault, VrmDroopFault
from repro.faults.injector import fault_injector, injected
from repro.guardband import GuardbandMode
from repro.guardband.calibration import calibrated_margin
from repro.pdn.delivery import DropBreakdown
from repro.sim.server import Power720Server
from repro.workloads import get_profile
from repro.sim.socket import (
    DAMPING,
    MAX_ITERATIONS,
    TOLERANCE,
    ProcessorSocket,
    _Occupancy,
)


# ----------------------------------------------------------------------
# The reference: the per-iteration loop, verbatim
# ----------------------------------------------------------------------
def _ref_leakage(cfg, nominal, voltage, temperature):
    v_scale = (voltage / LEAKAGE_VREF) ** cfg.leakage_voltage_exponent
    t_scale = 1.0 + cfg.leakage_temp_coeff * (temperature - cfg.leakage_temp_ref)
    return nominal * v_scale * max(t_scale, 0.1)


def _ref_chip_power(model, activities, voltages, frequencies, gated, temperature):
    cfg = model.config
    core_dyn = []
    core_leak = []
    active = 0
    for act, v, f, g in zip(activities, voltages, frequencies, gated):
        if g:
            core_dyn.append(0.0)
        else:
            if act < 0:
                raise ValueError(f"activity must be >= 0, got {act}")
            core_dyn.append(cfg.core_ceff * act * v * v * f)
            if act > cfg.idle_activity:
                active += 1
        leak = _ref_leakage(cfg, cfg.core_leakage_nominal, v, temperature)
        core_leak.append(leak * cfg.power_gate_residual if g else leak)
    ungated = [v for v, g in zip(voltages, gated) if not g]
    v_uncore = sum(ungated) / len(ungated) if ungated else max(voltages)
    ungated_f = [f for f, g in zip(frequencies, gated) if not g]
    f_uncore = sum(ungated_f) / len(ungated_f) if ungated_f else cfg.f_min
    activity = cfg.uncore_activity_idle + cfg.uncore_activity_per_core * active
    unc_dyn = cfg.uncore_ceff * activity * v_uncore * v_uncore * f_uncore
    unc_leak = _ref_leakage(cfg, cfg.uncore_leakage_nominal, v_uncore, temperature)
    return PowerBreakdown(
        core_dynamic=tuple(core_dyn),
        core_leakage=tuple(core_leak),
        uncore_dynamic=unc_dyn,
        uncore_leakage=unc_leak,
    )


def _ref_deliver(path, core_currents, uncore_current, n_active_cores):
    if uncore_current < 0:
        raise ValueError(f"uncore_current must be >= 0, got {uncore_current}")
    total = float(np.sum(core_currents)) + uncore_current
    path.vrm.record_current(path.rail, total)
    loadline = path.vrm.loadline_drop(path.rail, total)
    injected_droop = 0.0
    injector = fault_injector()
    if injector.enabled:
        scale = injector.loadline_scale(path.rail)
        if scale != 1.0:
            loadline *= scale
        injected_droop = injector.rail_droop(path.rail)
    ir_shared = path._ir.shared_drop(total)
    ir_local = list(path._ir._local_matrix @ np.asarray(core_currents, dtype=float))
    ripple = path.noise.typical_ripple(n_active_cores)
    droop = path.noise.worst_droop(n_active_cores)
    setpoint = path.setpoint
    voltages = tuple(
        setpoint - injected_droop - loadline - ir_shared - local - ripple
        for local in ir_local
    )
    return DropBreakdown(
        setpoint=setpoint,
        loadline=loadline,
        ir_shared=ir_shared,
        ir_local=tuple(ir_local),
        typical_didt=ripple,
        worst_didt=droop,
        core_voltages=voltages,
    )


def _ref_core_currents(power, voltages, n):
    return [
        power.core_power(i) / max(float(voltages[i]), 0.3) for i in range(n)
    ]


def _ref_iterate(
    self, occupancy, temperature, servo, servo_margin=0.0, frequency_cap=None
):
    chip = self.chip
    n = chip.n_cores
    setpoint = self.path.setpoint
    voltages = np.full(n, setpoint - 0.02)
    freqs = list(chip.frequencies())
    delta = float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        if servo:
            freqs = []
            for v in voltages:
                target = chip.timing.frequency_for_margin(float(v), servo_margin)
                target = chip.timing.clamp_frequency(target)
                if frequency_cap is not None:
                    target = min(target, frequency_cap)
                freqs.append(target)
        power = _ref_chip_power(
            chip.power_model,
            activities=occupancy.activities,
            voltages=list(voltages),
            frequencies=freqs,
            gated=occupancy.gated,
            temperature=temperature,
        )
        core_currents = _ref_core_currents(power, voltages, n)
        uncore_power = power.uncore_dynamic + power.uncore_leakage
        uncore_current = uncore_power / max(float(np.mean(voltages)), 0.3)
        drops = _ref_deliver(
            self.path, core_currents, uncore_current, occupancy.n_active
        )
        new_voltages = np.asarray(drops.core_voltages)
        delta = float(np.max(np.abs(new_voltages - voltages)))
        voltages = voltages + DAMPING * (new_voltages - voltages)
        voltages = np.clip(voltages, 0.2, None)
        if delta < TOLERANCE:
            return voltages, freqs, iteration
    raise ConvergenceError(
        f"socket {self.socket_id}: electrical fixed point did not converge "
        f"in {MAX_ITERATIONS} iterations "
        f"(setpoint={setpoint:.3f} V, last delta={delta:.2e} V)"
    )


def _ref_evaluate(self, occupancy, voltages, temperature):
    chip = self.chip
    n = chip.n_cores
    power = _ref_chip_power(
        chip.power_model,
        activities=occupancy.activities,
        voltages=list(voltages),
        frequencies=chip.frequencies(),
        gated=occupancy.gated,
        temperature=temperature,
    )
    core_currents = _ref_core_currents(power, voltages, n)
    uncore_power = power.uncore_dynamic + power.uncore_leakage
    uncore_current = uncore_power / max(float(np.mean(voltages)), 0.3)
    drops = _ref_deliver(self.path, core_currents, uncore_current, occupancy.n_active)
    total_current = float(sum(core_currents)) + uncore_current
    return drops, power, total_current


@contextmanager
def reference_loop():
    """Run every socket solve in the block on the reference loop."""
    with mock.patch.object(ProcessorSocket, "_iterate", _ref_iterate), \
            mock.patch.object(ProcessorSocket, "_evaluate", _ref_evaluate):
        yield


# ----------------------------------------------------------------------
# Drawn cases
# ----------------------------------------------------------------------
def _build_socket(case):
    config = ServerConfig(
        chip=ChipConfig(n_cores=case["width"]), pdn_backend=case["backend"]
    )
    if case["age_years"] is not None:
        config = aged_server_config(config, AgingModel(), case["age_years"])
    server = Power720Server(config=config, seed=case["die_seed"])
    socket = server.sockets[case["socket"]]
    for core, (threads, gate) in zip(socket.chip.cores, case["cores"]):
        for activity in threads:
            core.place(HardwareThread(workload="w", activity=activity, ipc=1.8))
        if gate and not threads:
            core.gate()
    socket.path.set_voltage(case["setpoint"])
    socket.chip.thermal.settle(case["heat_w"])
    return socket


def _solve(case):
    """Settle one drawn case; the outcome plus the state the solve leaves."""
    socket = _build_socket(case)
    kwargs = dict(settle_thermal=case["settle_thermal"])
    if case["servo"]:
        kwargs["servo_margin"] = calibrated_margin(
            socket.config.chip, socket.config.guardband
        )
        kwargs["frequency_cap"] = case["frequency_cap"]
    elif case["frequencies"] is not None:
        kwargs["frequencies"] = case["frequencies"][: socket.chip.n_cores]
    try:
        outcome = socket.solve(**kwargs)
    except ConvergenceError as exc:
        outcome = ("ConvergenceError", str(exc))
    return (
        outcome,
        socket.path.vrm.sensed_current(socket.path.rail),
        socket.chip.frequencies(),
        socket.chip.thermal.temperature,
    )


@st.composite
def socket_cases(draw):
    width = draw(st.sampled_from([4, 8, 16, 24]))
    core = st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=1.2), max_size=2),
        st.booleans(),
    )
    return {
        "width": width,
        "die_seed": draw(st.integers(min_value=0, max_value=10_000)),
        "backend": draw(st.sampled_from(["power7", "flexwatts"])),
        "age_years": draw(st.none() | st.floats(min_value=0.5, max_value=10.0)),
        "socket": draw(st.integers(min_value=0, max_value=1)),
        "cores": draw(st.lists(core, min_size=width, max_size=width)),
        "setpoint": draw(st.floats(min_value=1.0, max_value=1.3)),
        "heat_w": draw(st.floats(min_value=20.0, max_value=160.0)),
        "settle_thermal": draw(st.booleans()),
        "servo": draw(st.booleans()),
        "frequency_cap": draw(st.none() | st.floats(min_value=3.0e9, max_value=4.6e9)),
        "frequencies": draw(
            st.none()
            | st.lists(
                st.floats(min_value=2.8e9, max_value=4.66e9),
                min_size=24,
                max_size=24,
            )
        ),
    }


class TestMatchesReferenceLoop:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=socket_cases())
    def test_settled_state_is_bit_identical(self, case):
        with reference_loop():
            reference = _solve(case)
        assert _solve(case) == reference

    @pytest.mark.parametrize("backend", ["power7", "flexwatts"])
    @pytest.mark.parametrize("servo", [False, True])
    def test_aged_loaded_socket(self, backend, servo):
        case = {
            "width": 8, "die_seed": 21, "backend": backend, "age_years": 6.0,
            "socket": 0, "cores": [([0.9, 0.4], False)] * 5 + [([], True)] * 3,
            "setpoint": 1.2, "heat_w": 90.0, "settle_thermal": True,
            "servo": servo, "frequency_cap": 4.2e9 if servo else None,
            "frequencies": None,
        }
        with reference_loop():
            reference = _solve(case)
        lean = _solve(case)
        assert lean == reference
        assert isinstance(lean[0].iterations, int) and lean[0].iterations > 0

    @pytest.mark.parametrize("servo", [False, True])
    @pytest.mark.parametrize("gated", [False, True])
    def test_eight_wide_uniform_gating(self, gated, servo):
        """No core gated (the uncore's plain mean) and every core gated
        (its highest-voltage fallback), at the socket width."""
        case = {
            "width": 8, "die_seed": 5, "backend": "power7", "age_years": None,
            "socket": 0, "cores": [([], True) if gated else ([0.8], False)] * 8,
            "setpoint": 1.2, "heat_w": 80.0, "settle_thermal": True,
            "servo": servo, "frequency_cap": None, "frequencies": None,
        }
        with reference_loop():
            reference = _solve(case)
        assert _solve(case) == reference

    @pytest.mark.parametrize("backend", ["power7", "flexwatts"])
    @pytest.mark.parametrize(
        "setpoint, frequency_cap", [(1.25, 2.0e9), (1.25, 5.0e9), (0.84, None)]
    )
    def test_servo_cap_outside_the_dpll_range(
        self, backend, setpoint, frequency_cap
    ):
        """A cap below ``f_min`` wins over the clamp; one above
        ``f_ceiling`` leaves the clamp in charge, and so does no cap on a
        low rail, where every target sits below the floor.  The servo
        loop's own continuous clocks are compared too: the DPLL clamps
        what it is handed, which would hide a reordered cap from the
        settled state."""
        case = {
            "width": 8, "die_seed": 11, "backend": backend, "age_years": None,
            "socket": 1, "cores": [([1.0], False)] * 6 + [([], False)] * 2,
            "setpoint": setpoint, "heat_w": 100.0, "settle_thermal": True,
            "servo": True, "frequency_cap": frequency_cap, "frequencies": None,
        }
        with reference_loop():
            reference = _solve(case)
        assert _solve(case) == reference

        socket = _build_socket(case)
        states = socket.chip.core_states()
        occupancy = _Occupancy(
            activities=[s.activity for s in states],
            gated=[s.gated for s in states],
            n_active=sum(1 for s in states if s.active),
        )
        args = (occupancy, socket.chip.thermal.temperature, True)
        kwargs = dict(
            servo_margin=calibrated_margin(
                socket.config.chip, socket.config.guardband
            ),
            frequency_cap=frequency_cap,
        )
        voltages, freqs, iters = socket._iterate(*args, **kwargs)
        ref_voltages, ref_freqs, ref_iters = _ref_iterate(socket, *args, **kwargs)
        assert (voltages, freqs, iters) == (ref_voltages.tolist(), ref_freqs, ref_iters)
        config = socket.config.chip
        if frequency_cap is None:
            assert set(freqs) == {config.f_min}
        elif frequency_cap < config.f_min:
            assert set(freqs) == {frequency_cap}
        else:
            # Some cores at the ceiling, some servoed below it.
            assert max(freqs) == config.f_ceiling > min(freqs)


@pytest.mark.xfail(
    strict=True,
    reason="ProcessorSocket._evaluate sums SocketSolution.total_current with "
    "Python's sequential sum while PowerDeliveryPath.deliver records the "
    "pairwise_sum total with the VRM, so the two differ in the last bits; "
    "summing once moves every digest, so the fix lands with ROADMAP item 10's "
    "repin",
)
@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(["raytrace", "lu_cb", "mcf", "fft", "radix"]),
    n_threads=st.integers(min_value=1, max_value=8),
)
@example(workload="raytrace", n_threads=1)
def test_one_current_total_per_solve(workload, n_threads):
    """A settled socket reports one current: the solution's total and the
    VRM's current sensor read the same float."""
    server = Power720Server(seed=7)
    server.place(0, get_profile(workload), n_threads)
    point = server.operate(GuardbandMode.UNDERVOLT)
    socket = server.sockets[0]
    assert point.socket_point(0).solution.total_current == (
        socket.path.vrm.sensed_current(socket.path.rail)
    )


@pytest.mark.chaos
class TestFaultHooksMatchReference:
    """Armed delivery faults see the same call sequence as before.

    Both hooks count one injection per call, so the per-kind counts pin
    that the lean loop still consults the injector once per iteration.
    """

    PLAN = FaultPlan(
        specs=(
            LoadlineExcursionFault(socket_id=0, factor=1.7),
            VrmDroopFault(socket_id=0, depth_volts=0.015),
        )
    )

    @pytest.mark.parametrize("servo", [False, True])
    def test_counts_solution_and_sensor_match(self, servo):
        case = {
            "width": 8, "die_seed": 7, "backend": "power7", "age_years": None,
            "socket": 0, "cores": [([1.0], False)] * 6 + [([], False)] * 2,
            "setpoint": 1.25, "heat_w": 100.0, "settle_thermal": True,
            "servo": servo, "frequency_cap": None, "frequencies": None,
        }
        with reference_loop(), injected(self.PLAN) as injector:
            reference = _solve(case)
            reference_counts = dict(injector.counts)
        with injected(self.PLAN) as injector:
            lean = _solve(case)
            lean_counts = dict(injector.counts)
        assert lean == reference
        assert lean_counts == reference_counts
        assert set(lean_counts) == {"loadline_excursion", "vrm_droop"}
        assert lean_counts["loadline_excursion"] > lean[0].iterations

    def test_faults_move_the_settled_point(self):
        case = {
            "width": 8, "die_seed": 7, "backend": "power7", "age_years": None,
            "socket": 0, "cores": [([1.0], False)] * 8,
            "setpoint": 1.25, "heat_w": 100.0, "settle_thermal": False,
            "servo": False, "frequency_cap": None, "frequencies": None,
        }
        clean = _solve(case)
        with injected(self.PLAN):
            faulty = _solve(case)
        assert min(faulty[0].core_voltages) < min(clean[0].core_voltages)
