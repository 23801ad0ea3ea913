"""Twin sockets: a fault-free server operate solves each distinct socket once.

Inside one fault-free ``Power720Server.operate`` the sockets share a memo
of the solves made so far, keyed by ``ProcessorSocket._inputs``: each
core's ``(activity, gated, active)``, the DPLL outputs, the die
temperature, the rail setpoint, the noise model's ripple and droop scales,
``servo_margin``, ``frequency_cap`` and ``settle_thermal``.  A solve whose
inputs were solved before takes that solution and restores its end state
(DPLL outputs, die temperature, the rail's sensed current) instead of
iterating.  Loadline borrowing's even split makes that every second
socket.

This module states what that rests on and checks the key:

* the precondition: with reuse defeated, the two sockets of a symmetric
  placement settle ``==`` on their own, though their dies differ (two die
  seeds per server) and they sit on different rails;
* reuse changes nothing: settled points and the server's end state equal
  the per-socket path's, over a second operate on the same live server
  too, and the second socket iterates not once;
* key completeness: changing any one key field on the second socket makes
  it solve again and land where an independent solve lands;
* under a fault injector nothing is reused.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.chip.core import HardwareThread
from repro.config import ServerConfig
from repro.faults import (
    CpmNoiseFault,
    FaultPlan,
    LoadlineExcursionFault,
    VrmDroopFault,
)
from repro.faults.injector import injected
from repro.guardband import GuardbandMode
from repro.guardband.calibration import calibrated_margin
from repro.guardband.capping import cap_walk_frequencies
from repro.obs import Observability, install
from repro.pdn import DidtNoiseModel
from repro.pdn.backends import backend_names
from repro.sim.batch import SweepTask, _place, _runtime_model
from repro.sim.run import build_server
from repro.sim.socket import ProcessorSocket
from repro.workloads import get_profile, profile_names

STATIC = GuardbandMode.STATIC
UNDERVOLT = GuardbandMode.UNDERVOLT
OVERCLOCK = GuardbandMode.OVERCLOCK
MODES = tuple(GuardbandMode)
CONFIG = ServerConfig()
CORES = CONFIG.chip.n_cores
RAYTRACE = get_profile("raytrace")

#: Server seeds; a server's sockets draw die seeds ``seed`` and ``seed + 1``.
SEEDS = (7, 19)


@contextmanager
def no_reuse():
    """Every solve key is a new object, so no solve is ever reused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessorSocket, "_inputs", lambda self, *args: object())
        yield


@contextmanager
def counted_iterations():
    """Count ``ProcessorSocket._iterate`` calls per socket id."""
    calls = Counter()
    original = ProcessorSocket._iterate

    def counted(self, *args, **kwargs):
        calls[self.socket_id] += 1
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessorSocket, "_iterate", counted)
        yield calls


@pytest.fixture
def iterations():
    with counted_iterations() as calls:
        yield calls


def _socket_state(socket):
    """What a solve leaves behind on its socket."""
    path = socket.path
    return (
        socket.chip.thermal.temperature,
        tuple(socket.chip.frequencies()),
        path.setpoint,
        path.vrm.sensed_current(path.rail),
    )


def _end_state(server):
    return tuple(_socket_state(socket) for socket in server.sockets)


def _settle(config, seed, task, modes, entry=False):
    """Place ``task`` on a fresh server, then operate ``modes`` in turn on
    that live server (``measure(server=)``'s pattern).  ``task=None`` is
    an idle server with every core gated: both sockets park.  With
    ``entry`` the undervolt operate starts from the preceding static
    point.  Returns ``(point, steady state, server end state)`` per
    operate."""
    server = build_server(config, seed=seed)
    if task is None:
        server.gate_unused((0, 0))
        f_target, steady = None, lambda point: None
    else:
        f_target = task.f_target
        steady = _place(server, task, _runtime_model(task.runtime_params))
    settled = []
    previous = None
    for mode in modes:
        start = previous if entry and mode is UNDERVOLT else None
        point = server.operate(mode, f_target, entry=start)
        settled.append((point, steady(point), _end_state(server)))
        previous = point
    return settled


def _check_twins(config, seed, task, modes, entry=False):
    with no_reuse(), counted_iterations() as alone_calls:
        alone = _settle(config, seed, task, modes, entry)
    # The precondition: each socket solved on its own settles ``==``.
    for point, _, state in alone:
        first, second = point.sockets
        assert first == second
        assert state[0] == state[1]
    assert alone_calls[1] == alone_calls[0] > 0
    with counted_iterations() as shared_calls:
        shared = _settle(config, seed, task, modes, entry)
    assert shared == alone
    assert shared_calls[0] == alone_calls[0]
    assert shared_calls[1] == 0


@st.composite
def symmetric_cases(draw):
    backend = draw(st.sampled_from(backend_names()))
    config = ServerConfig(pdn_backend=backend)
    age_years = draw(st.none() | st.sampled_from((2.0, 6.0, 10.0)))
    if age_years is not None:
        config = aged_server_config(config, AgingModel(), age_years)
    profile = get_profile(draw(st.sampled_from(profile_names())))
    n_threads = draw(st.integers(1, 4))
    keep_on = draw(st.none() | st.integers(0, CORES))
    f_target = draw(st.none() | st.sampled_from(cap_walk_frequencies(config)))
    modes = (draw(st.sampled_from(MODES)), draw(st.sampled_from(MODES)))
    task = SweepTask.placement(
        profile,
        (n_threads, n_threads),
        modes[-1],
        keep_on=None if keep_on is None else (keep_on, keep_on),
        f_target=f_target,
    )
    return config, draw(st.sampled_from(SEEDS)), task, modes


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(symmetric_cases())
def test_symmetric_placements_settle_twin_sockets(case):
    config, seed, task, modes = case
    _check_twins(config, seed, task, modes)


class TestSymmetricPlacements:
    """Fixed cases, so each mode, backend and seed is covered whatever
    hypothesis draws."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("backend", backend_names())
    def test_borrowed_at_the_cap_floor(self, backend, mode, seed):
        config = ServerConfig(pdn_backend=backend)
        floor = cap_walk_frequencies(config)[-1]
        task = SweepTask.placement(
            RAYTRACE, (3, 3), mode, keep_on=(4, 4), f_target=floor
        )
        _check_twins(config, seed, task, (STATIC, mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_parked_idle_server(self, mode):
        _check_twins(CONFIG, 7, None, (mode, mode))

    @pytest.mark.parametrize("n_threads", (1, 2, 3, 4))
    def test_undervolt_from_the_static_entry(self, n_threads):
        task = SweepTask.placement(get_profile("lu_cb"), (n_threads,) * 2, UNDERVOLT)
        _check_twins(CONFIG, 7, task, (STATIC, UNDERVOLT), entry=True)

    def test_aged_chips(self):
        config = aged_server_config(CONFIG, AgingModel(), 10.0)
        task = SweepTask.placement(RAYTRACE, (4, 4), OVERCLOCK)
        _check_twins(config, 11, task, (UNDERVOLT, OVERCLOCK))


# ----------------------------------------------------------------------
# Key completeness
# ----------------------------------------------------------------------
def _twin_server(config=CONFIG):
    """Both sockets at three raytrace threads on the static rail; cores
    3–7 idle and ungated."""
    server = build_server(config)
    for socket_id, socket in enumerate(server.sockets):
        server.place(socket_id, RAYTRACE, 3)
        socket.path.set_voltage(config.static_vdd)
    return server


def _noise(socket, ripple=1.0, droop=1.0):
    noise = socket.path.noise
    socket.path.set_noise(
        DidtNoiseModel(
            noise.config,
            ripple_scale=noise.ripple_scale * ripple,
            droop_scale=noise.droop_scale * droop,
        )
    )


def _unchanged(socket):
    pass


SERVO = {
    "servo_margin": calibrated_margin(CONFIG.chip, CONFIG.guardband),
    "frequency_cap": CONFIG.chip.f_ceiling,
}

#: A platform whose idle cores clock no activity: gating an idle core
#: then leaves every activity as it was and changes only ``gated``.
NO_IDLE_ACTIVITY = dataclasses.replace(
    CONFIG, chip=dataclasses.replace(CONFIG.chip, idle_activity=0.0)
)

#: ``name: (perturb socket 1, socket 0's solve kwargs, socket 1's[,
#: server config])``.
PERTURBATIONS = {
    "activity": (lambda s: s.chip.cores[0].place(RAYTRACE.thread()), {}, {}),
    "gated": (lambda s: s.chip.cores[7].gate(), {}, {}, NO_IDLE_ACTIVITY),
    # A zero-activity thread leaves the core at the idle activity floor:
    # only ``active`` changes.
    "active": (
        lambda s: s.chip.cores[7].place(HardwareThread("idle", 0.0, 0.0)),
        {},
        {},
    ),
    "dpll_output": (
        lambda s: s.chip.dplls[0].set_frequency(
            s.chip.dplls[0].frequency - CONFIG.chip.f_step
        ),
        {},
        {},
    ),
    "temperature": (lambda s: s.chip.thermal.settle(50.0), {}, {}),
    "setpoint": (
        lambda s: s.path.set_voltage(s.path.setpoint + s.path.vrm.step), {}, {}
    ),
    "ripple_scale": (lambda s: _noise(s, ripple=1.1), {}, {}),
    "droop_scale": (lambda s: _noise(s, droop=1.1), {}, {}),
    "servo_margin": (
        _unchanged,
        SERVO,
        {**SERVO, "servo_margin": SERVO["servo_margin"] + 0.005},
    ),
    "frequency_cap": (
        _unchanged,
        SERVO,
        {**SERVO, "frequency_cap": CONFIG.chip.f_nominal},
    ),
    "settle_thermal": (_unchanged, {}, {"settle_thermal": False}),
}


class TestKeyCompleteness:
    """Socket 1 solves after socket 0 with the memo open, once with one
    key field changed; an independent solve on a fresh server with the
    same change is the reference."""

    @staticmethod
    def _twin_solves(
        iterations, perturb, first_kwargs, second_kwargs, config=CONFIG
    ):
        server = _twin_server(config)
        twin, other = server.sockets
        twin.solves = other.solves = {}
        first = twin.solve(**first_kwargs)
        perturb(other)
        iterations.clear()
        second = other.solve(**second_kwargs)
        iterated = iterations[1]
        alone = _twin_server(config).sockets[1]
        perturb(alone)
        expected = alone.solve(**second_kwargs)
        assert _socket_state(other) == _socket_state(alone)
        return first, second, expected, iterated

    def test_equal_inputs_are_reused(self, iterations):
        first, second, expected, iterated = self._twin_solves(
            iterations, _unchanged, {}, {}
        )
        assert iterated == 0
        assert second is first
        assert second == expected

    def test_reuse_restores_dpll_outputs_exactly(self, iterations):
        # On a 1/36 GHz grid, snapping the grid point 112 steps up to the
        # grid again lands on step 111.  A servo capped between steps 112
        # and 113 settles at step 112, which a restore through
        # ``set_frequency`` would lose.
        chip = dataclasses.replace(CONFIG.chip, f_step=1e9 / 36)
        cap = 112.5 * chip.f_step
        kwargs = {**SERVO, "frequency_cap": cap}
        first, second, expected, iterated = self._twin_solves(
            iterations,
            _unchanged,
            kwargs,
            kwargs,
            dataclasses.replace(CONFIG, chip=chip),
        )
        assert iterated == 0
        assert second is first == expected
        assert set(first.frequencies) == {112 * chip.f_step}

    @pytest.mark.parametrize("name", sorted(PERTURBATIONS))
    def test_a_changed_field_solves_again(self, iterations, name):
        first, second, expected, iterated = self._twin_solves(
            iterations, *PERTURBATIONS[name]
        )
        assert iterated > 0
        assert second == expected
        # The change reaches the settled point, so reusing the first
        # solve would have been wrong.
        assert expected != first

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "task",
        [
            SweepTask.placement(RAYTRACE, (3, 5), UNDERVOLT),
            SweepTask.placement(RAYTRACE, (5, 3), UNDERVOLT, keep_on=(6, 6)),
            SweepTask.consolidated(RAYTRACE, 4, UNDERVOLT),
            SweepTask.consolidated(RAYTRACE, 8, UNDERVOLT),
            SweepTask.placement(RAYTRACE, (4, 0), UNDERVOLT, keep_on=(4, 0)),
        ],
        ids=["borrowed_3_5", "borrowed_5_3_gated", "consolidated_4",
             "consolidated_8", "consolidated_parked"],
    )
    def test_unequal_sockets_both_iterate(self, iterations, mode, task):
        with no_reuse():
            alone = _settle(CONFIG, 7, task, (STATIC, mode))
        iterations.clear()
        assert _settle(CONFIG, 7, task, (STATIC, mode)) == alone
        assert iterations[0] > 0
        assert iterations[1] > 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestSolveCounter:
    def _count(self, obs, task, modes):
        previous = install(obs)
        try:
            _settle(CONFIG, 7, task, modes)
        finally:
            install(previous)
        family = obs.metrics.get("socket_solves_total")
        if family is None:
            return None
        return {labels: child.value for labels, child in family.children()}

    def test_symmetric_operates_split_solved_and_reused(self):
        calls = Counter()
        original = ProcessorSocket.solve

        def counted(self, *args, **kwargs):
            calls[self.socket_id] += 1
            return original(self, *args, **kwargs)

        task = SweepTask.placement(RAYTRACE, (2, 2), UNDERVOLT)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProcessorSocket, "solve", counted)
            counts = self._count(Observability(enabled=True), task, (STATIC, UNDERVOLT))
        assert counts[("reused",)] >= calls[1] > 0
        assert counts[("solved",)] + counts[("reused",)] == sum(calls.values())

    def test_unequal_sockets_reuse_nothing(self):
        task = SweepTask.placement(RAYTRACE, (3, 5), UNDERVOLT)
        counts = self._count(Observability(enabled=True), task, (STATIC, UNDERVOLT))
        assert set(counts) == {("solved",)}

    def test_disabled_handle_counts_nothing(self):
        task = SweepTask.placement(RAYTRACE, (2, 2), UNDERVOLT)
        assert self._count(Observability(enabled=False), task, (UNDERVOLT,)) is None


# ----------------------------------------------------------------------
# Under a fault injector
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestUnderAnInjector:
    """An installed injector's hooks count per call and target single
    rails, so a guarded operate opens no memo: every socket iterates,
    exactly as on the per-socket path."""

    @pytest.mark.parametrize("mode", (UNDERVOLT, OVERCLOCK), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "spec",
        [
            CpmNoiseFault(socket_id=0, amplitude_bits=4),
            VrmDroopFault(socket_id=1, depth_volts=0.015),
            LoadlineExcursionFault(socket_id=0, factor=1.7),
        ],
        ids=["cpm_noise", "vrm_droop_rail_1", "loadline_excursion"],
    )
    def test_nothing_is_reused(self, iterations, spec, mode):
        task = SweepTask.placement(RAYTRACE, (4, 4), mode)
        plan = FaultPlan(specs=(spec,))
        with no_reuse(), injected(plan) as injector:
            reference = _settle(CONFIG, 7, task, (STATIC, mode, mode))
            reference_counts = dict(injector.counts)
        reference_iterations = dict(iterations)
        iterations.clear()
        obs = Observability(enabled=True)
        previous = install(obs)
        try:
            with injected(plan) as injector:
                faulted = _settle(CONFIG, 7, task, (STATIC, mode, mode))
                counts = dict(injector.counts)
        finally:
            install(previous)
        assert faulted == reference
        assert counts == reference_counts
        assert dict(iterations) == reference_iterations
        solves = obs.metrics.get("socket_solves_total")
        assert [labels for labels, _ in solves.children()] == [("solved",)]
