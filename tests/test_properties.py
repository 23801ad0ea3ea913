"""Property-based tests (hypothesis) on the core physical invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.chip.cpm import CriticalPathMonitor
from repro.chip.power import PowerModel
from repro.chip.timing import TimingModel
from repro.config import ChipConfig, DidtConfig, PdnConfig, ServerConfig
from repro.floorplan import Floorplan
from repro.guardband import GuardbandMode
from repro.guardband.undervolt import UndervoltPolicy
from repro.pdn import DidtNoiseModel, IrDropNetwork
from repro.pdn.backends import backend_names
from repro.pdn.decomposition import DropDecomposer
from repro.sim.run import build_server
from repro.sim.server import Power720Server
from repro.workloads.scaling import RuntimeModel, SocketShare
from repro.workloads import get_profile, profile_names

CONFIG = ChipConfig()
TIMING = TimingModel(CONFIG)
POWER = PowerModel(CONFIG)

voltages = st.floats(min_value=0.8, max_value=1.35)
frequencies = st.floats(min_value=2.8e9, max_value=4.66e9)
activities = st.floats(min_value=0.0, max_value=1.5)
core_counts = st.integers(min_value=0, max_value=8)
currents = st.lists(
    st.floats(min_value=0.0, max_value=20.0), min_size=8, max_size=8
)


class TestTimingProperties:
    @given(voltage=voltages, frequency=frequencies)
    def test_margin_plus_vmin_is_voltage(self, voltage, frequency):
        margin = TIMING.margin(voltage, frequency)
        assert margin + TIMING.vmin(frequency) == np.float64(voltage)

    @given(voltage=voltages, margin=st.floats(min_value=0.0, max_value=0.2))
    def test_frequency_for_margin_round_trips(self, voltage, margin):
        frequency = TIMING.frequency_for_margin(voltage, margin)
        assert abs(TIMING.margin(voltage, frequency) - margin) < 1e-9

    @given(frequency=frequencies)
    def test_quantize_never_raises_frequency(self, frequency):
        assert TIMING.quantize_frequency(frequency) <= frequency

    @given(frequency=st.floats(min_value=1e8, max_value=1e10))
    def test_clamp_always_in_range(self, frequency):
        clamped = TIMING.clamp_frequency(frequency)
        assert CONFIG.f_min <= clamped <= CONFIG.f_ceiling


class TestCpmProperties:
    @given(
        margin_a=st.floats(min_value=-0.1, max_value=0.3),
        margin_b=st.floats(min_value=-0.1, max_value=0.3),
        frequency=frequencies,
    )
    def test_code_monotone_in_margin(self, margin_a, margin_b, frequency):
        cpm = CriticalPathMonitor(CONFIG)
        if margin_a <= margin_b:
            assert cpm.read(margin_a, frequency) <= cpm.read(margin_b, frequency)

    @given(margin=st.floats(min_value=-0.5, max_value=0.5), frequency=frequencies)
    def test_code_always_in_detector_range(self, margin, frequency):
        cpm = CriticalPathMonitor(CONFIG)
        assert 0 <= cpm.read(margin, frequency) <= CONFIG.cpm_code_max


class TestPowerProperties:
    @given(activity=activities, voltage=voltages, frequency=frequencies)
    def test_dynamic_power_nonnegative(self, activity, voltage, frequency):
        assert POWER.core_dynamic(activity, voltage, frequency) >= 0

    @given(
        voltage_low=voltages,
        voltage_high=voltages,
        frequency=frequencies,
        activity=st.floats(min_value=0.1, max_value=1.2),
    )
    def test_power_monotone_in_voltage(
        self, voltage_low, voltage_high, frequency, activity
    ):
        if voltage_low > voltage_high:
            voltage_low, voltage_high = voltage_high, voltage_low
        p_low = POWER.core_dynamic(activity, voltage_low, frequency)
        p_high = POWER.core_dynamic(activity, voltage_high, frequency)
        assert p_low <= p_high

    @given(voltage=voltages, temperature=st.floats(min_value=20, max_value=90))
    def test_gated_leakage_below_ungated(self, voltage, temperature):
        gated = POWER.core_leakage(voltage, temperature, True)
        ungated = POWER.core_leakage(voltage, temperature, False)
        assert 0 <= gated < ungated


class TestPdnProperties:
    @given(core_currents=currents)
    def test_ir_drops_nonnegative(self, core_currents):
        network = IrDropNetwork(PdnConfig(), Floorplan(8))
        assert all(d >= 0 for d in network.core_drops(core_currents))

    @given(core_currents=currents, extra=st.integers(min_value=0, max_value=7))
    def test_adding_current_never_lowers_any_drop(self, core_currents, extra):
        network = IrDropNetwork(PdnConfig(), Floorplan(8))
        base = network.core_drops(core_currents)
        boosted = list(core_currents)
        boosted[extra] += 5.0
        more = network.core_drops(boosted)
        assert all(m >= b for m, b in zip(more, base))

    @given(n=core_counts)
    def test_droop_at_least_ripple_trend(self, n):
        noise = DidtNoiseModel(DidtConfig())
        assert noise.worst_droop(n) >= 0
        assert noise.typical_ripple(n) >= 0

    @given(
        current=st.floats(min_value=0, max_value=150),
        sample=st.floats(min_value=0, max_value=0.15),
        extra=st.floats(min_value=0, max_value=0.08),
    )
    def test_decomposition_components_nonnegative(self, current, sample, extra):
        decomposer = DropDecomposer(PdnConfig())
        result = decomposer.decompose(current, sample, sample + extra)
        assert result.loadline >= 0
        assert result.ir_drop >= 0
        assert result.typical_didt >= 0
        assert result.worst_didt >= 0


@pytest.mark.slow
class TestSettledPassiveDrop:
    """At settled points, the passive drop the busiest core sees (loadline
    + shared IR + the worst local IR) never falls as the socket draws more
    current.  ``TestPdnProperties`` checks the IR network alone; this is
    the settled whole, consolidated 1–8 threads of every profile."""

    @pytest.mark.parametrize("mode", tuple(GuardbandMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("backend", backend_names())
    def test_monotone_in_chip_current(self, backend, mode):
        config = ServerConfig(pdn_backend=backend)
        for name in profile_names():
            settled = []
            for n_threads in range(1, config.chip.n_cores + 1):
                server = build_server(config)
                server.place(0, get_profile(name), n_threads)
                solution = server.operate(mode).socket_point(0).solution
                drops = solution.drops
                passive = drops.loadline + drops.ir_shared + max(drops.ir_local)
                settled.append((solution.chip_current, passive, n_threads))
            settled.sort()
            for low, high in zip(settled, settled[1:]):
                assert high[1] >= low[1], (name, low, high)


class TestRuntimeProperties:
    @given(
        name=st.sampled_from(profile_names()),
        threads=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_execution_time_positive(self, name, threads):
        runtime = RuntimeModel()
        profile = get_profile(name)
        time = runtime.execution_time(
            profile, SocketShare.consolidated(threads), 4.2e9, 4.2e9
        )
        assert time > 0

    @given(
        name=st.sampled_from(profile_names()),
        threads=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60)
    def test_contention_never_below_one(self, name, threads):
        runtime = RuntimeModel()
        profile = get_profile(name)
        for share in (SocketShare.consolidated(threads), SocketShare.balanced(threads)):
            assert runtime.contention_factor(profile, share) >= 1.0
            assert runtime.sharing_factor(profile, share) >= 1.0

    @given(
        name=st.sampled_from(profile_names()),
        threads=st.integers(min_value=1, max_value=32),
        tpc=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60)
    def test_effective_activity_bounded(self, name, threads, tpc):
        runtime = RuntimeModel()
        profile = get_profile(name)
        share = SocketShare.consolidated(threads)
        activity = runtime.effective_activity(profile, share, tpc)
        assert 0 < activity <= profile.activity


class TestVrmProperties:
    @given(voltage=st.floats(min_value=0.5, max_value=1.5))
    def test_quantize_never_lowers_and_stays_close(self, voltage):
        from repro.config import PdnConfig
        from repro.pdn import VoltageRegulatorModule

        vrm = VoltageRegulatorModule(PdnConfig())
        quantized = vrm.quantize(voltage)
        assert quantized >= voltage - 1e-9
        assert quantized - voltage < vrm.step + 1e-9

    @given(steps=st.integers(min_value=0, max_value=60))
    def test_grid_points_are_fixed_points(self, steps):
        """Walking down the grid never bounces a step back up (the
        regression the 1e-9 quantizer slack exists for).  The comparison
        allows the one-ulp drift of repeated float subtraction."""
        from repro.config import PdnConfig
        from repro.pdn import VoltageRegulatorModule

        vrm = VoltageRegulatorModule(PdnConfig())
        value = 1.2375 - steps * vrm.step
        assert abs(vrm.quantize(value) - value) < vrm.step * 1e-6


class TestDvfsProperties:
    @given(frequency=st.floats(min_value=2.8e9, max_value=4.2e9))
    def test_point_for_frequency_is_sufficient_and_tight(self, frequency):
        from repro.chip.dvfs import DvfsTable
        from repro.config import GuardbandConfig

        table = DvfsTable(CONFIG, GuardbandConfig())
        point = table.point_for_frequency(frequency)
        assert point.frequency >= frequency - 1e-3
        if point.index > 0:
            assert table[point.index - 1].frequency < frequency

    @given(budget=st.floats(min_value=1.0, max_value=1.3))
    def test_voltage_budget_result_fits(self, budget):
        from repro.chip.dvfs import DvfsTable
        from repro.config import GuardbandConfig
        from repro.errors import ConfigError

        table = DvfsTable(CONFIG, GuardbandConfig())
        try:
            point = table.point_for_voltage_budget(budget)
        except ConfigError:
            assert budget < table.pmin.voltage
            return
        assert point.voltage <= budget + 1e-9
        if point.index + 1 < len(table):
            assert table[point.index + 1].voltage > budget


class TestUndervoltSettleProperties:
    """Every undervolt settle is droop-safe and tight, across die seeds,
    both PDN backends and aged silicon."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        die_seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(backend_names()),
        age_years=st.none() | st.floats(min_value=0.5, max_value=10.0),
        profile=st.sampled_from(profile_names()),
        n_threads=st.integers(min_value=0, max_value=8),
        f_target=st.none() | st.floats(min_value=3.0e9, max_value=4.4e9),
    )
    def test_setpoint_within_rail_and_one_step_of_limit(
        self, die_seed, backend, age_years, profile, n_threads, f_target
    ):
        config = ServerConfig(pdn_backend=backend)
        if age_years is not None:
            config = aged_server_config(config, AgingModel(), age_years)
        server = Power720Server(config=config, seed=die_seed)
        if n_threads:
            server.place(0, get_profile(profile), n_threads)
        socket = server.sockets[0]
        policy = UndervoltPolicy(config)
        result = policy.converge(socket, f_target)

        static_rail = socket.path.vrm.quantize(config.static_vdd)
        step = socket.path.vrm.step
        target = config.chip.f_nominal if f_target is None else f_target
        excess = policy._worst_excess(socket, result.solution, target)
        assert result.setpoint <= static_rail
        assert result.undervolt >= 0
        assert excess < step
        if result.setpoint != static_rail:
            assert excess >= 0
