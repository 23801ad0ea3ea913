"""Power model: CV²f dynamics, leakage scaling, gating, breakdown sums."""

import numpy as np
import pytest

from repro.chip.power import PowerBreakdown, PowerModel


@pytest.fixture
def model(chip_config):
    return PowerModel(chip_config)


def _uniform_chip(model, activity=1.0, voltage=1.2, frequency=4.2e9, gated=False,
                  temperature=35.0):
    n = model.config.n_cores
    return model.chip_power(
        activities=[activity] * n,
        voltages=[voltage] * n,
        frequencies=[frequency] * n,
        gated=[gated] * n,
        temperature=temperature,
    )


class TestCoreDynamic:
    def test_scales_linearly_with_activity(self, model):
        p1 = model.core_dynamic(0.5, 1.2, 4.2e9)
        p2 = model.core_dynamic(1.0, 1.2, 4.2e9)
        assert p2 == pytest.approx(2 * p1)

    def test_scales_quadratically_with_voltage(self, model):
        p1 = model.core_dynamic(1.0, 1.0, 4.2e9)
        p2 = model.core_dynamic(1.0, 1.2, 4.2e9)
        assert p2 / p1 == pytest.approx(1.44)

    def test_scales_linearly_with_frequency(self, model):
        p1 = model.core_dynamic(1.0, 1.2, 2.1e9)
        p2 = model.core_dynamic(1.0, 1.2, 4.2e9)
        assert p2 == pytest.approx(2 * p1)

    def test_raytrace_class_core_near_10w(self, model):
        """Calibration anchor: Fig. 3a's ~10 W per active core."""
        assert model.core_dynamic(1.0, 1.22, 4.2e9) == pytest.approx(10.3, rel=0.05)

    def test_rejects_negative_activity(self, model):
        with pytest.raises(ValueError):
            model.core_dynamic(-0.1, 1.2, 4.2e9)


class TestCoreLeakage:
    def test_grows_with_voltage(self, model):
        assert model.core_leakage(1.25, 35.0, False) > model.core_leakage(
            1.10, 35.0, False
        )

    def test_cubic_voltage_exponent(self, model):
        p1 = model.core_leakage(1.2, 35.0, False)
        p2 = model.core_leakage(1.08, 35.0, False)
        assert p2 / p1 == pytest.approx(0.9**3, rel=1e-6)

    def test_grows_with_temperature(self, model):
        assert model.core_leakage(1.2, 60.0, False) > model.core_leakage(
            1.2, 30.0, False
        )

    def test_gated_core_keeps_small_residual(self, model, chip_config):
        gated = model.core_leakage(1.2, 35.0, True)
        on = model.core_leakage(1.2, 35.0, False)
        assert gated == pytest.approx(on * chip_config.power_gate_residual)

    def test_nominal_at_reference_point(self, model, chip_config):
        assert model.core_leakage(1.2, chip_config.leakage_temp_ref, False) == (
            pytest.approx(chip_config.core_leakage_nominal)
        )


class TestChipPower:
    def test_breakdown_total_is_sum(self, model):
        bd = _uniform_chip(model)
        expected = (
            sum(bd.core_dynamic)
            + sum(bd.core_leakage)
            + bd.uncore_dynamic
            + bd.uncore_leakage
        )
        assert bd.total == pytest.approx(expected)

    def test_idle_chip_near_60w(self, model, chip_config):
        """Calibration anchor: Fig. 3a's ~60 W idle intercept."""
        bd = _uniform_chip(model, activity=chip_config.idle_activity, voltage=1.22)
        assert 50 < bd.total < 70

    def test_busy_chip_well_above_idle(self, model, chip_config):
        idle = _uniform_chip(model, activity=chip_config.idle_activity)
        busy = _uniform_chip(model, activity=1.0)
        assert busy.total > idle.total + 60

    def test_gated_chip_much_cheaper(self, model):
        on = _uniform_chip(model, activity=0.1)
        gated = _uniform_chip(model, activity=0.1, gated=True)
        assert gated.total < on.total / 4

    def test_gated_cores_have_zero_dynamic(self, model):
        bd = _uniform_chip(model, gated=True)
        assert all(p == 0.0 for p in bd.core_dynamic)

    def test_core_power_accessor(self, model):
        bd = _uniform_chip(model)
        assert bd.core_power(0) == pytest.approx(
            bd.core_dynamic[0] + bd.core_leakage[0]
        )

    def test_uncore_grows_with_active_cores(self, model):
        low = model.uncore_power(1, 1.2, 4.2e9, 35.0)
        high = model.uncore_power(8, 1.2, 4.2e9, 35.0)
        assert high[0] > low[0]

    def test_rejects_mismatched_lengths(self, model):
        with pytest.raises(ValueError):
            model.chip_power(
                activities=[1.0],
                voltages=[1.2] * 8,
                frequencies=[4.2e9] * 8,
                gated=[False] * 8,
                temperature=35.0,
            )


class TestUncoreVoltage:
    """``PreparedPower.uncore_voltage`` is the sequential mean of the
    ungated cores' voltages (Python ``sum``, not numpy's order), or the
    highest voltage when every core is gated."""

    @staticmethod
    def _draws(n=200):
        rng = np.random.default_rng(3)
        return [rng.uniform(0.7, 1.3, 8).tolist() for _ in range(n)]

    def test_all_cores_on(self, model):
        prepared = model.prepare([0.6] * 8, [False] * 8, 60.0)
        for voltages in self._draws():
            assert prepared.uncore_voltage(voltages) == sum(voltages) / 8

    def test_mixed(self, model):
        gated = [False, True, False, False, True, True, False, False]
        prepared = model.prepare([0.6] * 8, gated, 60.0)
        for voltages in self._draws():
            ungated = [v for v, g in zip(voltages, gated) if not g]
            assert prepared.uncore_voltage(voltages) == sum(ungated) / 5

    def test_all_gated(self, model):
        prepared = model.prepare([0.6] * 8, [True] * 8, 60.0)
        for voltages in self._draws(20):
            assert prepared.uncore_voltage(voltages) == max(voltages)

    def test_empty(self, model):
        with pytest.raises(ValueError):
            model.prepare([], [], 60.0).uncore_voltage([])


class TestPowerBreakdownDataclass:
    def test_core_total(self):
        bd = PowerBreakdown(
            core_dynamic=(1.0, 2.0),
            core_leakage=(0.5, 0.5),
            uncore_dynamic=1.0,
            uncore_leakage=2.0,
        )
        assert bd.core_total == pytest.approx(4.0)
        assert bd.total == pytest.approx(7.0)
