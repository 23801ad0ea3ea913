"""Aging model and its platform integration."""

import pytest

from repro.api import measure
from repro.chip.aging import AgingModel, aged_chip_config, aged_server_config
from repro.config import ChipConfig, ServerConfig
from repro.errors import ConfigError
from repro.guardband import GuardbandMode
from repro.sim.run import build_server


@pytest.fixture
def model():
    return AgingModel()


class TestAgingModel:
    def test_fresh_silicon_no_shift(self, model):
        assert model.shift(0.0) == 0.0

    def test_end_of_life_reaches_provisioned_shift(self, model):
        assert model.shift(10.0) == pytest.approx(model.end_of_life_shift)

    def test_shift_saturates_past_lifetime(self, model):
        assert model.shift(20.0) == pytest.approx(model.end_of_life_shift)

    def test_sublinear_early_drift(self, model):
        """Half the lifetime consumes far more than half... of nothing —
        the power law front-loads the drift."""
        assert model.shift(1.0) > model.end_of_life_shift * 0.4

    def test_shift_monotone(self, model):
        shifts = [model.shift(t) for t in (0, 1, 3, 5, 10)]
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))

    def test_headroom_complements_shift(self, model):
        for years in (0.0, 2.0, 10.0):
            assert model.remaining_headroom(years) == pytest.approx(
                model.end_of_life_shift - model.shift(years)
            )

    def test_rejects_negative_years(self, model):
        with pytest.raises(ConfigError):
            model.shift(-1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            AgingModel(end_of_life_shift=-0.01)
        with pytest.raises(ConfigError):
            AgingModel(lifetime_years=0.0)
        with pytest.raises(ConfigError):
            AgingModel(exponent=0.0)


class TestAgedChipConfig:
    def test_wall_rises_with_age(self, model):
        base = ChipConfig()
        aged = aged_chip_config(base, model, years=5.0)
        assert aged.vmin(4.2e9) == pytest.approx(
            base.vmin(4.2e9) + model.shift(5.0)
        )

    def test_other_fields_untouched(self, model):
        base = ChipConfig()
        aged = aged_chip_config(base, model, years=5.0)
        assert aged.core_ceff == base.core_ceff
        assert aged.f_nominal == base.f_nominal


class TestAgedServerConfig:
    def test_static_rail_fixed_over_lifetime(self):
        base = ServerConfig()
        model = AgingModel()
        for years in (0.0, 3.0, 10.0):
            aged = aged_server_config(base, model, years)
            assert aged.static_vdd == pytest.approx(base.static_vdd)

    def test_guardband_shrinks_by_shift(self):
        base = ServerConfig()
        model = AgingModel()
        aged = aged_server_config(base, model, 10.0)
        assert aged.guardband.static_guardband == pytest.approx(
            base.guardband.static_guardband - model.end_of_life_shift
        )

    def test_mis_provisioned_design_rejected(self):
        base = ServerConfig()
        model = AgingModel(end_of_life_shift=0.300)
        with pytest.raises(ConfigError):
            aged_server_config(base, model, 10.0)


class TestLifetimeBehavior:
    def _saving_at(self, years: float) -> float:
        model = AgingModel()
        config = aged_server_config(ServerConfig(), model, years)
        server = build_server(config)
        result = measure(
            "raytrace", n_threads=2, mode=GuardbandMode.UNDERVOLT, server=server
        )
        s0s = result.static.point.socket_point(0)
        s0a = result.adaptive.point.socket_point(0)
        return 1 - s0a.chip_power / s0s.chip_power

    def test_adaptive_benefit_shrinks_with_age(self):
        fresh = self._saving_at(0.0)
        old = self._saving_at(10.0)
        assert old < fresh

    def test_aged_machine_still_benefits(self):
        """Even at end of life, the non-aging guardband slices (droop,
        loadline provisioning) remain harvestable."""
        assert self._saving_at(10.0) > 0.05
