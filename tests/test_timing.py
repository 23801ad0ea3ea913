"""Timing model: the Vmin(f) wall, margins, and the servo inverse."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chip.timing import TimingModel
from repro.config import ChipConfig

#: DPLL steps that are not a whole number of hertz.
ODD_STEPS = {"1/36_GHz": 1e9 / 36, "1/3_MHz": 1e6 / 3}

FREQUENCIES = st.floats(min_value=1e9, max_value=6e9)


def _timing(f_step=None):
    config = ChipConfig()
    if f_step is not None:
        config = dataclasses.replace(config, f_step=f_step)
    return TimingModel(config)


def _grid_points(f_step):
    return st.integers(int(1e9 / f_step), int(6e9 / f_step)).map(
        lambda k: k * f_step
    )


@pytest.fixture
def timing(chip_config):
    return TimingModel(chip_config)


class TestVmin:
    def test_vmin_linear_in_frequency(self, timing, chip_config):
        delta = timing.vmin(4.0e9) - timing.vmin(3.0e9)
        assert delta == pytest.approx(chip_config.vmin_slope * 1e9)

    def test_rejects_nonpositive_frequency(self, timing):
        with pytest.raises(ValueError):
            timing.vmin(0.0)


class TestMargin:
    def test_positive_above_wall(self, timing):
        assert timing.margin(1.2, 4.2e9) > 0

    def test_negative_below_wall(self, timing):
        assert timing.margin(1.0, 4.2e9) < 0

    def test_zero_exactly_on_wall(self, timing):
        v = timing.vmin(4.2e9)
        assert timing.margin(v, 4.2e9) == pytest.approx(0.0)

    def test_meets_timing_consistent_with_margin(self, timing):
        assert timing.meets_timing(1.2, 4.2e9)
        assert not timing.meets_timing(1.0, 4.2e9)


class TestFrequencyForMargin:
    def test_inverts_margin(self, timing):
        frequency = timing.frequency_for_margin(1.2, 0.042)
        assert timing.margin(1.2, frequency) == pytest.approx(0.042)

    def test_more_margin_means_lower_frequency(self, timing):
        f_small = timing.frequency_for_margin(1.2, 0.020)
        f_large = timing.frequency_for_margin(1.2, 0.080)
        assert f_large < f_small

    def test_higher_voltage_means_higher_frequency(self, timing):
        assert timing.frequency_for_margin(1.25, 0.042) > timing.frequency_for_margin(
            1.15, 0.042
        )


class TestQuantization:
    def test_quantize_rounds_down(self, timing, chip_config):
        raw = 4.2e9 + chip_config.f_step * 0.9
        quantized = timing.quantize_frequency(raw)
        assert quantized <= raw
        assert quantized == pytest.approx(4.2e9)

    def test_quantized_on_grid(self, timing, chip_config):
        quantized = timing.quantize_frequency(4.333e9)
        steps = quantized / chip_config.f_step
        assert steps == pytest.approx(round(steps))

    @pytest.mark.parametrize("name", sorted(ODD_STEPS))
    @given(data=st.data())
    def test_idempotent_on_an_odd_grid(self, name, data):
        f_step = ODD_STEPS[name]
        frequency = data.draw(FREQUENCIES | _grid_points(f_step))
        timing = _timing(f_step)
        once = timing.quantize_frequency(frequency)
        assert timing.quantize_frequency(once) == once

    @pytest.mark.parametrize("name", sorted(ODD_STEPS))
    @given(data=st.data())
    def test_a_grid_point_is_kept(self, name, data):
        f_step = ODD_STEPS[name]
        point = data.draw(_grid_points(f_step))
        assert _timing(f_step).quantize_frequency(point) == point

    def test_the_point_112_steps_up_a_1_36_ghz_grid_is_kept(self):
        # int(f / f_step) snaps this point to step 111.
        f_step = ODD_STEPS["1/36_GHz"]
        point = 112 * f_step
        assert int(point / f_step) == 111
        assert _timing(f_step).quantize_frequency(point) == point

    @given(frequency=FREQUENCIES | _grid_points(ChipConfig().f_step))
    def test_the_default_grid_keeps_the_floor_formula(self, frequency):
        f_step = ChipConfig().f_step
        assert _timing().quantize_frequency(frequency) == (
            int(frequency / f_step) * f_step
        )

    def test_clamp_to_floor(self, timing, chip_config):
        assert timing.clamp_frequency(1e9) == chip_config.f_min

    def test_clamp_to_ceiling(self, timing, chip_config):
        assert timing.clamp_frequency(9e9) == chip_config.f_ceiling

    def test_clamp_passthrough_inside_range(self, timing):
        assert timing.clamp_frequency(4.0e9) == pytest.approx(4.0e9)
