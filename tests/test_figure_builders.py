"""Structural tests of the figure builders (shapes, keys, determinism)."""

import pytest

from repro.analysis import figures
from repro.analysis.figures import diurnal_trace
from repro.errors import SchedulingError
from repro.guardband import GuardbandMode


class TestCoreScalingSeries:
    def test_fig3_series_lengths(self):
        series = figures.fig3_core_scaling_power(core_counts=(1, 4, 8))
        assert series.core_counts == (1, 4, 8)
        assert len(series.static_power) == 3
        assert len(series.adaptive_edp) == 3

    def test_fig3_mode_is_undervolt(self):
        series = figures.fig3_core_scaling_power(core_counts=(1,))
        assert series.mode is GuardbandMode.UNDERVOLT

    def test_fig4_mode_is_overclock(self):
        series = figures.fig4_core_scaling_frequency(core_counts=(1,))
        assert series.mode is GuardbandMode.OVERCLOCK

    def test_deterministic_across_builds(self):
        a = figures.fig3_core_scaling_power(core_counts=(2,))
        b = figures.fig3_core_scaling_power(core_counts=(2,))
        assert a.static_power == b.static_power
        assert a.adaptive_power == b.adaptive_power


class TestHeterogeneitySeries:
    def test_fig5_covers_requested_workloads(self):
        series = figures.fig5_workload_heterogeneity(
            GuardbandMode.UNDERVOLT,
            workloads=("raytrace", "radix"),
            core_counts=(1, 8),
        )
        assert set(series.improvements) == {"raytrace", "radix"}
        assert len(series.improvements["radix"]) == 2

    def test_average_and_spread(self):
        series = figures.fig5_workload_heterogeneity(
            GuardbandMode.UNDERVOLT,
            workloads=("raytrace", "radix"),
            core_counts=(1,),
        )
        values = [series.improvements[w][0] for w in ("raytrace", "radix")]
        assert series.average(0) == pytest.approx(sum(values) / 2)
        assert series.spread(0) == pytest.approx(max(values) - min(values))

    @pytest.mark.parametrize(
        "mode", [GuardbandMode.UNDERVOLT, GuardbandMode.OVERCLOCK]
    )
    def test_default_five_workloads_spread_magnifies(self, mode):
        """Fig. 5 draws five workloads; their spread grows from 1 to 8 cores."""
        series = figures.fig5_workload_heterogeneity(mode)
        assert tuple(series.improvements) == figures.FIG5_WORKLOADS
        assert series.spread(7) > series.spread(0)


class TestCpmMapping:
    def test_fig6_lines_per_frequency(self):
        result = figures.fig6_cpm_voltage_mapping(n_frequencies=3, n_voltages=5)
        assert len(result.frequencies) == 3
        assert set(result.lines) == set(result.frequencies)
        voltages, codes = result.lines[result.frequencies[0]]
        assert len(voltages) == 5
        assert len(codes) == 5

    def test_fig6_codes_monotone_in_voltage(self):
        result = figures.fig6_cpm_voltage_mapping(n_frequencies=2, n_voltages=8)
        for voltages, codes in result.lines.values():
            assert all(b >= a - 1e-9 for a, b in zip(codes, codes[1:]))

    def test_fig6_lower_frequency_line_sits_left(self):
        """Same mean code is reached at lower voltage when running slower."""
        result = figures.fig6_cpm_voltage_mapping(n_frequencies=2, n_voltages=8)
        slow_f, fast_f = result.frequencies[0], result.frequencies[-1]
        slow_v, slow_c = result.lines[slow_f]
        fast_v, fast_c = result.lines[fast_f]
        # Compare voltage needed for mean code ~5 on each line.
        import numpy as np

        v_slow = np.interp(5.0, slow_c, slow_v)
        v_fast = np.interp(5.0, fast_c, fast_v)
        assert v_slow < v_fast

    def test_fig6_core_sensitivities_spread(self):
        result = figures.fig6_cpm_voltage_mapping(n_frequencies=2, n_voltages=5)
        assert len(set(round(s, 2) for s in result.core_sensitivity_mv)) > 1


class TestVoltageDropSeries:
    def test_fig7_per_core_coverage(self):
        out = figures.fig7_voltage_drop_scaling(
            workloads=("raytrace",), core_counts=(1, 2)
        )
        series = out["raytrace"]
        assert set(series.drops_percent) == set(range(8))
        assert len(series.drops_percent[0]) == 2


class TestDecomposition:
    def test_fig9_total_helper(self):
        out = figures.fig9_drop_decomposition(
            workloads=("raytrace",), core_counts=(1, 8)
        )
        series = out["raytrace"]
        assert series.total(0) == pytest.approx(
            series.loadline[0]
            + series.ir_drop[0]
            + series.typical_didt[0]
            + series.worst_didt[0]
        )


class TestFig10:
    def test_row_per_workload(self):
        result = figures.fig10_passive_drop_correlation(
            workloads=("raytrace", "mcf", "lu_cb")
        )
        assert [r.workload for r in result.rows] == ["raytrace", "mcf", "lu_cb"]

    def test_column_extraction(self):
        result = figures.fig10_passive_drop_correlation(workloads=("raytrace", "mcf"))
        assert result.column("chip_power") == [
            result.rows[0].chip_power,
            result.rows[1].chip_power,
        ]


class TestSchedulingFigures:
    def test_fig12_improvement_accessors(self):
        series = figures.fig12_borrowing_scaling(core_counts=(1, 8))
        assert series.improvement_percent(1, "borrowing") >= series.improvement_percent(
            1, "baseline"
        ) - 0.5

    def test_fig13_tables_cover_workloads(self):
        series = figures.fig13_borrowing_all_workloads(
            workloads=("raytrace",), core_counts=(1, 8)
        )
        assert set(series.baseline) == {"raytrace"}
        assert set(series.borrowing) == {"raytrace"}

    def test_fig14_rows_sorted_by_energy(self):
        result = figures.fig14_borrowing_energy(
            workloads=("raytrace", "lu_ncb", "lbm")
        )
        improvements = [r.energy_improvement_percent for r in result.rows]
        assert improvements == sorted(improvements)

    def test_fig14_row_lookup(self):
        result = figures.fig14_borrowing_energy(workloads=("raytrace",))
        assert result.row("raytrace").workload == "raytrace"
        with pytest.raises(KeyError):
            result.row("doom")

    def test_fig15_point_grid(self):
        points = figures.fig15_colocation_frequency(others=("mcf",))
        assert len(points) == 8
        assert all(p.n_coremark + p.n_other == 8 for p in points)

    def test_fig16_samples_cover_catalog(self):
        result = figures.fig16_mips_predictor(workloads=("raytrace", "mcf", "lu_cb"))
        assert {s.workload for s in result.samples} == {"raytrace", "mcf", "lu_cb"}
        assert result.predictor.fitted


class TestDiurnalTrace:
    def test_length(self):
        assert len(diurnal_trace(24)) == 24

    def test_bounds(self):
        trace = diurnal_trace(24, low=1, high=8)
        assert min(trace) == 1
        assert max(trace) == 8

    def test_peak_in_the_middle(self):
        trace = diurnal_trace(24, low=1, high=8)
        assert trace.index(max(trace)) in range(8, 16)

    def test_starts_and_ends_low(self):
        trace = diurnal_trace(24, low=2, high=7)
        assert trace[0] == 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(SchedulingError):
            diurnal_trace(24, low=5, high=3)
        with pytest.raises(SchedulingError):
            diurnal_trace(1)

    def test_fig12_weighted_day_saves_energy(self):
        """Borrowing's day, Fig. 12 weighted by the trace, beats
        consolidation's, and no hour of it costs more."""
        series = figures.fig12_borrowing_scaling()
        trace = diurnal_trace(24, low=1, high=8)
        baseline = [series.baseline_power[demand - 1] for demand in trace]
        borrowing = [series.borrowing_power[demand - 1] for demand in trace]
        assert all(b <= a for a, b in zip(baseline, borrowing))
        assert 1.0 - sum(borrowing) / sum(baseline) > 0.01
