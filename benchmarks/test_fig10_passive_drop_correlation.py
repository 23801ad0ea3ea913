"""Fig. 10 — passive drop vs power and the two optimization modes.

A strong linear power -> passive-drop relation over 44 workloads at eight
cores; high-drop workloads get less undervolting, fewer energy savings,
and less frequency boost.  The paper's values and bands are the
``fig10.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig10_passive_drop_correlation(benchmark, report, claim_figures):
    result = run_once(benchmark, claim_figures.__getitem__, "fig10")

    rows = sorted(result.rows, key=lambda r: r.chip_power)
    report.append("")
    report.append("Fig. 10 — passive drop correlations at eight active cores")
    report.append(
        f"{'workload':>15} {'power W':>8} {'drop mV':>8} {'uv mV':>6} "
        f"{'Vdd mV':>7} {'Esave %':>8} {'boost %':>8}"
    )
    for r in (rows[0], rows[len(rows) // 2], rows[-1]):
        report.append(
            f"{r.workload:>15} {r.chip_power:>8.1f} {r.passive_drop_mv:>8.1f} "
            f"{r.undervolt_mv:>6.1f} {r.vdd_selected_mv:>7.0f} "
            f"{r.energy_saving_percent:>8.1f} {r.frequency_increase_percent:>8.1f}"
        )
    drops = result.column("passive_drop_mv")
    uv = result.column("undervolt_mv")
    vdd = result.column("vdd_selected_mv")
    power = result.column("chip_power")
    report.append(
        f"drop {min(drops):.0f}-{max(drops):.0f} mV over power "
        f"{min(power):.0f}-{max(power):.0f} W "
        f"(r^2={result.power_vs_drop.r_squared:.3f}); undervolt "
        f"{min(uv):.0f}-{max(uv):.0f} mV; Vdd {min(vdd):.0f}-{max(vdd):.0f} mV"
    )
    check_claims_of(report, claim_figures, "fig10")
