"""Fig. 3 — chip power and EDP vs active cores (raytrace, undervolting).

The power saving decays with active cores while static chip power rises;
the paper's values and bands are the ``fig3.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig03_core_scaling_power(benchmark, report, claim_figures):
    series = run_once(benchmark, claim_figures.__getitem__, "fig3")

    report.append("")
    report.append("Fig. 3 — raytrace power/EDP vs active cores (undervolt mode)")
    report.append(
        f"{'cores':>5} {'static W':>9} {'adaptive W':>10} {'saving %':>9} "
        f"{'EDP gain %':>10}"
    )
    for i, n in enumerate(series.core_counts):
        edp_gain = (1 - series.adaptive_edp[i] / series.static_edp[i]) * 100
        report.append(
            f"{n:>5} {series.static_power[i]:>9.1f} {series.adaptive_power[i]:>10.1f} "
            f"{series.power_saving_percent(i):>9.1f} {edp_gain:>10.1f}"
        )
    check_claims_of(report, claim_figures, "fig3")
