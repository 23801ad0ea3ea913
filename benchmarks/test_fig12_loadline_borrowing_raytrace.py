"""Fig. 12 — loadline borrowing's undervolt and power scaling (raytrace).

Borrowing undervolts deeper at every core count (idle power at one core,
distributed dynamic power at eight), and its chip-power gain grows with
active cores.  The paper's values and bands are the ``fig12.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig12_loadline_borrowing_raytrace(benchmark, report, claim_figures):
    series = run_once(benchmark, claim_figures.__getitem__, "fig12")

    report.append("")
    report.append("Fig. 12 — raytrace under consolidation vs loadline borrowing")
    report.append(
        f"{'cores':>5} {'uv base mV':>10} {'uv borrow mV':>12} "
        f"{'P base W':>9} {'P borrow W':>10} {'gain %':>7}"
    )
    for i, n in enumerate(series.core_counts):
        report.append(
            f"{n:>5} {series.baseline_undervolt_mv[i]:>10.1f} "
            f"{series.borrowing_undervolt_mv[i]:>12.1f} "
            f"{series.baseline_power[i]:>9.1f} {series.borrowing_power[i]:>10.1f} "
            f"{series.borrowing_gain_percent(i):>7.1f}"
        )
    check_claims_of(report, claim_figures, "fig12")
