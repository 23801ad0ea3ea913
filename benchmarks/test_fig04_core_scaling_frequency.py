"""Fig. 4 — frequency and execution time vs cores (lu_cb, overclocking).

The frequency boost and the speedup fall with active cores; the paper's
values and bands are the ``fig4.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig04_core_scaling_frequency(benchmark, report, claim_figures):
    series = run_once(benchmark, claim_figures.__getitem__, "fig4")

    report.append("")
    report.append("Fig. 4 — lu_cb frequency/time vs active cores (overclock mode)")
    report.append(
        f"{'cores':>5} {'freq MHz':>9} {'boost %':>8} {'time s':>8} {'speedup %':>9}"
    )
    for i, n in enumerate(series.core_counts):
        report.append(
            f"{n:>5} {series.adaptive_frequency[i]/1e6:>9.0f} "
            f"{series.frequency_boost_percent(i):>8.1f} "
            f"{series.adaptive_time[i]:>8.1f} {series.speedup_percent(i):>9.1f}"
        )
    check_claims_of(report, claim_figures, "fig4")
