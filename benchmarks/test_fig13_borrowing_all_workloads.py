"""Fig. 13 — borrowing vs consolidation across all scalable workloads.

At eight active cores loadline borrowing's improvement over static stays
high and flat where consolidation's decays; the paper's values and bands
are the ``fig13.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig13_borrowing_all_workloads(benchmark, report, claim_figures):
    series = run_once(benchmark, claim_figures.__getitem__, "fig13")

    report.append("")
    report.append("Fig. 13 — power improvement (%) vs static guardband, all workloads")
    report.append(
        f"{'cores':>5} {'baseline avg':>13} {'borrowing avg':>14}"
    )
    for i, n in enumerate(series.core_counts):
        report.append(
            f"{n:>5} {series.average(i, 'baseline'):>13.1f} "
            f"{series.average(i, 'borrowing'):>14.1f}"
        )
    check_claims_of(report, claim_figures, "fig13")
