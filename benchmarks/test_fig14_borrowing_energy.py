"""Fig. 14 — borrowing's power & energy improvement, full catalog, 8 cores.

Communication-heavy lu_ncb/radiosity lose performance and regress on
energy; bandwidth-bound radix/zeusmp/lbm/fft/GemsFDTD gain energy from
memory-contention relief (sometimes at higher power).  The paper's values
and bands are the ``fig14.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig14_borrowing_energy(benchmark, report, claim_figures):
    result = run_once(benchmark, claim_figures.__getitem__, "fig14")

    report.append("")
    report.append("Fig. 14 — loadline borrowing at eight busy cores (full catalog)")
    report.append(
        f"{'workload':>15} {'P base W':>9} {'P borrow W':>10} {'dP %':>6} "
        f"{'dE %':>7} {'perf %':>7}"
    )
    shown = list(result.rows[:4]) + list(result.rows[-5:])
    for r in shown:
        report.append(
            f"{r.workload:>15} {r.baseline_power:>9.1f} {r.borrowing_power:>10.1f} "
            f"{r.power_improvement_percent:>6.1f} {r.energy_improvement_percent:>7.1f} "
            f"{r.performance_change_percent:>7.1f}"
        )
    check_claims_of(report, claim_figures, "fig14")
