"""Fig. 9 — decomposition of on-chip voltage drop into its components.

Passive drop (loadline + IR) dominates and grows ~linearly with active
cores; typical-case di/dt shrinks with core count; worst-case di/dt grows
slightly but stays a small slice of the measured total.  The paper's
values and bands are the ``fig9.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig09_drop_decomposition(benchmark, report, claim_figures):
    out = run_once(benchmark, claim_figures.__getitem__, "fig9")

    report.append("")
    report.append("Fig. 9 — drop decomposition (% of nominal), core 0, n=1 vs n=8")
    report.append(
        f"{'workload':>15} {'LL@1':>6} {'IR@1':>6} {'typ@1':>6} {'wst@1':>6}"
        f" | {'LL@8':>6} {'IR@8':>6} {'typ@8':>6} {'wst@8':>6}"
    )
    for workload, s in out.items():
        report.append(
            f"{workload:>15} {s.loadline[0]:>6.2f} {s.ir_drop[0]:>6.2f} "
            f"{s.typical_didt[0]:>6.2f} {s.worst_didt[0]:>6.2f} | "
            f"{s.loadline[7]:>6.2f} {s.ir_drop[7]:>6.2f} "
            f"{s.typical_didt[7]:>6.2f} {s.worst_didt[7]:>6.2f}"
        )
    check_claims_of(report, claim_figures, "fig9")
