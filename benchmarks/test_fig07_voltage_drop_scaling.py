"""Fig. 7 — per-core on-chip voltage drop as cores activate in succession.

The drop grows with active cores; idle cores see the chip-wide (global)
component, and each core's drop jumps when that core itself is activated
(localized component).  The paper's values and bands are the ``fig7.*``
claims.
"""

from conftest import check_claims_of, run_once


def test_fig07_voltage_drop_scaling(benchmark, report, claim_figures):
    out = run_once(benchmark, claim_figures.__getitem__, "fig7")

    report.append("")
    report.append("Fig. 7 — per-core voltage drop (%) vs active cores")
    for workload, series in out.items():
        core0 = series.drops_percent[0]
        core7 = series.drops_percent[7]
        report.append(
            f"{workload:>12}: core0 "
            + "->".join(f"{v:.1f}" for v in (core0[0], core0[3], core0[7]))
            + f"   core7 "
            + "->".join(f"{v:.1f}" for v in (core7[0], core7[3], core7[7]))
        )
    check_claims_of(report, claim_figures, "fig7")
