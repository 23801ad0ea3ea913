"""Fig. 6 — CPM output vs on-chip voltage across the DVFS range.

A near-linear mapping with per-core sensitivity spread from process
variation; the paper's values and bands are the ``fig6.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig06_cpm_voltage_mapping(benchmark, report, claim_figures):
    result = run_once(benchmark, claim_figures.__getitem__, "fig6")

    report.append("")
    report.append("Fig. 6 — CPM-to-voltage mapping (AG disabled, idle throttle)")
    nominal = result.frequencies[-1]
    voltages, codes = result.lines[nominal]
    report.append(f"sweep at {nominal/1e6:.0f} MHz:")
    report.append(
        "  "
        + " ".join(f"{v*1000:>6.0f}" for v in voltages[:: max(len(voltages) // 6, 1)])
        + "  (mV)"
    )
    report.append(
        "  "
        + " ".join(f"{c:>6.2f}" for c in codes[:: max(len(codes) // 6, 1)])
        + "  (mean CPM code)"
    )
    report.append(
        "per-core mV/bit: "
        + " ".join(f"{s:.0f}" for s in result.core_sensitivity_mv)
    )
    check_claims_of(report, claim_figures, "fig6")
