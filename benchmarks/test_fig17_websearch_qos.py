"""Fig. 17 / Sec. 5.2.2 — WebSearch QoS under adaptive mapping.

Blind colocation with the heavy co-runner violates the p90 target most
often, the light one least.  The adaptive-mapping scheduler detects the
violation, consults the MIPS predictor and swaps toward the light class,
improving query tail latency.  The paper's values and bands are the
``fig17.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig17_websearch_qos(benchmark, report, claim_figures):
    result = run_once(benchmark, claim_figures.__getitem__, "fig17")

    report.append("")
    report.append("Fig. 17 — WebSearch p90 QoS vs co-runner class")
    for level in ("light", "medium", "heavy"):
        p90s, cumulative = result.cdfs[level]
        median = p90s[len(p90s) // 2]
        report.append(
            f"  {level:>6}: core freq {result.frequencies[level]/1e6:.0f} MHz, "
            f"violation rate {result.violation_rates[level]*100:.1f}%, "
            f"median p90 {median*1000:.0f} ms"
        )
    report.append("adaptive mapping trace:")
    for d in result.decisions:
        action = f"swap -> {d.next_corunner}" if d.swapped else "keep"
        report.append(
            f"  quantum: {d.corunner} viol={d.violation_rate*100:.0f}% "
            f"f={d.frequency/1e6:.0f} MHz  [{action}]"
        )
    check_claims_of(report, claim_figures, "fig17")
