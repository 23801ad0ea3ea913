"""Fig. 16 — the MIPS-based adaptive-frequency predictor.

One linear model over all stressed workload mixes predicts the settled
frequency; the paper's values and bands are the ``fig16.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig16_mips_predictor(benchmark, report, claim_figures):
    result = run_once(benchmark, claim_figures.__getitem__, "fig16")

    samples = sorted(result.samples, key=lambda s: s.chip_mips)
    report.append("")
    report.append("Fig. 16 — chip MIPS vs adaptive frequency (eight busy cores)")
    for s in (samples[0], samples[len(samples) // 2], samples[-1]):
        predicted = result.predictor.predict(s.chip_mips)
        report.append(
            f"  {s.workload:>15}: {s.chip_mips:>8.0f} MIPS -> measured "
            f"{s.frequency/1e6:.0f} MHz, predicted {predicted/1e6:.0f} MHz"
        )
    report.append(
        f"linear fit over {len(result.samples)} workloads "
        f"(slope {result.predictor.slope:.0f} Hz/MIPS)"
    )
    check_claims_of(report, claim_figures, "fig16")
