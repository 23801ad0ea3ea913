"""Fig. 5 — workload heterogeneity of the improvements across core counts.

Regenerates the five workloads Fig. 5 draws; the Sec. 3.3 averages the
paper quotes cover all 17 scalable workloads, which the
``fig5_undervolt.*`` and ``fig5_overclock.*`` claims measure.
"""

import pytest
from conftest import check_claims_of, run_once

from repro.analysis import figures
from repro.guardband import GuardbandMode


@pytest.mark.parametrize(
    "mode,claims",
    [
        (GuardbandMode.UNDERVOLT, "fig5_undervolt"),
        (GuardbandMode.OVERCLOCK, "fig5_overclock"),
    ],
    ids=["power_saving", "frequency_boost"],
)
def test_fig05_workload_heterogeneity(
    benchmark, report, claim_figures, mode, claims
):
    series = run_once(benchmark, figures.fig5_workload_heterogeneity, mode)

    label = "power saving" if mode is GuardbandMode.UNDERVOLT else "frequency boost"
    report.append("")
    report.append(f"Fig. 5 — {label} (%) vs active cores")
    header = f"{'workload':>12} " + " ".join(f"{n:>6}" for n in series.core_counts)
    report.append(header)
    for workload, values in series.improvements.items():
        row = f"{workload:>12} " + " ".join(f"{v:>6.1f}" for v in values)
        report.append(row)
    report.append(
        f"{'average':>12} "
        + " ".join(f"{series.average(i):>6.1f}" for i in range(len(series.core_counts)))
    )
    check_claims_of(report, claim_figures, claims)

    assert series.spread(7) > series.spread(0)
