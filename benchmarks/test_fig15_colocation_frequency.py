"""Fig. 15 — colocation's effect on the critical workload's frequency.

Packing lu_cb threads alongside coremark drags its frequency down while
mcf threads raise it — a swing from scheduling decisions alone.  The
paper's values and bands are the ``fig15.*`` claims.
"""

from conftest import check_claims_of, run_once


def test_fig15_colocation_frequency(benchmark, report, claim_figures):
    points = run_once(benchmark, claim_figures.__getitem__, "fig15")

    report.append("")
    report.append("Fig. 15 — coremark frequency across <n_coremark, n_other> mixes")
    for other in ("lu_cb", "mcf"):
        row = [p for p in points if p.other == other]
        row.sort(key=lambda p: p.n_coremark)
        report.append(
            f"  vs {other:>6}: "
            + " ".join(
                f"<{p.n_coremark},{p.n_other}>{p.coremark_frequency/1e6:.0f}"
                for p in row
            )
        )
    check_claims_of(report, claim_figures, "fig15")
