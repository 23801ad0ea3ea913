"""Every paper figure: rebuild it, print its table and judge its claims.

One case per entry of ``repro.analysis.figures.FIGURES``.  Each case
times the figure's build once, appends its title and text table to the
session report, then appends and asserts the verdicts of the claims that
read it (``repro.analysis.claims``).
"""

import pytest
from conftest import check_claims_of, run_once

from repro.analysis.figures import FIGURES, text_table


@pytest.mark.parametrize("key", list(FIGURES))
def test_figure(benchmark, report, claim_figures, key):
    figure = FIGURES[key]
    result = run_once(benchmark, claim_figures.__getitem__, key)

    report.append("")
    report.append(figure.title)
    report.extend(text_table(*figure.table(result)).splitlines())
    check_claims_of(report, claim_figures, key)
