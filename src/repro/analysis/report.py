"""Markdown report generator: the whole evaluation in one document.

:func:`generate_report` walks :data:`repro.analysis.figures.FIGURES`: for
each figure a heading, its table, then its claim rows (paper | band |
measured | verdict) from :mod:`repro.analysis.claims` — the programmatic
sibling of the hand-annotated ``EXPERIMENTS.md``.  Exposed on the CLI as
``python -m repro report`` (printed to stdout; redirect to keep it).

Figures are built fresh for the given configuration, so the report always
reflects the current configuration and code — useful after modifying
``repro.config`` defaults.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..config import ServerConfig
from .claims import claims_of
from .figures import FIGURES, FigureSet, markdown_table


def generate_report(
    config: Optional[ServerConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> str:
    """Run the full evaluation and render the markdown report."""
    figure_set = FigureSet(config, progress)
    lines: List[str] = [
        "# Evaluation report — simulated POWER7+ adaptive guardbanding",
        "",
        "Generated by `repro.analysis.report.generate_report`; every series",
        "below was measured fresh on the current configuration.",
    ]
    for key, figure in FIGURES.items():
        verdicts = [claim.check(figure_set) for claim in claims_of(key)]
        rows = [
            (v.claim.quantity, v.claim.paper, v.claim.band, f"{v.measured:.2f}",
             "ok" if v.passed else "**FAIL**")
            for v in verdicts
        ]
        lines += [
            "", f"## {figure.title}", "",
            markdown_table(*figure.table(figure_set[key])), "",
            markdown_table(("claim", "paper", "band", "measured", "verdict"), rows),
        ]
        for v in verdicts:
            if v.claim.deviation:
                lines += ["", f"Deviation ({v.claim.quantity}): {v.claim.deviation}"]
    lines.append("")
    return "\n".join(lines)
