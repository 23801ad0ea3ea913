"""Markdown report generator: the whole evaluation in one document.

:func:`generate_report` builds every figure the claims table reads, renders
each figure's series and then its claim rows (paper | band | measured |
verdict) from :mod:`repro.analysis.claims` — the programmatic sibling of
the hand-annotated ``EXPERIMENTS.md``.  Exposed on the CLI as
``python -m repro report`` (printed to stdout; redirect to keep it).

Figures are built fresh for the given configuration, so the report always
reflects the current configuration and code — useful after modifying
``repro.config`` defaults.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..config import ServerConfig
from .claims import FigureSet, claims_of
from .figures import FIG5_WORKLOADS


def generate_report(
    config: Optional[ServerConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> str:
    """Run the full evaluation and render the markdown report."""
    figure_set = FigureSet(config, progress)
    lines: List[str] = []

    def emit(text: str = "") -> None:
        lines.append(text)

    def claims(*keys: str) -> None:
        verdicts = [claim.check(figure_set) for key in keys for claim in claims_of(key)]
        emit()
        emit("| claim | paper | band | measured | verdict |")
        emit("|---|---|---|---|---|")
        for v in verdicts:
            emit(
                f"| {v.claim.quantity} | {v.claim.paper} | {v.claim.band} "
                f"| {v.measured:.2f} | {'ok' if v.passed else '**FAIL**'} |"
            )
        for v in verdicts:
            if v.claim.deviation:
                emit()
                emit(f"Deviation ({v.claim.quantity}): {v.claim.deviation}")

    emit("# Evaluation report — simulated POWER7+ adaptive guardbanding")
    emit()
    emit("Generated by `repro.analysis.report.generate_report`; every series")
    emit("below was measured fresh on the current configuration.")

    fig3 = figure_set["fig3"]
    emit()
    emit("## Fig. 3 — raytrace power vs active cores (undervolting)")
    emit()
    emit("| cores | static W | adaptive W | saving % |")
    emit("|---|---|---|---|")
    for i, n in enumerate(fig3.core_counts):
        emit(
            f"| {n} | {fig3.static_power[i]:.1f} | {fig3.adaptive_power[i]:.1f} "
            f"| {fig3.power_saving_percent(i):.1f} |"
        )
    claims("fig3")

    fig4 = figure_set["fig4"]
    emit()
    emit("## Fig. 4 — lu_cb frequency vs active cores (overclocking)")
    emit()
    emit("| cores | frequency MHz | boost % | speedup % |")
    emit("|---|---|---|---|")
    for i, n in enumerate(fig4.core_counts):
        emit(
            f"| {n} | {fig4.adaptive_frequency[i]/1e6:.0f} "
            f"| {fig4.frequency_boost_percent(i):.1f} "
            f"| {fig4.speedup_percent(i):.1f} |"
        )
    claims("fig4")

    emit()
    emit("## Fig. 5 — workload heterogeneity")
    for key, label in (
        ("fig5_undervolt", "power saving"),
        ("fig5_overclock", "frequency boost"),
    ):
        fig5 = figure_set[key]
        emit()
        emit(f"### {label} (%)")
        emit()
        header = "| workload | " + " | ".join(str(n) for n in fig5.core_counts) + " |"
        emit(header)
        emit("|" + "---|" * (len(fig5.core_counts) + 1))
        for workload in FIG5_WORKLOADS:
            values = fig5.improvements[workload]
            emit(
                f"| {workload} | " + " | ".join(f"{v:.1f}" for v in values) + " |"
            )
    claims("fig5_undervolt", "fig5_overclock")

    fig6 = figure_set["fig6"]
    emit()
    emit("## Fig. 6 — CPM-to-voltage mapping")
    emit()
    emit(
        "Per-core sensitivity (mV/bit): "
        + ", ".join(f"{s:.1f}" for s in fig6.core_sensitivity_mv)
    )
    claims("fig6")

    emit()
    emit("## Fig. 7 — per-core voltage drop vs active cores")
    claims("fig7")

    series = figure_set["fig9"]["raytrace"]
    emit()
    emit("## Fig. 9 — drop decomposition (raytrace, % of nominal)")
    emit()
    emit("| cores | loadline | IR | typical di/dt | worst di/dt |")
    emit("|---|---|---|---|---|")
    for i, n in enumerate(series.core_counts):
        emit(
            f"| {n} | {series.loadline[i]:.2f} | {series.ir_drop[i]:.2f} "
            f"| {series.typical_didt[i]:.2f} | {series.worst_didt[i]:.2f} |"
        )
    claims("fig9")

    emit()
    emit("## Fig. 10 — passive drop vs the two optimization modes")
    claims("fig10")

    fig12 = figure_set["fig12"]
    emit()
    emit("## Fig. 12 — loadline borrowing (raytrace)")
    emit()
    emit("| cores | baseline uv mV | borrowing uv mV | gain % |")
    emit("|---|---|---|---|")
    for i, n in enumerate(fig12.core_counts):
        emit(
            f"| {n} | {fig12.baseline_undervolt_mv[i]:.1f} "
            f"| {fig12.borrowing_undervolt_mv[i]:.1f} "
            f"| {fig12.borrowing_gain_percent(i):.1f} |"
        )
    claims("fig12")

    emit()
    emit("## Fig. 13 — borrowing vs baseline, 17 scalable workloads")
    claims("fig13")

    fig14 = figure_set["fig14"]
    emit()
    emit("## Fig. 14 — borrowing power & energy, full catalog")
    emit()
    emit("| workload | ΔP % | ΔE % |")
    emit("|---|---|---|")
    for row in list(fig14.rows[:3]) + list(fig14.rows[-3:]):
        emit(
            f"| {row.workload} | {row.power_improvement_percent:+.1f} "
            f"| {row.energy_improvement_percent:+.1f} |"
        )
    claims("fig14")

    emit()
    emit("## Fig. 15 — colocation frequency effects")
    claims("fig15")

    emit()
    emit("## Fig. 16 — MIPS-based frequency predictor")
    claims("fig16")

    fig17 = figure_set["fig17"]
    emit()
    emit("## Fig. 17 — WebSearch QoS")
    emit()
    emit("| co-runner | frequency MHz | violation rate % |")
    emit("|---|---|---|")
    for level in ("light", "medium", "heavy"):
        emit(
            f"| {level} | {fig17.frequencies[level]/1e6:.0f} "
            f"| {fig17.violation_rates[level]*100:.1f} |"
        )
    claims("fig17")
    emit()
    return "\n".join(lines)
