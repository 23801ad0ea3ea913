"""Every paper figure, declared once.

:data:`FIGURES` maps each figure key to a :class:`Figure`: its title, how
to build its data for one configuration, and how to tabulate that data.
``repro figure``, ``repro export``, ``repro report``, the claims table
(:mod:`repro.analysis.claims`) and the figure benchmarks all take their
keys, builders and tables from here, so a figure is added or changed in
one place.

The module also re-exports every builder and result type, so
``from repro.analysis import figures`` gives the tests and examples a
single namespace covering the whole evaluation.  It must not import the
claims table: perfbench imports the builders, and the table stays off
that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ServerConfig
from ..guardband import GuardbandMode
from ..workloads import SCALABLE_BENCHMARKS
from .figures_characterization import (
    FIG5_WORKLOADS,
    FIG9_WORKLOADS,
    CoreScalingSeries,
    CpmMappingResult,
    DecompositionSeries,
    Fig10Result,
    HeterogeneitySeries,
    PassiveDropCorrelation,
    VoltageDropSeries,
    fig3_core_scaling_power,
    fig4_core_scaling_frequency,
    fig5_workload_heterogeneity,
    fig6_cpm_voltage_mapping,
    fig7_voltage_drop_scaling,
    fig9_drop_decomposition,
    fig10_passive_drop_correlation,
)
from .figures_scheduling import (
    BorrowingComparisonSeries,
    BorrowingEnergyRow,
    BorrowingScalingSeries,
    ColocationPoint,
    Fig14Result,
    PredictorTrainingResult,
    WebSearchQosResult,
    fig12_borrowing_scaling,
    fig13_borrowing_all_workloads,
    fig14_borrowing_energy,
    fig15_colocation_frequency,
    fig16_mips_predictor,
    fig17_websearch_qos,
)

__all__ = [
    "FIG5_WORKLOADS",
    "FIG9_WORKLOADS",
    "FIGURES",
    "BorrowingComparisonSeries",
    "BorrowingEnergyRow",
    "BorrowingScalingSeries",
    "ColocationPoint",
    "CoreScalingSeries",
    "CpmMappingResult",
    "DecompositionSeries",
    "Fig10Result",
    "Fig14Result",
    "Figure",
    "FigureSet",
    "HeterogeneitySeries",
    "PassiveDropCorrelation",
    "PredictorTrainingResult",
    "VoltageDropSeries",
    "WebSearchQosResult",
    "fig3_core_scaling_power",
    "fig4_core_scaling_frequency",
    "fig5_workload_heterogeneity",
    "fig6_cpm_voltage_mapping",
    "fig7_voltage_drop_scaling",
    "fig9_drop_decomposition",
    "fig10_passive_drop_correlation",
    "fig12_borrowing_scaling",
    "fig13_borrowing_all_workloads",
    "fig14_borrowing_energy",
    "fig15_colocation_frequency",
    "fig16_mips_predictor",
    "fig17_websearch_qos",
    "markdown_table",
    "text_table",
]

#: A figure's data as ``(header, rows)``; every cell is already formatted.
Table = Tuple[Sequence[str], List[Sequence[str]]]


@dataclass(frozen=True)
class Figure:
    """One paper figure: its title, its builder and its table."""

    #: Heading, e.g. ``"Fig. 3 — …"``; also the progress label of a build.
    title: str

    #: Builds the figure's data for one configuration (``None``: default).
    build: Callable[[Optional[ServerConfig]], Any]

    #: Tabulates what :attr:`build` returned.
    table: Callable[[Any], Table]


# ----------------------------------------------------------------------
# One table per figure
# ----------------------------------------------------------------------
def _by_cores(
    s: Any, header: Sequence[str], cells: Callable[[int], Sequence[str]]
) -> Table:
    """One row per active-core count of ``s``; ``cells(i)`` formats row ``i``."""
    rows = [(str(n), *cells(i)) for i, n in enumerate(s.core_counts)]
    return ("cores", *header), rows


def _fig3_table(s: CoreScalingSeries) -> Table:
    header = ("static W", "adaptive W", "saving %", "EDP gain %")
    return _by_cores(s, header, lambda i: (
        f"{s.static_power[i]:.1f}", f"{s.adaptive_power[i]:.1f}",
        f"{s.power_saving_percent(i):.1f}",
        f"{(1 - s.adaptive_edp[i] / s.static_edp[i]) * 100:.1f}",
    ))


def _fig4_table(s: CoreScalingSeries) -> Table:
    return _by_cores(s, ("frequency MHz", "boost %", "time s", "speedup %"), lambda i: (
        f"{s.adaptive_frequency[i] / 1e6:.0f}", f"{s.frequency_boost_percent(i):.1f}",
        f"{s.adaptive_time[i]:.1f}", f"{s.speedup_percent(i):.1f}",
    ))


def _fig5_table(s: HeterogeneitySeries) -> Table:
    rows = [(w, *(f"{v:.1f}" for v in values)) for w, values in s.improvements.items()]
    averages = (f"{s.average(i):.1f}" for i in range(len(s.core_counts)))
    rows.append(("average", *averages))
    return ("workload", *(f"@{n}" for n in s.core_counts)), rows


def _fig6_table(r: CpmMappingResult) -> Table:
    return ("core", "mV/bit"), [
        (str(core), f"{mv:.1f}") for core, mv in enumerate(r.core_sensitivity_mv)
    ]


def _fig7_table(out: Dict[str, VoltageDropSeries]) -> Table:
    cells = [(core, i) for core in (0, 7) for i in (0, 3, 7)]  # @1, @4, @8 cores
    counts = next(iter(out.values())).core_counts
    return ("workload", *(f"core {core} @{counts[i]}" for core, i in cells)), [
        (w, *(f"{s.drops_percent[core][i]:.1f}" for core, i in cells))
        for w, s in out.items()
    ]


def _fig9_table(out: Dict[str, DecompositionSeries]) -> Table:
    counts = next(iter(out.values())).core_counts
    ends = (0, len(counts) - 1)
    header = [f"{p} @{counts[i]}" for i in ends for p in ("LL", "IR", "typ", "worst")]
    return ("workload", *header), [
        (w, *(f"{v:.2f}" for i in ends for v in (
            s.loadline[i], s.ir_drop[i], s.typical_didt[i], s.worst_didt[i])))
        for w, s in out.items()
    ]


def _fig10_table(r: Fig10Result) -> Table:
    header = ("workload", "power W", "drop mV", "uv mV", "Vdd mV", "E save %",
              "boost %")
    return header, [
        (
            w.workload, f"{w.chip_power:.1f}", f"{w.passive_drop_mv:.1f}",
            f"{w.undervolt_mv:.1f}", f"{w.vdd_selected_mv:.0f}",
            f"{w.energy_saving_percent:.1f}", f"{w.frequency_increase_percent:.1f}",
        )
        for w in sorted(r.rows, key=lambda w: w.chip_power)
    ]


def _fig12_table(s: BorrowingScalingSeries) -> Table:
    header = ("uv base mV", "uv borrow mV", "P base W", "P borrow W", "gain %")
    return _by_cores(s, header, lambda i: (
        f"{s.baseline_undervolt_mv[i]:.1f}", f"{s.borrowing_undervolt_mv[i]:.1f}",
        f"{s.baseline_power[i]:.1f}", f"{s.borrowing_power[i]:.1f}",
        f"{s.borrowing_gain_percent(i):.1f}",
    ))


def _fig13_table(s: BorrowingComparisonSeries) -> Table:
    return _by_cores(s, ("baseline avg %", "borrowing avg %"), lambda i: (
        f"{s.average(i, 'baseline'):.1f}", f"{s.average(i, 'borrowing'):.1f}",
    ))


def _fig14_table(r: Fig14Result) -> Table:
    return ("workload", "P base W", "P borrow W", "ΔP %", "ΔE %", "perf %"), [
        (
            w.workload, f"{w.baseline_power:.1f}", f"{w.borrowing_power:.1f}",
            f"{w.power_improvement_percent:+.1f}",
            f"{w.energy_improvement_percent:+.1f}",
            f"{w.performance_change_percent:+.1f}",
        )
        for w in r.rows
    ]


def _fig15_table(points: List[ColocationPoint]) -> Table:
    return ("mix", "co-runner", "coremark MHz"), [
        (f"<{p.n_coremark},{p.n_other}>", p.other, f"{p.coremark_frequency / 1e6:.0f}")
        for p in points
    ]


def _fig16_table(r: PredictorTrainingResult) -> Table:
    return ("workload", "chip MIPS", "measured MHz", "predicted MHz"), [
        (
            s.workload, f"{s.chip_mips:.0f}", f"{s.frequency / 1e6:.0f}",
            f"{r.predictor.predict(s.chip_mips) / 1e6:.0f}",
        )
        for s in sorted(r.samples, key=lambda s: s.chip_mips)
    ]


def _fig17_table(r: WebSearchQosResult) -> Table:
    return ("co-runner", "frequency MHz", "violation %", "median p90 ms"), [
        (
            level, f"{r.frequencies[level] / 1e6:.0f}",
            f"{r.violation_rates[level] * 100:.1f}",
            f"{r.cdfs[level][0][len(r.cdfs[level][0]) // 2] * 1000:.0f}",
        )
        for level in ("light", "medium", "heavy")
    ]


#: Figure key -> :class:`Figure`, in the paper's order.  Each builder runs
#: with its defaults, except Fig. 5: two entries, each over all 17 scalable
#: workloads as Sec. 3.3's averages are.
FIGURES: Dict[str, Figure] = {
    "fig3": Figure(
        "Fig. 3 — raytrace power & EDP vs active cores (undervolt)",
        fig3_core_scaling_power, _fig3_table),
    "fig4": Figure(
        "Fig. 4 — lu_cb frequency & execution time vs active cores (overclock)",
        fig4_core_scaling_frequency, _fig4_table),
    "fig5_undervolt": Figure(
        "Fig. 5a — power saving (%) vs active cores, 17 scalable workloads",
        partial(fig5_workload_heterogeneity, GuardbandMode.UNDERVOLT,
                workloads=SCALABLE_BENCHMARKS),
        _fig5_table),
    "fig5_overclock": Figure(
        "Fig. 5b — frequency boost (%) vs active cores, 17 scalable workloads",
        partial(fig5_workload_heterogeneity, GuardbandMode.OVERCLOCK,
                workloads=SCALABLE_BENCHMARKS),
        _fig5_table),
    "fig6": Figure(
        "Fig. 6 — CPM sensitivity per core at the nominal frequency",
        fig6_cpm_voltage_mapping, _fig6_table),
    "fig7": Figure(
        "Fig. 7 — per-core voltage drop (%) vs active cores",
        fig7_voltage_drop_scaling, _fig7_table),
    "fig9": Figure(
        "Fig. 9 — voltage drop decomposition (% of nominal), core 0",
        fig9_drop_decomposition, _fig9_table),
    "fig10": Figure(
        "Fig. 10 — passive drop vs undervolt and boost, full catalog at 8 cores",
        fig10_passive_drop_correlation, _fig10_table),
    "fig12": Figure(
        "Fig. 12 — raytrace under consolidation vs loadline borrowing",
        fig12_borrowing_scaling, _fig12_table),
    "fig13": Figure(
        "Fig. 13 — power improvement vs static guardband, 17 scalable workloads",
        fig13_borrowing_all_workloads, _fig13_table),
    "fig14": Figure(
        "Fig. 14 — loadline borrowing power & energy, full catalog at 8 cores",
        fig14_borrowing_energy, _fig14_table),
    "fig15": Figure(
        "Fig. 15 — coremark frequency under colocation",
        fig15_colocation_frequency, _fig15_table),
    "fig16": Figure(
        "Fig. 16 — MIPS-based frequency predictor, full catalog at 8 cores",
        fig16_mips_predictor, _fig16_table),
    "fig17": Figure(
        "Fig. 17 — WebSearch QoS vs co-runner class",
        fig17_websearch_qos, _fig17_table),
}


class FigureSet:
    """The figures of one configuration, each built on first use and kept."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.progress = progress
        self._built: Dict[str, Any] = {}

    def __getitem__(self, key: str) -> Any:
        if key not in self._built:
            figure = FIGURES[key]
            if self.progress is not None:
                self.progress(figure.title)
            self._built[key] = figure.build(self.config)
        return self._built[key]


# ----------------------------------------------------------------------
# The two renderings every consumer shares
# ----------------------------------------------------------------------
def text_table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    """``header`` and ``rows`` as right-aligned plain-text columns."""
    lines = [header, *rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        for line in lines
    )


def markdown_table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    """``header`` and ``rows`` as a markdown table."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)
