"""The paper's claims: every anchor value and band, declared once.

Each :class:`Claim` names the figure it reads, the paper's printed value,
an open band ``lo < measured < hi`` (either side ``None``) and how to
measure it; ordering claims ("decays", "grows") measure the ordering's
margin, so their band is a sign.  ``repro selfcheck``, ``repro report``,
``tests/test_paper_claims.py`` and the figure benchmarks all read this
table, so a recalibration shows up here as a claim moving toward the
paper or away from it.  The figures a claim reads are the entries of
:data:`repro.analysis.figures.FIGURES`; nothing under
``repro.analysis.figures*`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..config import ServerConfig
from .figures import FigureSet


@dataclass(frozen=True)
class Claim:
    """One paper anchor and the band the model must land in."""

    #: ``<figure key>.<name>``; the prefix names the figure it reads.
    id: str

    #: Where the paper states it, e.g. ``"Fig. 3a"``.
    source: str

    #: What is measured, with its display unit.
    quantity: str

    #: The paper's value as printed.
    paper: str

    #: Open band ``lo < measured < hi``; ``None`` leaves a side open.
    lo: Optional[float]
    hi: Optional[float]

    #: Measures the quantity (display units) from the figure it reads.
    measure: Callable[[Any], float]

    #: The EXPERIMENTS.md row whose bold measured cell quotes this value.
    row: Optional[str] = None

    #: Why the model knowingly lands away from the paper's value.
    deviation: Optional[str] = None

    @property
    def figure(self) -> str:
        """The :data:`~repro.analysis.figures.FIGURES` key this claim reads."""
        return self.id.split(".")[0]

    @property
    def band(self) -> str:
        """The band as printed in verdicts."""
        if self.lo is None:
            return f"< {self.hi:g}"
        if self.hi is None:
            return f"> {self.lo:g}"
        return f"{self.lo:g}–{self.hi:g}"

    def check(self, figure_set: FigureSet) -> "Verdict":
        """Measure this claim on ``figure_set``."""
        return Verdict(self, float(self.measure(figure_set[self.figure])))


@dataclass(frozen=True)
class Verdict:
    """One claim measured on one configuration."""

    claim: Claim
    measured: float

    @property
    def passed(self) -> bool:
        """Whether the measurement lies inside the claim's open band."""
        lo, hi = self.claim.lo, self.claim.hi
        return (lo is None or self.measured > lo) and (hi is None or self.measured < hi)

    def __str__(self) -> str:
        c = self.claim
        return (
            f"[{'ok ' if self.passed else 'FAIL'}] {c.quantity}: expected "
            f"{c.band} (paper {c.paper}), measured {self.measured:.2f}  "
            f"({c.source})"
        )


# ----------------------------------------------------------------------
# Measurements that need more than one expression
# ----------------------------------------------------------------------
def _saving_largest_rise(s) -> float:
    saving = [s.power_saving_percent(i) for i in range(8)]
    return max(b - a for a, b in zip(saving, saving[1:]))


def _edp_gain_decay(s) -> float:
    gain = [1 - s.adaptive_edp[i] / s.static_edp[i] for i in (0, 7)]
    return (gain[0] - gain[1]) * 100


def _lu_cb_core7(out) -> tuple:
    """Core 7's drop (%) per active-core count while lu_cb fills cores 0…"""
    return out["lu_cb"].drops_percent[7]


def _lu_cb_local_jump(out) -> float:
    """Core 7's drop step when it activates, over its largest earlier step."""
    core7 = _lu_cb_core7(out)
    return (core7[7] - core7[6]) - max(np.diff(core7[:7]))


def _passive_margin(out) -> float:
    return min(
        s.loadline[7] + s.ir_drop[7] - s.typical_didt[7] - s.worst_didt[7]
        for s in out.values()
    )


def _coremark_mhz(points, n_other: int, other: Optional[str] = None) -> float:
    """coremark's clock beside ``n_other`` threads of ``other`` (any if None)."""
    point = next(
        p for p in points if p.n_other == n_other and other in (None, p.other)
    )
    return point.coremark_frequency / 1e6


def _span_mhz(points) -> float:
    freqs = [p.coremark_frequency for p in points]
    return (max(freqs) - min(freqs)) / 1e6


def _times(borrowing: float, baseline: float) -> float:
    """borrowing / baseline improvement; ``inf`` when only borrowing improves."""
    if baseline > 0:
        return borrowing / baseline
    return math.inf if borrowing > 0 else math.nan


def _violation_ordering(r) -> float:
    rates = r.violation_rates
    return min(rates["heavy"] - rates["medium"], rates["medium"] - rates["light"]) * 100


#: Co-runner class of a mapping decision: 0 light, 1 medium, 2 heavy.
_CLASS = {"corunner_light": 0, "corunner_medium": 1, "corunner_heavy": 2}
_SHARING = {"lu_ncb", "radiosity"}
_BANDWIDTH = {"radix", "fft", "lbm", "GemsFDTD", "zeusmp"}

_BORROWING_DEVIATION = (
    "CPM feedback pins the delivered core voltage, so borrowing's gain flows only "
    "through the droop-reserve delta and the VRM-output sensor (setpoint x "
    "current), which tops out near 6%."
)


CLAIMS: Tuple[Claim, ...] = (
    # ---- Fig. 3: raytrace under undervolting, 1..8 active cores -------
    Claim("fig3.saving_1", "Fig. 3a", "raytrace saving @1 core (%)", "13%", 11.0, 15.0,
          lambda s: s.power_saving_percent(0), row="power saving @1 core"),
    Claim("fig3.saving_8", "Fig. 3a", "raytrace saving @8 cores (%)", "~3%", 1.2, 4.8,
          lambda s: s.power_saving_percent(7), row="power saving @8 cores"),
    Claim("fig3.static_power_1", "Fig. 3a", "raytrace static power @1 core (W)",
          "~72 W", 64.0, 80.0, lambda s: s.static_power[0],
          row="static chip power 1→8 cores"),
    Claim("fig3.static_power_8", "Fig. 3a", "raytrace static power @8 cores (W)",
          "~140 W", 128.0, 152.0, lambda s: s.static_power[7],
          row="static chip power 1→8 cores"),
    Claim("fig3.saving_decay", "Sec. 3.2", "raytrace saving decay @1→@8 cores (pts)",
          "13 → 3", 0.0, None,
          lambda s: s.power_saving_percent(0) - s.power_saving_percent(7)),
    Claim("fig3.saving_largest_rise", "Fig. 3a",
          "raytrace saving, largest rise per added core (pts)", "monotone",
          None, 0.3, _saving_largest_rise),
    Claim("fig3.edp_decay", "Fig. 3b", "raytrace EDP gain decay @1→@8 cores (pts)",
          "largest @1, ≈20%", 0.0, None, _edp_gain_decay),
    # ---- Fig. 4: lu_cb under overclocking ------------------------------
    Claim("fig4.boost_1", "Fig. 4a", "lu_cb boost @1 core (%)", "~10%", 7.5, 10.5,
          lambda s: s.frequency_boost_percent(0), row="boost @1 core",
          deviation="The boost decays, but less than on the silicon (8.7 -> 6.0% "
          "vs 10 -> 4%): the overclocking servo rides through droops, so its "
          "headroom loses only the passive-drop growth."),
    Claim("fig4.boost_8", "Fig. 4a", "lu_cb boost @8 cores (%)", "~4%", 3.0, 7.0,
          lambda s: s.frequency_boost_percent(7), row="boost @8 cores"),
    Claim("fig4.boost_decay", "Fig. 4a", "lu_cb boost decay @1→@8 cores (pts)",
          "10 → 4", 0.0, None,
          lambda s: s.frequency_boost_percent(0) - s.frequency_boost_percent(7)),
    Claim("fig4.speedup_1", "Fig. 4b", "lu_cb speedup @1 core (%)", "8%", 6.5, 9.5,
          lambda s: s.speedup_percent(0), row="speedup @1 core"),
    Claim("fig4.speedup_decay", "Fig. 4b", "lu_cb speedup decay @1→@8 cores (pts)",
          "8 → 3", 0.0, None, lambda s: s.speedup_percent(0) - s.speedup_percent(7)),
    # ---- Fig. 5 / Sec. 3.3: all 17 scalable workloads ------------------
    Claim("fig5_undervolt.avg_1", "Sec. 3.3", "17-workload avg saving @1 core (%)",
          "13.3%", 12.3, 14.3, lambda s: s.average(0),
          row="avg saving @1 core (17 workloads)"),
    Claim("fig5_undervolt.min_1", "Sec. 3.3", "17-workload least saving @1 core (%)",
          "10.7%", 9.2, 12.2, lambda s: min(v[0] for v in s.improvements.values()),
          row="saving range @1 core"),
    Claim("fig5_undervolt.max_1", "Sec. 3.3",
          "17-workload largest saving @1 core (%)", "14.8%", 13.3, 16.3,
          lambda s: max(v[0] for v in s.improvements.values()),
          row="saving range @1 core"),
    Claim("fig5_undervolt.avg_8", "Sec. 3.3", "17-workload avg saving @8 cores (%)",
          "6.4%", 4.4, 8.4, lambda s: s.average(7), row="avg saving @8 cores"),
    Claim("fig5_undervolt.spread_growth", "Sec. 3.3",
          "17-workload saving spread growth @1→@8 cores (pts)", "magnifies",
          0.0, None, lambda s: s.spread(7) - s.spread(0)),
    Claim("fig5_undervolt.least_saving", "Fig. 5a",
          "least saving, any workload and core count (%)", "every one improves",
          -0.5, None, lambda s: min(min(v) for v in s.improvements.values())),
    Claim("fig5_overclock.avg_1", "Sec. 3.3", "17-workload avg boost @1 core (%)",
          "up to 9.6%", 8.6, 10.6, lambda s: s.average(0),
          row="boost avg @1 core (17 workloads)"),
    Claim("fig5_overclock.radix_8", "Fig. 5b", "radix boost @8 cores (%)", "~9%",
          7.0, None, lambda s: s.improvements["radix"][7],
          row="radix / ocean_cp boost @8"),
    Claim("fig5_overclock.lu_cb_drop", "Fig. 5b",
          "lu_cb boost drop @1→@8 cores (pts)", "10 → 4", 2.0, None,
          lambda s: s.improvements["lu_cb"][0] - s.improvements["lu_cb"][7]),
    # ---- Fig. 6: CPM-to-voltage mapping --------------------------------
    Claim("fig6.mv_per_bit", "Fig. 6a / Sec. 4.1", "CPM sensitivity (mV/bit)",
          "~21 mV/bit", 18.5, 23.5, lambda r: r.mv_per_bit, row="sensitivity"),
    Claim("fig6.linearity", "Fig. 6a", "CPM mapping fit r²", "near-linear", 0.98, None,
          lambda r: r.nominal_fit.r_squared, row="linearity"),
    # ---- Fig. 7: per-core drop, five workloads -------------------------
    Claim("fig7.drop_growth", "Fig. 7",
          "core 0 drop growth @1→@8 cores, least workload (pts)", "2% → 8%",
          0.0, None,
          lambda out: min(s.drops_percent[0][7] - s.drops_percent[0][0]
                          for s in out.values())),
    Claim("fig7.idle_global", "Fig. 7",
          "lu_cb idle core 7 drop change @1→@4 cores (pts)", "rises: global drop",
          -0.05, None, lambda out: _lu_cb_core7(out)[3] - _lu_cb_core7(out)[0]),
    Claim("fig7.idle_drop_4", "Fig. 7", "lu_cb idle core 7 drop @4 cores (%)",
          "global drop", 1.0, None, lambda out: _lu_cb_core7(out)[3]),
    Claim("fig7.local_jump", "Fig. 7",
          "lu_cb core 7 activation jump over largest earlier step (pts)",
          "largest step", 0.0, None, _lu_cb_local_jump),
    # ---- Fig. 9: drop decomposition, ten workloads ---------------------
    Claim("fig9.passive_dominates", "Fig. 9",
          "passive minus di/dt drop @8 cores, least workload (pts)", "~4 of 6%",
          0.0, None, _passive_margin),
    Claim("fig9.typical_didt_shrinks", "Fig. 9",
          "typical di/dt shrink @1→@8 cores, least workload (pts)", "shrinks",
          0.0, None,
          lambda out: min(s.typical_didt[0] - s.typical_didt[7] for s in out.values())),
    Claim("fig9.loadline_grows", "Fig. 9",
          "raytrace loadline drop growth @1→@8 cores (pts)", "grows", 0.0, None,
          lambda out: out["raytrace"].loadline[7] - out["raytrace"].loadline[0]),
    Claim("fig9.ir_grows", "Fig. 9", "raytrace IR drop growth @1→@8 cores (pts)",
          "grows", 0.0, None,
          lambda out: out["raytrace"].ir_drop[7] - out["raytrace"].ir_drop[0]),
    # ---- Fig. 10: 44 workloads at eight cores --------------------------
    Claim("fig10.power_drop_r2", "Fig. 10a", "power → passive drop fit r²",
          "strong linear", 0.9, None, lambda r: r.power_vs_drop.r_squared,
          row="power→drop correlation"),
    Claim("fig10.undervolt_slope", "Fig. 10b",
          "undervolt vs passive drop slope (mV/mV)", "negative", None, 0.0,
          lambda r: r.drop_vs_undervolt.slope),
    Claim("fig10.drop_min", "Fig. 10a", "least passive drop @8 cores (mV)", "40 mV",
          25.0, None, lambda r: min(r.column("passive_drop_mv")),
          row="passive drop range"),
    Claim("fig10.drop_max", "Fig. 10a", "largest passive drop @8 cores (mV)", "80 mV",
          None, 110.0, lambda r: max(r.column("passive_drop_mv")),
          row="passive drop range"),
    Claim("fig10.power_min", "Fig. 10a", "least chip power @8 cores (W)", "80 W",
          70.0, None, lambda r: min(r.column("chip_power")),
          row="chip power range @8 cores"),
    Claim("fig10.power_max", "Fig. 10a", "largest chip power @8 cores (W)", "140 W",
          None, 160.0, lambda r: max(r.column("chip_power")),
          row="chip power range @8 cores"),
    # ---- Fig. 12: loadline borrowing, raytrace -------------------------
    Claim("fig12.gain_2", "Fig. 12b", "borrowing gain @2 cores (%)", "1.6%", 0.1, 3.1,
          lambda s: s.borrowing_gain_percent(1), row="power gain @2 cores"),
    Claim("fig12.gain_8", "Fig. 12b", "borrowing gain @8 cores (%)", "8.5%", 4.5, 12.5,
          lambda s: s.borrowing_gain_percent(7), row="power gain @8 cores",
          deviation=_BORROWING_DEVIATION),
    Claim("fig12.gain_growth", "Fig. 12b", "borrowing gain growth @2→@8 cores (pts)",
          "1.6 → 8.5", 0.0, None,
          lambda s: s.borrowing_gain_percent(7) - s.borrowing_gain_percent(1)),
    Claim("fig12.deeper_undervolt", "Fig. 12a",
          "borrowing's least extra undervolt, 2–8 cores (mV)", "+20…+40 mV",
          0.0, None,
          lambda s: min(s.borrowing_undervolt_mv[i] - s.baseline_undervolt_mv[i]
                        for i in range(1, 8)),
          row="borrowing undervolts deeper at every count"),
    Claim("fig12.beats_baseline", "Fig. 12b",
          "borrowing minus baseline improvement @8 cores (pts)", "borrowing wins",
          0.0, None,
          lambda s: s.improvement_percent(7, "borrowing")
          - s.improvement_percent(7, "baseline")),
    Claim("fig12.doubling", "Abstract", "borrowing / baseline improvement @8 cores (x)",
          "~2x", 1.8, None,
          lambda s: _times(s.improvement_percent(7, "borrowing"),
                           s.improvement_percent(7, "baseline"))),
    # ---- Fig. 13: all 17 scalable workloads ----------------------------
    Claim("fig13.doubling", "Fig. 13",
          "17-workload borrowing / baseline improvement @8 cores (x)",
          "13.8 / 5.5 = 2.5x", 1.5, None,
          lambda s: _times(s.average(7, "borrowing"), s.average(7, "baseline")),
          row="borrowing ≈ doubles the baseline"),
    # ---- Fig. 14: full catalog, eight busy cores -----------------------
    Claim("fig14.mean_power", "Fig. 14", "mean power improvement (%)", "6.2%", 3.2, 9.2,
          lambda r: r.mean_power_improvement, row="mean power improvement",
          deviation=_BORROWING_DEVIATION),
    Claim("fig14.mean_energy", "Fig. 14", "mean energy improvement (%)", "7.7%",
          4.0, 12.7, lambda r: r.mean_energy_improvement,
          row="mean energy improvement"),
    Claim("fig14.sharing_worst", "Fig. 14",
          "worse energy rank of lu_ncb and radiosity (1 = worst)", "left edge",
          None, 4.0,
          lambda r: max(i for i, w in enumerate(r.rows, 1) if w.workload in _SHARING)),
    Claim("fig14.bandwidth_best", "Fig. 14",
          "radix/fft/lbm/GemsFDTD/zeusmp among the five best", "5", 3.0, None,
          lambda r: len({row.workload for row in r.rows[-5:]} & _BANDWIDTH)),
    Claim("fig14.best_energy", "Fig. 14", "best energy improvement (%)", "171%",
          40.0, None, lambda r: r.rows[-1].energy_improvement_percent,
          row="best (right of x-axis)",
          deviation="The bandwidth-contention model caps relief at 2x at a "
          "balanced split, so the energy tail tops out near 63%."),
    Claim("fig14.radix_power", "Fig. 14", "radix power improvement (%)", "costs power",
          None, 2.0, lambda r: r.row("radix").power_improvement_percent,
          row="relief can raise power (radix, fft)"),
    Claim("fig14.radix_energy", "Fig. 14", "radix energy improvement (%)", "+50–171%",
          30.0, None, lambda r: r.row("radix").energy_improvement_percent,
          row="relief can raise power (radix, fft)"),
    # ---- Fig. 15: coremark colocation ----------------------------------
    Claim("fig15.solo", "Fig. 15", "coremark solo frequency (MHz)", "4517 MHz",
          4477.0, 4557.0, lambda p: _coremark_mhz(p, 0), row="coremark alone"),
    Claim("fig15.lu_cb_drag", "Fig. 15", "coremark drag by 7 lu_cb threads (MHz)",
          "84 MHz", 20.0, None,
          lambda p: _coremark_mhz(p, 0, "lu_cb") - _coremark_mhz(p, 7, "lu_cb")),
    Claim("fig15.mcf_lift", "Fig. 15", "coremark lift by 7 mcf threads (MHz)",
          "raises", 20.0, None,
          lambda p: _coremark_mhz(p, 7, "mcf") - _coremark_mhz(p, 0, "mcf")),
    Claim("fig15.span", "Fig. 15", "colocation frequency span (MHz)", ">100 MHz",
          100.0, 190.0, _span_mhz, row="total span"),
    # ---- Fig. 16: the MIPS predictor -----------------------------------
    Claim("fig16.rmse", "Fig. 16 / Sec. 5.2.1", "MIPS predictor RMSE (%)", "0.3%",
          0.05, 0.55, lambda r: r.relative_rmse * 100, row="RMSE"),
    Claim("fig16.mips_min", "Fig. 16", "least chip MIPS", "~5k", None, 20_000.0,
          lambda r: min(s.chip_mips for s in r.samples), row="MIPS range"),
    Claim("fig16.mips_max", "Fig. 16", "largest chip MIPS", "~80k", 60_000.0, None,
          lambda r: max(s.chip_mips for s in r.samples), row="MIPS range"),
    # ---- Fig. 17 / Sec. 5.2.2: WebSearch QoS ---------------------------
    Claim("fig17.ordering", "Fig. 17",
          "violation gap heavy > medium > light, least step (pts)", "25 > 15 > 7",
          0.0, None, _violation_ordering),
    Claim("fig17.heavy", "Fig. 17", "heavy co-runner violation rate (%)", ">25%",
          15.0, None, lambda r: r.violation_rates["heavy"] * 100,
          row="heavy co-runner violation rate",
          deviation="The settled frequency gap between co-runner classes is small "
          "here (the light mix sits near the DPLL ceiling), so every class "
          "violates less than on the silicon."),
    Claim("fig17.light", "Fig. 17", "light co-runner violation rate (%)", "<7%",
          None, 10.0, lambda r: r.violation_rates["light"] * 100, row="light"),
    Claim("fig17.starts_heavy", "Sec. 5.2.2",
          "first co-runner class (0 light, 2 heavy)", "heavy", 1.0, None,
          lambda r: _CLASS[r.decisions[0].corunner]),
    Claim("fig17.escapes_heavy", "Sec. 5.2.2",
          "last co-runner class (0 light, 2 heavy)", "light", None, 2.0,
          lambda r: _CLASS[r.decisions[-1].corunner]),
    Claim("fig17.tail", "Sec. 5.2.2", "tail latency improvement (%)", "5.2%", 5.0, None,
          lambda r: r.tail_improvement_percent, row="tail latency improvement"),
)


def claims_of(figure: str) -> List[Claim]:
    """The claims that read ``figure``, in table order."""
    return [claim for claim in CLAIMS if claim.figure == figure]


def check_claims(
    config: Optional[ServerConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Verdict]:
    """Measure every claim on ``config``, building each figure once.

    ``progress`` (e.g. ``print``) is called with each figure's label
    before it is built — the full check takes several seconds.
    """
    figure_set = FigureSet(config, progress)
    return [claim.check(figure_set) for claim in CLAIMS]
