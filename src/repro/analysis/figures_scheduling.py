"""Series builders for the AGS evaluation figures (Sec. 5).

Figs. 12–14 compare the consolidation baseline against loadline borrowing;
Figs. 15–17 drive the adaptive-mapping machinery (colocation frequency
effects, the MIPS predictor, and the WebSearch QoS study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import ServerConfig
from ..core.consolidation import ConsolidationScheduler
from ..core.loadline_borrowing import LoadlineBorrowingScheduler
from ..core.predictor import MipsFrequencyPredictor, fit_mips_predictor
from ..core.qos import QosSpec
from ..core.adaptive_mapping import AdaptiveMappingScheduler
from ..errors import SchedulingError
from ..guardband import GuardbandMode
from ..sim.batch import SweepRunner, SweepTask, default_runner
from ..sim.run import build_server
from ..workloads import SCALABLE_BENCHMARKS, get_profile, profile_names
from ..workloads.synthetic import coremark_profile, throttled_corunner
from ..workloads.websearch import WebSearchModel


# ----------------------------------------------------------------------
# Fig. 12 — loadline borrowing's undervolt and power scaling (raytrace)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BorrowingScalingSeries:
    """Consolidation vs borrowing across active-core counts, one workload."""

    workload: str
    core_counts: tuple
    static_power: tuple
    baseline_power: tuple
    borrowing_power: tuple
    baseline_undervolt_mv: tuple
    borrowing_undervolt_mv: tuple

    def borrowing_gain_percent(self, index: int) -> float:
        """Power reduction (%) of borrowing over the consolidated baseline."""
        return (
            1.0 - self.borrowing_power[index] / self.baseline_power[index]
        ) * 100.0

    def improvement_percent(self, index: int, scheduler: str) -> float:
        """Improvement (%) of one scheduler over the static baseline."""
        power = {
            "baseline": self.baseline_power,
            "borrowing": self.borrowing_power,
        }[scheduler]
        return (1.0 - power[index] / self.static_power[index]) * 100.0


def fig12_borrowing_scaling(
    config: Optional[ServerConfig] = None,
    workload: str = "raytrace",
    core_counts: Sequence[int] = range(1, 9),
    total_cores_on: int = 8,
    runner: Optional[SweepRunner] = None,
) -> BorrowingScalingSeries:
    """Fig. 12: undervolt depth and total chip power vs active cores.

    Both schedules keep the same ``total_cores_on`` responsiveness reserve
    (eight of the sixteen cores, per Sec. 5.1.1); the baseline parks them
    all on socket 0, borrowing splits them four and four.
    """
    runner = runner or default_runner()
    cfg = config or ServerConfig()
    consolidation = ConsolidationScheduler(cfg)
    borrowing = LoadlineBorrowingScheduler(cfg)
    profile = get_profile(workload)

    placements = []
    tasks = []
    for n in core_counts:
        base_placement = consolidation.schedule(profile, n, total_cores_on)
        borrow_placement = borrowing.schedule(profile, n, total_cores_on)
        placements.append((base_placement, borrow_placement))
        tasks.append(
            SweepTask.scheduled(base_placement, profile, GuardbandMode.UNDERVOLT)
        )
        tasks.append(
            SweepTask.scheduled(borrow_placement, profile, GuardbandMode.UNDERVOLT)
        )
    results = runner.run_results(tasks, cfg)

    rows = {k: [] for k in ("static", "baseline", "borrow", "uv_base", "uv_borrow")}
    for slot, (base_placement, borrow_placement) in enumerate(placements):
        base, borrow = results[2 * slot], results[2 * slot + 1]
        rows["static"].append(base.static.chip_power)
        rows["baseline"].append(base.adaptive.chip_power)
        rows["borrow"].append(borrow.adaptive.chip_power)
        rows["uv_base"].append(
            base.adaptive.point.socket_point(0).undervolt * 1000
        )
        # Borrowing undervolt: mean depth of the sockets hosting threads.
        depths = [
            sp.undervolt * 1000
            for sid, sp in enumerate(borrow.adaptive.point.sockets)
            if borrow_placement.threads_on(sid) > 0
        ]
        rows["uv_borrow"].append(float(np.mean(depths)))
    return BorrowingScalingSeries(
        workload=workload,
        core_counts=tuple(core_counts),
        static_power=tuple(rows["static"]),
        baseline_power=tuple(rows["baseline"]),
        borrowing_power=tuple(rows["borrow"]),
        baseline_undervolt_mv=tuple(rows["uv_base"]),
        borrowing_undervolt_mv=tuple(rows["uv_borrow"]),
    )


def diurnal_trace(
    n_intervals: int = 24,
    low: int = 1,
    high: int = 8,
) -> List[int]:
    """A canonical day: threads demanded per interval, up to a midday peak.

    A deterministic triangle wave between ``low`` and ``high`` threads.
    Weighting Fig. 12's columns by it (``power[demand - 1]`` per
    interval) gives the day's energy under either schedule: the paper's
    TCO framing (Sec. 3.3) of the same borrowing-vs-consolidation
    comparison.
    """
    if n_intervals < 2:
        raise SchedulingError("n_intervals must be >= 2")
    if not 1 <= low <= high:
        raise SchedulingError("need 1 <= low <= high")
    trace = []
    half = n_intervals / 2.0
    for i in range(n_intervals):
        position = i / half if i < half else (n_intervals - i) / half
        demand = low + round((high - low) * position)
        trace.append(max(low, min(high, demand)))
    return trace


# ----------------------------------------------------------------------
# Fig. 13 — borrowing vs baseline across all scalable workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BorrowingComparisonSeries:
    """Improvement (%) vs static for both schedulers, all workloads."""

    core_counts: tuple
    #: workload -> improvements per core count under consolidation.
    baseline: Dict[str, tuple]
    #: workload -> improvements per core count under borrowing.
    borrowing: Dict[str, tuple]

    def average(self, index: int, scheduler: str) -> float:
        """Mean improvement (%) across workloads at one core count."""
        table = self.baseline if scheduler == "baseline" else self.borrowing
        return float(np.mean([series[index] for series in table.values()]))


def fig13_borrowing_all_workloads(
    config: Optional[ServerConfig] = None,
    workloads: Optional[Sequence[str]] = None,
    core_counts: Sequence[int] = range(1, 9),
    total_cores_on: int = 8,
    runner: Optional[SweepRunner] = None,
) -> BorrowingComparisonSeries:
    """Fig. 13: scaling power improvement for every PARSEC/SPLASH-2 load."""
    runner = runner or default_runner()
    cfg = config or ServerConfig()
    consolidation = ConsolidationScheduler(cfg)
    borrowing = LoadlineBorrowingScheduler(cfg)
    names = list(workloads) if workloads is not None else list(SCALABLE_BENCHMARKS)

    # One batch across every workload and count: 2 tasks per grid point.
    tasks = []
    for name in names:
        profile = get_profile(name)
        for n in core_counts:
            for scheduler in (consolidation, borrowing):
                tasks.append(
                    SweepTask.scheduled(
                        scheduler.schedule(profile, n, total_cores_on),
                        profile,
                        GuardbandMode.UNDERVOLT,
                    )
                )
    results = runner.run_results(tasks, cfg)

    baseline: Dict[str, tuple] = {}
    borrowed: Dict[str, tuple] = {}
    width = 2 * len(tuple(core_counts))
    for slot, name in enumerate(names):
        base_vals, borrow_vals = [], []
        row = results[slot * width : (slot + 1) * width]
        for base, borrow in zip(row[0::2], row[1::2]):
            static_power = base.static.chip_power
            base_vals.append((1 - base.adaptive.chip_power / static_power) * 100)
            borrow_vals.append((1 - borrow.adaptive.chip_power / static_power) * 100)
        baseline[name] = tuple(base_vals)
        borrowed[name] = tuple(borrow_vals)
    return BorrowingComparisonSeries(
        core_counts=tuple(core_counts), baseline=baseline, borrowing=borrowed
    )


# ----------------------------------------------------------------------
# Fig. 14 — full-catalog power & energy improvement at eight busy cores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BorrowingEnergyRow:
    """One workload's Fig. 14 bar pair."""

    workload: str
    baseline_power: float
    borrowing_power: float
    baseline_time: float
    borrowing_time: float

    @property
    def power_improvement_percent(self) -> float:
        """Power reduction (%) of borrowing over the consolidated baseline."""
        return (1.0 - self.borrowing_power / self.baseline_power) * 100.0

    @property
    def energy_improvement_percent(self) -> float:
        """Energy improvement (%), the paper's right axis:
        ``E_baseline / E_borrowing − 1``."""
        e_base = self.baseline_power * self.baseline_time
        e_borrow = self.borrowing_power * self.borrowing_time
        return (e_base / e_borrow - 1.0) * 100.0

    @property
    def performance_change_percent(self) -> float:
        """Execution-time change (%; negative = borrowing is slower)."""
        return (1.0 - self.borrowing_time / self.baseline_time) * 100.0


@dataclass(frozen=True)
class Fig14Result:
    """All Fig. 14 rows, ordered by energy improvement (the paper's x-axis)."""

    rows: tuple

    @property
    def mean_power_improvement(self) -> float:
        """Average power reduction (%) across the catalog."""
        return float(np.mean([r.power_improvement_percent for r in self.rows]))

    @property
    def mean_energy_improvement(self) -> float:
        """Average energy improvement (%) across the catalog."""
        return float(np.mean([r.energy_improvement_percent for r in self.rows]))

    def row(self, workload: str) -> BorrowingEnergyRow:
        """Find one workload's row."""
        for r in self.rows:
            if r.workload == workload:
                return r
        raise KeyError(workload)


def fig14_borrowing_energy(
    config: Optional[ServerConfig] = None,
    workloads: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
) -> Fig14Result:
    """Fig. 14: eight busy cores per the paper's full-utilization setup.

    Scalable suites run 32 threads (SMT4); SPEC CPU2006 runs eight SPECrate
    copies.  The baseline consolidates onto socket 0; borrowing splits the
    load four cores per socket.
    """
    runner = runner or default_runner()
    cfg = config or ServerConfig()
    consolidation = ConsolidationScheduler(cfg)
    borrowing = LoadlineBorrowingScheduler(cfg)
    names = list(workloads) if workloads is not None else profile_names()

    tasks = []
    for name in names:
        profile = get_profile(name)
        if profile.scalable:
            n_threads, tpc = 32, 4
        else:
            n_threads, tpc = 8, 1
        for scheduler in (consolidation, borrowing):
            tasks.append(
                SweepTask.scheduled(
                    scheduler.schedule(profile, n_threads, 8, threads_per_core=tpc),
                    profile,
                    GuardbandMode.UNDERVOLT,
                )
            )
    results = runner.run_results(tasks, cfg)

    rows = []
    for slot, name in enumerate(names):
        base, borrow = results[2 * slot], results[2 * slot + 1]
        rows.append(
            BorrowingEnergyRow(
                workload=name,
                baseline_power=base.adaptive.chip_power,
                borrowing_power=borrow.adaptive.chip_power,
                baseline_time=base.adaptive.execution_time,
                borrowing_time=borrow.adaptive.execution_time,
            )
        )
    rows.sort(key=lambda r: r.energy_improvement_percent)
    return Fig14Result(rows=tuple(rows))


# ----------------------------------------------------------------------
# Fig. 15 — colocation's effect on the critical workload's frequency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColocationPoint:
    """One <n_critical, n_other> mix and its settled frequency."""

    n_coremark: int
    n_other: int
    other: str
    coremark_frequency: float


def fig15_colocation_frequency(
    config: Optional[ServerConfig] = None,
    others: Sequence[str] = ("lu_cb", "mcf"),
) -> List[ColocationPoint]:
    """Fig. 15: coremark's frequency across colocation mixes.

    Sweeps ``<n, 8−n>`` mixes of coremark with each co-runner in
    overclocking mode and reports the mean clock of the coremark cores.
    """
    server = build_server(config)
    coremark = coremark_profile()
    points: List[ColocationPoint] = []
    n_cores = server.config.chip.n_cores
    for other_name in others:
        other = get_profile(other_name)
        for n_coremark in range(1, n_cores + 1):
            n_other = n_cores - n_coremark
            profiles = [coremark] * n_coremark + [other] * n_other
            server.clear()
            server.place_per_core(0, profiles)
            point = server.operate(GuardbandMode.OVERCLOCK)
            freqs = point.socket_point(0).solution.frequencies[:n_coremark]
            points.append(
                ColocationPoint(
                    n_coremark=n_coremark,
                    n_other=n_other,
                    other=other_name,
                    coremark_frequency=float(np.mean(freqs)),
                )
            )
    return points


# ----------------------------------------------------------------------
# Fig. 16 — the MIPS-based frequency predictor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictorTrainingResult:
    """Training samples plus the fitted model and its accuracy."""

    samples: tuple
    predictor: MipsFrequencyPredictor
    relative_rmse: float


def fig16_mips_predictor(
    config: Optional[ServerConfig] = None,
    workloads: Optional[Sequence[str]] = None,
) -> PredictorTrainingResult:
    """Fig. 16: stress all cores per workload, fit frequency on chip MIPS."""
    predictor = fit_mips_predictor(config, workloads)
    return PredictorTrainingResult(
        samples=predictor.samples,
        predictor=predictor,
        relative_rmse=predictor.rmse(),
    )


# ----------------------------------------------------------------------
# Fig. 17 — WebSearch QoS under light/medium/heavy co-runners
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WebSearchQosResult:
    """Violation rates and latency CDFs of the three co-runner classes."""

    #: class name -> settled WebSearch-core frequency (Hz).
    frequencies: Dict[str, float]

    #: class name -> QoS violation rate over the sampled windows.
    violation_rates: Dict[str, float]

    #: class name -> (sorted p90 latencies, cumulative %).
    cdfs: Dict[str, tuple]

    #: The adaptive-mapping run's decisions, starting from the heavy mix.
    decisions: tuple

    @property
    def tail_improvement_percent(self) -> float:
        """Mean-p90 improvement (%) of the final mapping vs the initial one."""
        first = self.decisions[0].mean_tail_latency
        last = self.decisions[-1].mean_tail_latency
        return (1.0 - last / first) * 100.0


def fig17_websearch_qos(
    config: Optional[ServerConfig] = None,
    n_windows: int = 400,
    quanta: int = 3,
) -> WebSearchQosResult:
    """Fig. 17 and Sec. 5.2.2: the co-runner swapping study.

    WebSearch holds core 0; light/medium/heavy issue-throttled coremark
    co-runners fill the other seven cores.  The adaptive-mapping scheduler
    starts blindly colocated with the heavy class and swaps guided by the
    MIPS predictor.
    """
    server = build_server(config)
    websearch = WebSearchModel()
    critical = websearch.profile()
    candidates = [throttled_corunner(level) for level in ("light", "medium", "heavy")]
    predictor = fig16_mips_predictor(config).predictor
    spec = QosSpec(
        latency_target=websearch.config.p90_target,
        violation_threshold=0.10,
    )
    scheduler = AdaptiveMappingScheduler(
        server=server,
        critical=critical,
        spec=spec,
        candidates=candidates,
        predictor=predictor,
        latency_model=websearch,
        windows_per_quantum=n_windows // 4,
    )

    frequencies: Dict[str, float] = {}
    violation_rates: Dict[str, float] = {}
    cdfs: Dict[str, tuple] = {}
    for candidate in candidates:
        level = candidate.name.replace("corunner_", "")
        frequency = scheduler.settle(candidate)
        frequencies[level] = frequency
        violation_rates[level] = websearch.violation_rate(frequency, n_windows)
        cdfs[level] = websearch.latency_cdf(frequency, n_windows)

    decisions = scheduler.run("corunner_heavy", quanta=quanta)
    return WebSearchQosResult(
        frequencies=frequencies,
        violation_rates=violation_rates,
        cdfs=cdfs,
        decisions=tuple(decisions),
    )
