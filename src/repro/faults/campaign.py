"""Deterministic chaos campaigns over the scenario catalog.

``repro chaos campaign`` drives *every* catalog scenario twice — once
fault-free and once under a seeded, randomized fault plan — with the
strict invariant watchdog armed, and prints the per-scenario
degradation matrix.  The randomized plan is a pure function of
``(scenario name, campaign seed)``: the name is hashed with CRC-32
(stable across processes, unlike ``hash()`` under seed randomization),
so two campaigns with the same seed inject byte-identical faults and
CI can diff campaign output across runs.

The campaign's job is breadth, not depth: one crash (with repair), one
job kill and one CPM corruption window per scenario, placed at
randomized times and targets, checking that whatever the catalog
describes — aged groups, power budgets, flash crowds — degrades
gracefully: jobs stay conserved, invariants hold, the run completes.
Scenario-specific depth lives in the catalog's own fault plans.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..scenarios import (
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    load_catalog,
    run_scenario,
)
from .watchdog import InvariantWatchdog, install_watchdog

#: Smoke mode shrinks every scenario's traffic to at most this horizon
#: (seconds) and arrival rate (jobs/hour) so the whole catalog runs in
#: CI time.  Degradation percentages are noisier at this scale; the
#: campaign's pass criteria (conservation, watchdog silence) are not.
SMOKE_DURATION_SECONDS = 3600.0
SMOKE_JOBS_PER_HOUR = 40.0


def campaign_seed(name: str, seed: int) -> int:
    """Stable per-scenario RNG seed (CRC-32 of the name, xor campaign)."""
    return zlib.crc32(name.encode("utf-8")) ^ (seed & 0xFFFFFFFF)


@dataclass(frozen=True)
class CampaignRow:
    """One scenario's baseline-vs-degraded outcome."""

    scenario: str
    n_windows: int
    baseline_energy_kwh: float
    degraded_energy_kwh: float
    qos_delta: int
    n_server_crashes: int
    n_job_kills: int
    n_requeues: int
    conserved: bool
    watchdog_violations: int

    @property
    def energy_delta_fraction(self) -> float:
        if self.baseline_energy_kwh == 0:
            return 0.0
        return (
            self.degraded_energy_kwh - self.baseline_energy_kwh
        ) / self.baseline_energy_kwh

    @property
    def passed(self) -> bool:
        return self.conserved and self.watchdog_violations == 0


@dataclass(frozen=True)
class CampaignReport:
    """The degradation matrix one campaign produced."""

    rows: Tuple[CampaignRow, ...]
    seed: int
    smoke: bool

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def render(self) -> str:
        mode = ", smoke" if self.smoke else ""
        lines = [
            f"chaos campaign: {len(self.rows)} scenario(s), "
            f"seed {self.seed}{mode}",
            (
                f"{'scenario':>28} {'faults':>6} {'base kWh':>9} "
                f"{'degr kWh':>9} {'dE':>7} {'dqos':>5} {'crash':>5} "
                f"{'kill':>4} {'requeue':>7}  jobs"
            ),
        ]
        for row in self.rows:
            lines.append(
                f"{row.scenario:>28} {row.n_windows:>6} "
                f"{row.baseline_energy_kwh:>9.3f} "
                f"{row.degraded_energy_kwh:>9.3f} "
                f"{row.energy_delta_fraction:>+7.1%} {row.qos_delta:>+5d} "
                f"{row.n_server_crashes:>5} {row.n_job_kills:>4} "
                f"{row.n_requeues:>7}  "
                + ("conserved" if row.conserved else "LOST JOBS")
            )
        violations = sum(row.watchdog_violations for row in self.rows)
        conserved = sum(1 for row in self.rows if row.conserved)
        lines.append(
            f"campaign: {conserved}/{len(self.rows)} conserved, "
            f"{violations} watchdog violation(s)"
        )
        return "\n".join(lines)


def _shrink_for_smoke(scenario):
    """Clamp a scenario's traffic to smoke scale (pure, validated)."""
    traffic = scenario.traffic
    duration = min(traffic.duration_seconds, SMOKE_DURATION_SECONDS)
    surges = tuple(
        surge for surge in traffic.surges if surge[0] < duration
    )
    traffic = replace(
        traffic,
        duration_seconds=duration,
        jobs_per_hour=min(traffic.jobs_per_hour, SMOKE_JOBS_PER_HOUR),
        surges=surges,
    )
    return replace(scenario, traffic=traffic)


def _randomized_windows(scenario, rng: random.Random):
    """One crash (with repair), one CPM corruption, one job kill."""
    duration = scenario.traffic.duration_seconds
    groups = scenario.topology.groups
    crash_group = groups[rng.randrange(len(groups))]
    corrupt_group = groups[rng.randrange(len(groups))]
    expected_jobs = max(
        2, int(scenario.traffic.jobs_per_hour * duration / 3600.0)
    )
    return (
        FaultWindowSpec(
            kind="server_crash",
            start_seconds=(0.15 + 0.25 * rng.random()) * duration,
            group=crash_group.name,
            server=rng.randrange(crash_group.servers),
            repair_seconds=(0.15 + 0.10 * rng.random()) * duration,
        ),
        FaultWindowSpec(
            kind="cpm_stuck",
            start_seconds=(0.30 + 0.20 * rng.random()) * duration,
            duration_seconds=max(60.0, 0.10 * duration),
            group=corrupt_group.name,
            server=rng.randrange(corrupt_group.servers),
            code=rng.randrange(16, 64),
        ),
        FaultWindowSpec(
            kind="job_kill",
            start_seconds=(0.40 + 0.20 * rng.random()) * duration,
            job_id=rng.randrange(expected_jobs),
        ),
    )


def run_campaign(
    scenarios=None,
    seed: int = 0,
    smoke: bool = False,
    strict: bool = True,
    n_shards: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Drive every scenario fault-free and randomly degraded.

    ``scenarios`` defaults to the shipped catalog.  ``strict`` arms the
    invariant watchdog in raising mode for both runs of every scenario
    (a violation surfaces as :class:`~repro.errors.WatchdogError`,
    CLI exit code 13); ``strict=False`` counts violations into the
    report instead.  Deterministic for a fixed ``(scenarios, seed,
    smoke)`` triple.
    """
    if scenarios is None:
        scenarios = load_catalog()
    rows = []
    for scenario in scenarios:
        if progress is not None:
            progress(scenario.name)
        rng = random.Random(campaign_seed(scenario.name, seed))
        # Strip the catalog's own fault plan (the campaign substitutes
        # its randomized one) and golden block *before* any smoke
        # shrink: a scenario's shipped fault windows may open beyond
        # the clamped horizon, and cross-validation would reject the
        # shrunk scenario for faults the campaign never runs.
        stripped = replace(
            scenario, faults=FaultPlanSpec(seed=seed), golden=GoldenSpec()
        )
        effective = _shrink_for_smoke(stripped) if smoke else stripped
        windows = _randomized_windows(effective, rng)
        baseline_scenario = effective
        degraded_scenario = replace(
            effective, faults=FaultPlanSpec(windows=windows, seed=seed)
        )
        handle = InvariantWatchdog(strict=strict)
        previous = install_watchdog(handle)
        try:
            baseline = run_scenario(
                baseline_scenario, n_shards=n_shards, keep_events=False
            )
            degraded = run_scenario(
                degraded_scenario, n_shards=n_shards, keep_events=False
            )
        finally:
            install_watchdog(previous)
        rows.append(
            CampaignRow(
                scenario=scenario.name,
                n_windows=len(windows),
                baseline_energy_kwh=baseline.fleet.adaptive_energy_kwh,
                degraded_energy_kwh=degraded.fleet.adaptive_energy_kwh,
                qos_delta=(
                    degraded.fleet.qos_violations
                    - baseline.fleet.qos_violations
                ),
                n_server_crashes=degraded.fleet.n_server_crashes,
                n_job_kills=degraded.fleet.n_job_kills,
                n_requeues=degraded.fleet.n_requeues,
                conserved=(
                    degraded.fleet.conserved
                    and degraded.fleet.n_arrivals
                    == baseline.fleet.n_arrivals
                ),
                watchdog_violations=sum(handle.violations.values()),
            )
        )
    return CampaignReport(rows=tuple(rows), seed=seed, smoke=smoke)
