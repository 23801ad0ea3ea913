"""Lowering scenarios onto the fleet engine, and adjudicating goldens.

A :class:`~repro.scenarios.model.Scenario` runs by compilation, not
interpretation: :func:`lower_scenario` turns the declarative topology
into the cell list the sharded executor already understands —

* each server *group* becomes one :class:`~repro.fleet.engine.FleetConfig`
  carrying the group's **aged** server config (via
  :func:`repro.chip.aging.aged_server_config`) and a **per-group die
  seed** (``derive_seed(seed, {"stream": "scenario-die", "group": name})``),
  so generations age and vary independently while sharing one job
  stream;
* the declarative fault windows lower onto one
  :class:`~repro.faults.plan.FaultPlan` with *global* server ids, fanned
  out per server when ``all_servers`` is set;
* :func:`~repro.fleet.shard.build_cells` — the same cell assembly a
  homogeneous sharded fleet uses — cuts the groups into cells and
  routes the faults and the fleet budget to them;
* the shared arrival trace is seeded by the scenario seed itself, so the
  traffic never couples to any group's silicon.

Because the lowered cells run through
:func:`~repro.fleet.shard.run_cell_specs`, the merged event log — and
its SHA-256, the run's identity — is bit-identical across ``--shards``
counts by construction, which is what lets catalog goldens pin exact
hashes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..chip.aging import AgingModel, aged_server_config
from ..config import ServerConfig
from ..errors import ScenarioError
from ..faults.plan import FaultPlan
from ..faults.spec import FaultSpec
from ..fleet.engine import FleetConfig
from ..fleet.metrics import FleetResult
from ..fleet.scheduler import POLICIES, FleetPolicy
from ..fleet.shard import (
    CellSpec,
    ShardedOutcome,
    ShardRetry,
    build_cells,
    run_cell_specs,
)
from ..sim.batch import derive_seed
from .model import Scenario, ServerGroupSpec


@dataclass(frozen=True)
class LoweredScenario:
    """A scenario compiled to the fleet executor's vocabulary."""

    scenario: Scenario
    cells: Tuple[CellSpec, ...]
    policy: FleetPolicy

    #: Seed of the shared arrival trace.
    trace_seed: int


def _group_server_config(
    scenario: Scenario, group: ServerGroupSpec
) -> ServerConfig:
    base = ServerConfig()
    if scenario.policy.pdn_backend != base.pdn_backend:
        base = dataclasses.replace(
            base, pdn_backend=scenario.policy.pdn_backend
        )
    if group.age_years <= 0:
        return base
    model = AgingModel(
        end_of_life_shift=scenario.topology.aging_end_of_life_shift,
        lifetime_years=scenario.topology.aging_lifetime_years,
        exponent=scenario.topology.aging_exponent,
    )
    return aged_server_config(base, model, group.age_years)


def _group_die_seed(scenario: Scenario, group: ServerGroupSpec) -> int:
    return derive_seed(
        scenario.seed, {"stream": "scenario-die", "group": group.name}
    )


def _group_cap_gain(scenario: Scenario, group: ServerGroupSpec) -> float:
    """The group's effective power-cap loop gain.

    Starts from the group's ``cap_gain`` (default: the policy gain) and
    attenuates it with normalized service age — aged silicon has part of
    its guardband consumed, so one DVFS step buys fewer watts and the
    integral loop must walk more gently to avoid limit-cycling.  At the
    aging model's end of life the gain is halved; age 0 is unchanged.
    """
    base = (
        group.cap_gain
        if group.cap_gain is not None
        else scenario.policy.power_cap_gain
    )
    if group.age_years <= 0:
        return base
    lifetime = scenario.topology.aging_lifetime_years
    attenuation = 1.0 - 0.5 * min(1.0, group.age_years / lifetime)
    return max(0.05, base * attenuation)


def _lower_fault_plan(scenario: Scenario) -> FaultPlan:
    """Fault windows → one plan with *global* server ids.

    Server-scoped specs come first, in window order, and job kills
    last: :func:`~repro.fleet.shard.build_cells` keeps plan order within
    each cell, so a cell sees its own server faults before any kill.
    """
    first_server: Dict[str, int] = {}
    offset = 0
    for group in scenario.topology.groups:
        first_server[group.name] = offset
        offset += group.servers
    server_specs: List[FaultSpec] = []
    job_kills: List[FaultSpec] = []
    for window in scenario.faults.windows:
        if window.kind == "job_kill":
            job_kills.append(window.fault(None))
            continue
        group = (
            scenario.topology.group(window.group)
            if window.group is not None
            else scenario.topology.groups[0]
        )
        if window.all_servers:
            targets = range(group.servers)
        else:
            targets = [window.server if window.server is not None else 0]
        server_specs.extend(
            window.fault(first_server[group.name] + server)
            for server in targets
        )
    return FaultPlan(
        specs=tuple(server_specs + job_kills), seed=scenario.faults.seed
    )


def lower_scenario(
    scenario: Scenario, seed: Optional[int] = None
) -> LoweredScenario:
    """Compile a scenario into the cell list the executor runs.

    ``seed`` overrides the scenario's own seed (the CLI's ``--seed``);
    goldens are only meaningful under the scenario's pinned seed, so
    :func:`check_scenario` never passes one.
    """
    effective_seed = scenario.seed if seed is None else seed
    effective = (
        scenario
        if effective_seed == scenario.seed
        else dataclasses.replace(scenario, seed=effective_seed)
    )
    policy = effective.policy
    groups = [
        (
            FleetConfig(
                server_config=_group_server_config(effective, group),
                n_servers=group.servers,
                traffic=effective.traffic,
                seed=_group_die_seed(effective, group),
                qos_frequency_fraction=policy.qos_frequency_fraction,
                power_off_hysteresis_seconds=(
                    policy.power_off_hysteresis_seconds
                ),
                utilization_threshold=policy.utilization_threshold,
                power_cap_w=policy.server_power_cap_w,
                cap_interval_seconds=policy.power_cap_interval_seconds,
                cap_gain=_group_cap_gain(effective, group),
            ),
            group.cell_servers,
            group.name,
        )
        for group in effective.topology.groups
    ]
    return LoweredScenario(
        scenario=effective,
        cells=build_cells(
            groups, _lower_fault_plan(effective), policy.fleet_power_budget_w
        ),
        policy=POLICIES[policy.policy],
        trace_seed=effective.seed,
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupSummary:
    """One topology group's slice of the run."""

    name: str
    servers: int
    age_years: float
    adaptive_energy_kwh: float
    static_energy_kwh: float
    n_arrivals: int
    n_completions: int
    qos_violations: int
    fallback_seconds: float


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run: the merged fleet day plus scenario rollups."""

    scenario: Scenario
    fleet: FleetResult
    groups: Tuple[GroupSummary, ...]

    #: Shard-recovery manifest: one entry per re-executed cell (empty on
    #: a clean run).  Recovery is deterministic, so a non-empty manifest
    #: never moves the event-log hash — it only records that workers
    #: died along the way.
    retries: Tuple["ShardRetry", ...] = ()

    #: Epochs whose settled adaptive server power exceeded the policy's
    #: ``server_power_cap_w`` (0 when no cap is configured).  The engine
    #: *enforces* the cap by walking the DVFS table, so non-zero counts
    #: mean even the lowest operating point drew more than the cap
    #: (best-effort floor epochs).
    cap_exceeded_epochs: int = 0

    @property
    def summary(self) -> Dict[str, object]:
        """The flat summary goldens assert against."""
        return {
            "event_log_hash": self.fleet.event_log_hash,
            "n_arrivals": self.fleet.n_arrivals,
            "n_completions": self.fleet.n_completions,
            "qos_violations": self.fleet.qos_violations,
            "n_server_crashes": self.fleet.n_server_crashes,
            "n_job_kills": self.fleet.n_job_kills,
            "n_requeues": self.fleet.n_requeues,
            "saving_fraction": self.fleet.saving_fraction,
            "total_fallback_seconds": self.fleet.total_fallback_seconds,
            "adaptive_energy_kwh": self.fleet.adaptive_energy_kwh,
            "cap_exceeded_epochs": self.cap_exceeded_epochs,
            "cap_tracking_error": self.fleet.cap_tracking_error,
        }


def run_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    n_shards: int = 1,
    workers: int = 1,
    keep_events: bool = True,
) -> ScenarioResult:
    """Run one scenario end to end.

    ``workers`` is the sweep-runner pool width inside each shard; fleet
    settles are one-task batches, so it never changes the run.
    """
    lowered = lower_scenario(scenario, seed=seed)
    outcome = run_cell_specs(
        lowered.cells,
        lowered.policy,
        n_shards=n_shards,
        workers=workers,
        keep_events=keep_events,
        trace_seed=lowered.trace_seed,
    )
    return _summarize(lowered, outcome)


def _summarize(
    lowered: LoweredScenario, outcome: ShardedOutcome
) -> ScenarioResult:
    groups: List[GroupSummary] = []
    for group in lowered.scenario.topology.groups:
        cell_results = [
            outcome.by_cell[cell.index]
            for cell in lowered.cells
            if cell.label == group.name
        ]
        groups.append(
            GroupSummary(
                name=group.name,
                servers=group.servers,
                age_years=group.age_years,
                adaptive_energy_kwh=sum(
                    r.adaptive_energy_kwh for r in cell_results
                ),
                static_energy_kwh=sum(
                    r.static_energy_kwh for r in cell_results
                ),
                n_arrivals=sum(r.n_arrivals for r in cell_results),
                n_completions=sum(r.n_completions for r in cell_results),
                qos_violations=sum(r.qos_violations for r in cell_results),
                fallback_seconds=sum(
                    r.total_fallback_seconds for r in cell_results
                ),
            )
        )
    cap = lowered.scenario.policy.server_power_cap_w
    cap_exceeded = 0
    if cap is not None:
        cap_exceeded = sum(
            1
            for entry in outcome.merged.events
            if entry.get("kind") == "epoch"
            and entry.get("adaptive_power_w", 0.0) > cap
        )
    return ScenarioResult(
        scenario=lowered.scenario,
        fleet=outcome.merged,
        groups=tuple(groups),
        retries=outcome.retries,
        cap_exceeded_epochs=cap_exceeded,
    )


# ----------------------------------------------------------------------
# Golden adjudication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenVerdict:
    """One scenario's golden adjudication."""

    scenario_name: str
    failures: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_result(result: ScenarioResult) -> GoldenVerdict:
    """Adjudicate a finished run against its scenario's golden block."""
    golden = result.scenario.golden
    fleet = result.fleet
    failures: List[str] = []

    def exact(name: str, expected, actual) -> None:
        if expected is not None and actual != expected:
            failures.append(f"{name}: expected {expected}, got {actual}")

    def at_most(name: str, limit, actual) -> None:
        if limit is not None and actual > limit:
            failures.append(f"{name}: {actual} exceeds max {limit}")

    def at_least(name: str, floor, actual) -> None:
        if floor is not None and actual < floor:
            failures.append(f"{name}: {actual} below min {floor}")

    exact("event_log_hash", golden.event_log_hash, fleet.event_log_hash)
    exact("n_arrivals", golden.n_arrivals, fleet.n_arrivals)
    exact("n_completions", golden.n_completions, fleet.n_completions)
    at_most("qos_violations", golden.qos_violations_max,
            fleet.qos_violations)
    exact("n_server_crashes", golden.n_server_crashes,
          fleet.n_server_crashes)
    exact("n_job_kills", golden.n_job_kills, fleet.n_job_kills)
    at_least("n_requeues", golden.n_requeues_min, fleet.n_requeues)
    at_least("saving_fraction", golden.saving_fraction_min,
             fleet.saving_fraction)
    at_most("saving_fraction", golden.saving_fraction_max,
            fleet.saving_fraction)
    at_least("total_fallback_seconds", golden.total_fallback_seconds_min,
             fleet.total_fallback_seconds)
    at_most("total_fallback_seconds", golden.total_fallback_seconds_max,
            fleet.total_fallback_seconds)
    at_least("adaptive_energy_kwh", golden.adaptive_energy_kwh_min,
             fleet.adaptive_energy_kwh)
    at_most("adaptive_energy_kwh", golden.adaptive_energy_kwh_max,
            fleet.adaptive_energy_kwh)
    at_most("cap_exceeded_epochs", golden.cap_exceeded_epochs_max,
            result.cap_exceeded_epochs)
    at_most("cap_tracking_error", golden.cap_tracking_error_max,
            fleet.cap_tracking_error)
    if not fleet.conserved:
        failures.append(
            "job conservation violated: "
            f"{fleet.n_arrivals} arrivals != {fleet.n_completions} "
            f"completed + {fleet.n_running} running + "
            f"{fleet.n_queued} queued"
        )
    return GoldenVerdict(
        scenario_name=result.scenario.name, failures=tuple(failures)
    )


def check_scenario(scenario: Scenario, n_shards: int = 1) -> GoldenVerdict:
    """Run a scenario under its own pinned seed and adjudicate goldens.

    Raises :class:`ScenarioError` when the scenario carries no golden
    block — checking nothing must not read as passing.
    """
    if scenario.golden.is_empty:
        raise ScenarioError(
            f"scenario {scenario.name!r} has no [golden] block to check"
        )
    return check_result(run_scenario(scenario, n_shards=n_shards))
