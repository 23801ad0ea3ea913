"""Lowering scenarios onto the fleet engine, and adjudicating goldens.

A :class:`~repro.scenarios.model.Scenario` runs by compilation, not
interpretation: :func:`lower_scenario` turns the declarative topology
into the cell list the sharded executor already understands —

* each server *group* becomes one or more :class:`~repro.fleet.shard.CellSpec`
  cells whose :class:`~repro.fleet.engine.FleetConfig` carries the
  group's **aged** server config (via
  :func:`repro.chip.aging.aged_server_config`) and a **per-group die
  seed** (``derive_seed(seed, {"stream": "scenario-die", "group": name})``),
  so generations age and vary independently while sharing one job
  stream;
* each declarative fault window lowers onto concrete
  :class:`~repro.faults.spec.FaultSpec` objects with *cell-local* server
  ids, fanned out per server when ``all_servers`` is set;
* the shared arrival trace is seeded by the scenario seed itself, so the
  traffic never couples to any group's silicon.

Because the lowered cells run through
:func:`~repro.fleet.shard.run_cell_specs`, the merged event log — and
its SHA-256, the run's identity — is bit-identical across ``--shards``
and ``--workers`` counts by construction, which is what lets catalog
goldens pin exact hashes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..chip.aging import AgingModel, aged_server_config
from ..config import ServerConfig
from ..errors import ScenarioError
from ..faults.plan import FaultPlan
from ..faults.spec import FaultSpec, ServerCrashFault
from ..fleet.engine import FleetConfig
from ..fleet.metrics import FleetResult
from ..fleet.powercap import decompose_budget
from ..fleet.scheduler import POLICIES, FleetPolicy
from ..fleet.shard import (
    CellSpec,
    ShardedOutcome,
    ShardRetry,
    run_cell_specs,
)
from ..sim.batch import derive_seed
from .model import Scenario, ServerGroupSpec


@dataclass(frozen=True)
class GroupCells:
    """Where one topology group landed in the lowered cell list."""

    group: ServerGroupSpec

    #: Cell indices (into the lowered cell list) this group occupies.
    cell_indices: Tuple[int, ...]

    #: Global server id of the group's first server.
    server_offset: int


@dataclass(frozen=True)
class LoweredScenario:
    """A scenario compiled to the fleet executor's vocabulary."""

    scenario: Scenario
    cells: Tuple[CellSpec, ...]
    policy: FleetPolicy
    groups: Tuple[GroupCells, ...]

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


def _lower_fault_windows(
    scenario: Scenario,
) -> Tuple[Dict[str, List[FaultSpec]], List[FaultSpec]]:
    """Fault windows → per-group specs with *group-local* server ids.

    Job kills carry no server target, so they are returned separately
    and routed later by job id (the cell the job lands in is a property
    of the lowered cell list, not of the group).
    """
    per_group: Dict[str, List[FaultSpec]] = {}
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
        for server in targets:
            per_group.setdefault(group.name, []).append(window.fault(server))
    return per_group, job_kills


def _budget_schedules(
    scenario: Scenario,
    per_group_faults: Dict[str, List[FaultSpec]],
    cell_sizes: List[int],
) -> Dict[int, Tuple[Tuple[float, float], ...]]:
    """Compile crash/repair windows into per-cell budget schedules.

    A crashed server draws nothing, so leaving the fleet budget's cell
    decomposition fixed would strand the dead cell's watts while its
    survivors throttle.  The crash windows are known declaratively, so
    the re-decomposition is computed *statically*: at every membership
    change the fleet budget is re-split over the live server counts, and
    each cell gets its share as a ``(time, budget)`` schedule applied at
    tick boundaries.  No cross-cell runtime communication — the sharded
    digest stays invariant.  Cells momentarily holding zero live servers
    keep their previous budget (their live mask hands out nothing).
    """
    budget = scenario.policy.fleet_power_budget_w
    if budget is None:
        return {}
    # Pre-pass mirroring the cell construction order, mapping each
    # group-local crash spec onto the cell that owns its server.
    events: List[Tuple[float, int, int]] = []
    cell_cursor = 0
    for group in scenario.topology.groups:
        specs = per_group_faults.get(group.name, [])
        for local_offset, size in group.cell_spans:
            for spec in specs:
                if not isinstance(spec, ServerCrashFault):
                    continue
                if not local_offset <= spec.server_id < local_offset + size:
                    continue
                events.append((spec.start_seconds, cell_cursor, -1))
                if spec.repair_seconds is not None:
                    events.append(
                        (
                            spec.start_seconds + spec.repair_seconds,
                            cell_cursor,
                            +1,
                        )
                    )
            cell_cursor += 1
    if not events:
        return {}
    live = list(cell_sizes)
    schedules: Dict[int, List[Tuple[float, float]]] = {}
    for at_seconds in sorted({t for t, _, _ in events}):
        for t, cell_index, delta in events:
            if t == at_seconds:
                live[cell_index] += delta
        alive = [max(0, n) for n in live]
        if sum(alive) <= 0:
            continue
        shares = decompose_budget(budget, alive)
        for cell_index, share in enumerate(shares):
            if share is not None and share > 0:
                schedules.setdefault(cell_index, []).append(
                    (at_seconds, share)
                )
    return {
        cell_index: tuple(entries)
        for cell_index, entries in schedules.items()
    }


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
    policy = POLICIES[effective.policy.policy]
    per_group_faults, job_kills = _lower_fault_windows(effective)

    cells: List[CellSpec] = []
    groups: List[GroupCells] = []
    n_cells_total = effective.topology.n_cells
    # A fleet power budget decomposes across every cell of the topology
    # proportionally to cell size, mirroring run_sharded — each cell's
    # coordinator tracks its share independently, so the event log stays
    # invariant across shard/worker counts.
    cell_sizes = [
        size
        for group in effective.topology.groups
        for _, size in group.cell_spans
    ]
    budget_shares = decompose_budget(
        effective.policy.fleet_power_budget_w, cell_sizes
    )
    budget_schedules = _budget_schedules(
        effective, per_group_faults, cell_sizes
    )
    server_offset = 0
    for group in effective.topology.groups:
        server_config = _group_server_config(effective, group)
        die_seed = _group_die_seed(effective, group)
        group_gain = _group_cap_gain(effective, group)
        group_fault_specs = per_group_faults.get(group.name, [])
        indices: List[int] = []
        for local_offset, size in group.cell_spans:
            cell_index = len(cells)
            config = FleetConfig(
                server_config=server_config,
                n_servers=size,
                traffic=effective.traffic,
                seed=die_seed,
                qos_frequency_fraction=(
                    effective.policy.qos_frequency_fraction
                ),
                power_off_hysteresis_seconds=(
                    effective.policy.power_off_hysteresis_seconds
                ),
                utilization_threshold=(
                    effective.policy.utilization_threshold
                ),
                power_cap_w=effective.policy.server_power_cap_w,
                fleet_power_budget_w=budget_shares[cell_index],
                cap_interval_seconds=(
                    effective.policy.power_cap_interval_seconds
                ),
                cap_gain=group_gain,
                cap_gains=(
                    (group_gain,) * size
                    if effective.policy.fleet_power_budget_w is not None
                    else None
                ),
                fleet_power_budget_schedule=budget_schedules.get(
                    cell_index, ()
                ),
            )
            # Specs whose group-local server id falls inside this cell,
            # rebased to cell-local ids.
            cell_specs = tuple(
                dataclasses.replace(
                    spec, server_id=spec.server_id - local_offset
                )
                for spec in group_fault_specs
                if local_offset <= spec.server_id < local_offset + size
            )
            # Job kills route by modular cell index, like the jobs.
            cell_specs += tuple(
                kill
                for kill in job_kills
                if kill.job_id % n_cells_total == cell_index
            )
            cells.append(
                CellSpec(
                    index=cell_index,
                    offset=server_offset + local_offset,
                    config=config,
                    fault_plan=(
                        FaultPlan(
                            specs=cell_specs, seed=effective.faults.seed
                        )
                        if cell_specs
                        else None
                    ),
                    label=group.name,
                )
            )
            indices.append(cell_index)
        groups.append(
            GroupCells(
                group=group,
                cell_indices=tuple(indices),
                server_offset=server_offset,
            )
        )
        server_offset += group.servers
    return LoweredScenario(
        scenario=effective,
        cells=tuple(cells),
        policy=policy,
        groups=tuple(groups),
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
    """Run one scenario end to end."""
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
    for placement in lowered.groups:
        cell_results = [
            outcome.by_cell[index] for index in placement.cell_indices
        ]
        groups.append(
            GroupSummary(
                name=placement.group.name,
                servers=placement.group.servers,
                age_years=placement.group.age_years,
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


def check_scenario(
    scenario: Scenario, n_shards: int = 1, workers: int = 1
) -> GoldenVerdict:
    """Run a scenario under its own pinned seed and adjudicate goldens.

    Raises :class:`ScenarioError` when the scenario carries no golden
    block — checking nothing must not read as passing.
    """
    if scenario.golden.is_empty:
        raise ScenarioError(
            f"scenario {scenario.name!r} has no [golden] block to check"
        )
    result = run_scenario(
        scenario, n_shards=n_shards, workers=workers, keep_events=True
    )
    return check_result(result)
