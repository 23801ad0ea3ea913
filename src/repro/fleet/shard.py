"""Sharded fleet execution: fixed cells, deterministic cross-shard merge.

Scaling the fleet day past a few hundred servers needs process
parallelism, but the event-log SHA-256 is the run's identity — it must
not depend on how many processes happened to execute.  The decomposition
therefore has two independent axes:

* **cells** — the *semantic* unit.  :func:`build_cells` cuts each
  server group into fixed cells of ``cell_servers`` servers; every job
  is routed to the cell ``job_id % n_cells``.  Each cell runs a
  completely independent :class:`~repro.fleet.engine.FleetSimulation`
  over its own sub-trace.  The cell list is a pure function of the
  groups, the fault plan and the budget — it never changes with the
  process count.
* **shards** — the *execution* unit.  Cells are distributed over
  ``n_shards`` worker processes.  Because cells share nothing, any
  assignment of cells to shards computes bit-identical per-cell results;
  the canonical merged log (and its SHA-256) is therefore invariant
  across ``n_shards`` by construction.  This is enforced by test.

The canonical merged stream orders entries by ``(time_ns, cell_id,
seq)`` where ``seq`` is the entry's position in its cell's log — a
stable k-way merge of already-ordered streams.  Each cell's engine logs
global server ids (cell offset + local id), so the merged log reads as
one coherent fleet.

A single cell (``cell_servers >= n_servers``) routes every job to
cell 0, which simulates exactly :class:`FleetSimulation` over the full
trace — so the sharded digest degenerates to the plain one.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..faults.plan import FaultPlan
from ..faults.spec import (
    CacheCorruptionFault,
    FaultSpec,
    JobKillFault,
    ServerCrashFault,
)
from ..obs import observability
from ..sim.batch import MAX_SHARD_RETRIES, SweepRunner, fan_out
from .engine import FleetConfig, FleetSimulation, reject_standalone_specs
from .metrics import FleetComparison, FleetResult, JobRecord, jsonl_digest
from .powercap import decompose_budget
from .settle_cache import ensure_settle_cache_dir, fleet_settle_cache
from .scheduler import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    UNGATED_AGS_POLICY,
    FleetPolicy,
)
from .traffic import generate_trace


# ----------------------------------------------------------------------
# Cell assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One independently simulated cell of a (possibly mixed) fleet.

    :func:`build_cells` cuts them from server *groups*, which is what
    lets groups carry different configurations (aged silicon, distinct
    die seeds, different sizes) inside one merged run.  Jobs route to
    the cell whose ``index`` equals ``job_id % n_cells``.
    """

    #: Global cell index — the routing key.
    index: int

    #: Global server id of the cell's first server.
    offset: int

    #: Cell-local fleet configuration: ``n_servers`` is the cell size and
    #: ``seed`` the cell's die seed; ``traffic`` must be shared by every
    #: cell of one run (it defines the horizon and the global trace).
    config: FleetConfig

    #: Cell-local fault plan (server ids already rebased to the cell).
    fault_plan: Optional[FaultPlan] = None

    #: Human-facing tag (scenario server-group name); never hashed.
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SchedulingError(f"cell index must be >= 0, got {self.index}")
        if self.offset < 0:
            raise SchedulingError(
                f"cell offset must be >= 0, got {self.offset}"
            )


#: One server group handed to :func:`build_cells`: its template config
#: (``n_servers`` is the group size), its cell width (``None``: the
#: whole group is one cell) and its label.
CellGroup = Tuple[FleetConfig, Optional[int], str]


def build_cells(
    groups: Sequence[CellGroup],
    fault_plan: Optional[FaultPlan] = None,
    budget_w: Optional[float] = None,
) -> Tuple[CellSpec, ...]:
    """Cut server groups into cells; route faults and budget shares.

    Groups occupy consecutive global server ids in order.  Each group is
    partitioned into cells of its fixed width (only the last cell may be
    narrower), and cells are indexed globally in the same order.

    ``fault_plan`` uses global server ids.  A spec with a ``server_id``
    goes to the cell owning that server, rebased to a cell-local id; a
    job kill goes to cell ``job_id % n_cells``, like the job itself; a
    :class:`~repro.faults.spec.CacheCorruptionFault` goes to every cell,
    because each cell (hence each worker process) arms its own settle
    cache — tearing only forces recomputation, so the digest holds.
    Each cell keeps its specs in plan order.  Standalone specs
    (``server_id is None``) configure the process-wide measure-path
    injector, which no fleet cell runs, so they are rejected.

    ``budget_w`` (``None``: no fleet budget) is split over the cells
    proportionally to size.  A crashed server draws nothing, so at
    every crash and repair the budget is split again over the live
    server counts and each cell gets its share as a ``(time, budget)``
    schedule its coordinator applies at tick boundaries — statically,
    with no cross-cell communication, so the merged digest stays
    invariant across shard counts.  A cell momentarily holding no live
    server keeps its previous budget.  Without crashes a cell keeps its
    template's own ``fleet_power_budget_schedule``.
    """
    if not groups:
        raise SchedulingError("build_cells needs at least one group")
    spans: List[Tuple[FleetConfig, str, int, int]] = []
    first_server = 0
    for config, cell_servers, label in groups:
        width = config.n_servers if cell_servers is None else cell_servers
        if width < 1:
            raise SchedulingError(f"cell_servers must be >= 1, got {width}")
        for first in range(0, config.n_servers, width):
            spans.append(
                (
                    config,
                    label,
                    first_server + first,
                    min(width, config.n_servers - first),
                )
            )
        first_server += config.n_servers
    n_cells = len(spans)
    offsets = [offset for _, _, offset, _ in spans]
    sizes = [size for _, _, _, size in spans]
    plan = fault_plan if fault_plan is not None else FaultPlan()
    reject_standalone_specs(plan)
    per_cell: List[List[FaultSpec]] = [[] for _ in spans]
    # ``(time_seconds, cell, live-server delta)`` per crash and repair.
    membership: List[Tuple[float, int, int]] = []
    for spec in plan.specs:
        if isinstance(spec, CacheCorruptionFault):
            for specs in per_cell:
                specs.append(spec)
            continue
        if isinstance(spec, JobKillFault):
            per_cell[spec.job_id % n_cells].append(spec)
            continue
        server_id = spec.server_id
        if not 0 <= server_id < first_server:
            raise SchedulingError(
                f"{spec.kind}: server_id must be in [0, {first_server}), "
                f"got {server_id}"
            )
        cell = bisect_right(offsets, server_id) - 1
        per_cell[cell].append(
            dataclasses.replace(spec, server_id=server_id - offsets[cell])
        )
        if isinstance(spec, ServerCrashFault):
            membership.append((spec.start_seconds, cell, -1))
            if spec.repair_seconds is not None:
                membership.append(
                    (spec.start_seconds + spec.repair_seconds, cell, +1)
                )
    schedules: Dict[int, List[Tuple[float, float]]] = {}
    if budget_w is not None:
        live = list(sizes)
        for at_seconds, changes in itertools.groupby(
            sorted(membership), key=lambda change: change[0]
        ):
            for _, cell, delta in changes:
                live[cell] += delta
            alive = [max(0, n) for n in live]
            if sum(alive) <= 0:
                continue
            for cell, share in enumerate(decompose_budget(budget_w, alive)):
                if share > 0:
                    schedules.setdefault(cell, []).append((at_seconds, share))
    shares = decompose_budget(budget_w, sizes)
    return tuple(
        CellSpec(
            index=index,
            offset=offset,
            config=dataclasses.replace(
                config,
                n_servers=size,
                fleet_power_budget_w=shares[index],
                fleet_power_budget_schedule=schedules.get(
                    index, config.fleet_power_budget_schedule
                ),
            ),
            fault_plan=(
                FaultPlan(specs=tuple(per_cell[index]), seed=plan.seed)
                if per_cell[index]
                else None
            ),
            label=label,
        )
        for index, (config, label, offset, size) in enumerate(spans)
    )


# ----------------------------------------------------------------------
# Per-cell execution (runs in worker processes)
# ----------------------------------------------------------------------
def _simulate_cell(
    cell: CellSpec,
    policy: FleetPolicy,
    trace: Tuple,
    workers: int,
    keep_events: bool = False,
) -> Tuple[FleetResult, List[Tuple[int, str]]]:
    """Simulate one cell; returns its result and canonical log lines.

    The cell's engine is built with the cell's offset, so its log,
    job records and fallback dwell already carry global server ids, and
    the lines it rendered for its own digest are the ones returned: the
    parent only merges strings and no entry is rendered twice.  The
    returned result's ``event_log_hash`` is therefore over global ids;
    nothing reads it (the merge hashes the lines).  ``keep_events``
    keeps the result's ``events``, so the merge need not parse the lines.
    """
    runner = SweepRunner(max_workers=workers, seed_root=cell.config.seed)
    sim = FleetSimulation(
        cell.config,
        policy,
        runner=runner,
        trace=trace,
        fault_plan=cell.fault_plan,
        server_offset=cell.offset,
    )
    result = sim.run()
    if not keep_events:
        result = dataclasses.replace(result, events=())
    return result, sim.log.timed_lines()


#: Environment hook for deterministic worker-death tests:
#: ``kill:cell=<index>,attempt=<n>`` makes the pool worker about to
#: simulate that cell on that execution attempt die with ``os._exit``.
#: Re-runs carry higher attempt numbers, so the kill fires exactly once
#: and the recovery path is exercised deterministically.  The hook never
#: fires in the parent process (the in-process last resort stays safe).
ENV_SHARD_FAULT = "REPRO_SHARD_FAULT"


def _maybe_inject_worker_fault(cell_index: int, attempt: int) -> None:
    """Honor :data:`ENV_SHARD_FAULT` (pool workers only)."""
    spec = os.environ.get(ENV_SHARD_FAULT)
    if not spec:
        return
    # Imported only under the hook: a fault-free run never loads it.
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    action, _, params = spec.partition(":")
    try:
        fields = dict(
            item.split("=", 1) for item in params.split(",") if item
        )
        target_cell = int(fields.get("cell", -1))
        target_attempt = int(fields.get("attempt", 0))
    except ValueError:
        return
    if (
        action == "kill"
        and cell_index == target_cell
        and attempt == target_attempt
    ):
        os._exit(17)


def _run_spec_batch(
    payload: tuple, attempt: int
) -> List[Tuple[int, FleetResult, list]]:
    """Worker entry point: run a batch of cell specs sequentially.

    Module-level so :func:`~repro.sim.batch.fan_out`'s pool can pickle
    it; also the in-process path, which guarantees shard counts cannot
    change results.  The trace is regenerated from ``(traffic,
    trace_seed)`` rather than shipped across the process boundary, then
    bucketed by modular routing — a 625-cell fleet regenerates its
    million-job trace once per *shard*, not once per cell.  ``attempt``
    (the batch's re-run count) only keys the :data:`ENV_SHARD_FAULT`
    hook.
    """
    (
        traffic,
        trace_seed,
        policy,
        cells,
        workers,
        n_cells,
        settle_dir,
        keep_events,
    ) = payload
    # Point this process's settle cache at the parent's shared directory:
    # a pool worker starts cold and rebuilds against it; the in-process
    # path already matches and keeps its warm memory layer.
    ensure_settle_cache_dir(settle_dir)
    by_index: Dict[int, List] = {cell.index: [] for cell in cells}
    for job in generate_trace(traffic, trace_seed):
        index = job.job_id % n_cells
        if index in by_index:
            by_index[index].append(job)
    out = []
    for cell in cells:
        _maybe_inject_worker_fault(cell.index, attempt)
        result, lines = _simulate_cell(
            cell, policy, tuple(by_index.pop(cell.index)), workers, keep_events
        )
        out.append((cell.index, result, lines))
    return out


# ----------------------------------------------------------------------
# The merge
# ----------------------------------------------------------------------
def _merged_stream(
    cell_lines: Dict[int, List[Tuple[int, str]]],
) -> Iterator[Tuple[int, int, int, str]]:
    """K-way merge of per-cell logs, keyed ``(time_ns, cell_id, seq)``.

    Each cell's stream is already time-ordered, so the merge is stable
    and linear; the key makes simultaneous cross-cell events rank by
    cell id, then by each cell's own event order.
    """
    def stream(cell_id: int, lines: List[Tuple[int, str]]):
        for seq, (time_ns, line) in enumerate(lines):
            yield (time_ns, cell_id, seq, line)

    return heapq.merge(
        *(stream(cell_id, lines) for cell_id, lines in sorted(cell_lines.items()))
    )


def merge_cell_results(
    config: FleetConfig,
    policy: FleetPolicy,
    cell_results: Dict[int, FleetResult],
    cell_lines: Dict[int, List[Tuple[int, str]]],
    keep_events: bool = True,
) -> FleetResult:
    """Fold per-cell outcomes into one fleet-level :class:`FleetResult`.

    The merged ``event_log_hash`` is the SHA-256 over the canonically
    merged JSONL stream — the sharded run's identity.  ``keep_events``
    retains the merged entries on the result, taken from each cell's own
    ``events`` (so every cell must have kept them: ``_simulate_cell(...,
    keep_events=True)``); large benchmark runs pass ``False`` to keep
    memory flat.
    """
    merged_events: List[dict] = []

    def merged_lines() -> Iterator[str]:
        for _, cell_id, seq, line in _merged_stream(cell_lines):
            if keep_events:
                merged_events.append(cell_results[cell_id].events[seq])
            yield line

    event_log_hash = jsonl_digest(merged_lines())
    results = [cell_results[cell_id] for cell_id in sorted(cell_results)]
    records: List[JobRecord] = []
    for result in results:
        records.extend(result.job_records)
    records.sort(key=lambda record: record.job_id)
    fallback: List[Tuple[int, int, float]] = []
    for result in results:
        fallback.extend(result.fallback_seconds)
    return FleetResult(
        policy=policy.name,
        horizon_ns=config.horizon_ns,
        adaptive_energy_joules=sum(
            r.adaptive_energy_joules for r in results
        ),
        static_energy_joules=sum(r.static_energy_joules for r in results),
        n_arrivals=sum(r.n_arrivals for r in results),
        n_completions=sum(r.n_completions for r in results),
        n_running=sum(r.n_running for r in results),
        n_queued=sum(r.n_queued for r in results),
        qos_violations=sum(r.qos_violations for r in results),
        n_epochs=sum(r.n_epochs for r in results),
        event_log_hash=event_log_hash,
        job_records=tuple(records),
        events=tuple(merged_events),
        n_requeues=sum(r.n_requeues for r in results),
        n_server_crashes=sum(r.n_server_crashes for r in results),
        n_job_kills=sum(r.n_job_kills for r in results),
        fallback_seconds=tuple(sorted(fallback)),
        # Budgets decompose across cells, so sums roll the fleet totals
        # back up; each cell's steady-state window is the same trailing
        # quarter, so the measured sums are comparable.
        cap_budget_w=sum(r.cap_budget_w for r in results),
        cap_measured_steady_w=sum(
            r.cap_measured_steady_w for r in results
        ),
        cap_throttle_epochs=sum(r.cap_throttle_epochs for r in results),
        powercap_ticks=sum(r.powercap_ticks for r in results),
    )


@dataclass(frozen=True)
class ShardRetry:
    """One recovered re-execution of a shard cell.

    A worker process dying (OOM kill, segfault, node reboot) surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool`, and
    :func:`~repro.sim.batch.fan_out` re-runs the batch it was running.
    Per-cell results are pure functions of the cell spec, so the
    recovered merged digest is bit-identical to an unfaulted run
    (enforced by test).
    """

    #: A cell of the batch that failed and was re-executed.
    cell_index: int

    #: Re-execution attempt number (1-based; attempt 0 is the original).
    attempt: int

    #: Why the previous execution failed: ``broken_pool``.
    reason: str

    #: How the retry ran: ``fresh_pool`` | ``in_process``.
    recovered_via: str


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedOutcome:
    """A merged fleet result plus the per-cell results that built it.

    ``by_cell`` keeps the per-cell ledgers (events stripped, ids already
    global) so callers — notably the scenario runner's per-group
    rollups — can attribute energy and QoS to individual cells without
    re-running anything.  ``retries`` is the recovery manifest: one
    entry per re-executed cell, empty on a clean run.
    """

    merged: FleetResult
    by_cell: Dict[int, FleetResult]
    retries: Tuple[ShardRetry, ...] = ()


def run_cell_specs(
    cells: Sequence[CellSpec],
    policy: FleetPolicy,
    n_shards: int = 1,
    workers: int = 1,
    keep_events: bool = True,
    trace_seed: Optional[int] = None,
) -> ShardedOutcome:
    """Run an explicit cell list — homogeneous or mixed — and merge.

    Every cell must share one traffic config (it defines the horizon and
    the global trace); ``cells[i].index`` must cover ``0..len(cells)-1``
    exactly, because modular job routing assumes a dense index space.
    ``trace_seed`` seeds the shared arrival stream and defaults to cell
    0's config seed — heterogeneous runs whose cells carry per-group die
    seeds pass the scenario seed explicitly so the traffic stream does
    not couple to any one group's silicon.  The merged event log (and
    SHA-256) is invariant across ``n_shards`` by construction, exactly
    as in the homogeneous case.

    Batches fan out through :func:`~repro.sim.batch.fan_out`, so worker
    death never fails the run: the dead worker's batches re-run on a
    fresh pool for up to :data:`MAX_SHARD_RETRIES` rounds, then
    in-process.  Each re-executed cell is recorded on
    :attr:`ShardedOutcome.retries`.  An exception raised while
    simulating a cell propagates with its original type.
    """
    if n_shards < 1:
        raise SchedulingError(f"n_shards must be >= 1, got {n_shards}")
    if workers < 1:
        raise SchedulingError(f"workers must be >= 1, got {workers}")
    if not cells:
        raise SchedulingError("run_cell_specs needs at least one cell")
    ordered = sorted(cells, key=lambda cell: cell.index)
    if [cell.index for cell in ordered] != list(range(len(ordered))):
        raise SchedulingError(
            "cell indices must be exactly 0..n_cells-1; got "
            f"{[cell.index for cell in cells]}"
        )
    traffics = {id(cell.config.traffic): cell.config.traffic for cell in ordered}
    if len({repr(t) for t in traffics.values()}) > 1:
        raise SchedulingError(
            "every cell of one run must share the same traffic config"
        )
    traffic = ordered[0].config.traffic
    if trace_seed is None:
        trace_seed = ordered[0].config.seed
    n_cells = len(ordered)
    # Contiguous round-robin assignment; any assignment yields the same
    # merged log, this one just balances cell counts.
    batches = [
        ordered[shard::n_shards]
        for shard in range(min(n_shards, n_cells))
    ]
    settle_dir = fleet_settle_cache().disk_dir
    outcomes, reruns, _ = fan_out(
        _run_spec_batch,
        [
            (traffic, trace_seed, policy, batch, workers, n_cells, settle_dir,
             keep_events)
            for batch in batches
        ],
        len(batches),
    )
    retries: List[ShardRetry] = []
    for attempt in range(1, max(reruns) + 1):
        via = "in_process" if attempt > MAX_SHARD_RETRIES else "fresh_pool"
        for batch, batch_reruns in zip(batches, reruns):
            if batch_reruns < attempt:
                continue
            for cell in batch:
                retries.append(
                    ShardRetry(
                        cell_index=cell.index,
                        attempt=attempt,
                        reason="broken_pool",
                        recovered_via=via,
                    )
                )
                observability().count(
                    "fleet_shard_retries_total",
                    help_text="Failed shard batches re-executed "
                    "deterministically.",
                    reason="broken_pool",
                    via=via,
                )
    cell_results: Dict[int, FleetResult] = {}
    cell_lines: Dict[int, List[Tuple[int, str]]] = {}
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        for cell_id, result, lines in outcome:
            cell_results[cell_id] = result
            cell_lines[cell_id] = lines
    merged = merge_cell_results(
        ordered[0].config, policy, cell_results, cell_lines,
        keep_events=keep_events,
    )
    by_cell = {i: dataclasses.replace(r, events=()) for i, r in cell_results.items()}
    return ShardedOutcome(merged=merged, by_cell=by_cell, retries=tuple(retries))


def run_sharded(
    config: FleetConfig,
    policy: FleetPolicy = AGS_POLICY,
    n_shards: int = 1,
    cell_servers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    workers: int = 1,
    keep_events: bool = True,
) -> FleetResult:
    """One policy's sharded run over the homogeneous fleet day.

    Parameters
    ----------
    n_shards:
        Worker-process count.  Pure execution parallelism: any value
        produces the identical merged log and SHA-256.
    cell_servers:
        Cell width in servers.  ``None`` puts the whole fleet in one
        cell (the plain, unsharded semantics).  The cell partition — not
        the shard count — defines the run's scheduling topology, so it
        is part of the run's identity.  Faults and any fleet budget are
        routed to the cells by :func:`build_cells`.
    workers:
        Sweep-runner pool width *inside* each shard.
    keep_events:
        Retain the merged event stream on the result (see
        :func:`merge_cell_results`).
    """
    cells = build_cells(
        [(config, cell_servers, "")],
        fault_plan,
        config.fleet_power_budget_w,
    )
    return run_cell_specs(
        cells, policy, n_shards=n_shards, workers=workers,
        keep_events=keep_events,
    ).merged


def run_comparison(
    config: FleetConfig,
    n_shards: int = 1,
    cell_servers: Optional[int] = None,
    advisor_gate: bool = True,
    keep_events: bool = True,
) -> FleetComparison:
    """AGS vs. static guardband vs. consolidation over one fleet day.

    The static-guardband baseline rides along with the AGS run (every
    settle covers both guardbands of its placement), so only two runs
    execute.  ``n_shards=1`` with no ``cell_servers`` is the plain,
    unsharded simulation.
    """
    ags_policy = AGS_POLICY if advisor_gate else UNGATED_AGS_POLICY
    ags, consolidation = (
        run_sharded(
            config,
            policy,
            n_shards=n_shards,
            cell_servers=cell_servers,
            keep_events=keep_events,
        )
        for policy in (ags_policy, CONSOLIDATION_POLICY)
    )
    return FleetComparison(ags=ags, consolidation=consolidation)


def default_shards() -> int:
    """A sensible shard count for the local machine."""
    return max(1, (os.cpu_count() or 2) - 1)
