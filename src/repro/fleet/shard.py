"""Sharded fleet execution: fixed cells, deterministic cross-shard merge.

Scaling the fleet day past a few hundred servers needs process
parallelism, but the event-log SHA-256 is the run's identity — it must
not depend on how many processes happened to execute.  The decomposition
therefore has two independent axes:

* **cells** — the *semantic* unit.  The fleet is partitioned into fixed
  cells of ``cell_servers`` servers; every job is routed to the cell
  ``job_id % n_cells``.  Each cell runs a completely independent
  :class:`~repro.fleet.engine.FleetSimulation` over its own sub-trace.
  The cell layout is a pure function of ``(n_servers, cell_servers)`` —
  it never changes with the process count.
* **shards** — the *execution* unit.  Cells are distributed over
  ``n_shards`` worker processes.  Because cells share nothing, any
  assignment of cells to shards computes bit-identical per-cell results;
  the canonical merged log (and its SHA-256) is therefore invariant
  across ``n_shards`` by construction.  This is enforced by test.

The canonical merged stream orders entries by ``(time_ns, cell_id,
seq)`` where ``seq`` is the entry's position in its cell's log — a
stable k-way merge of already-ordered streams.  Per-cell server ids are
remapped to global ids (cell offset + local id) *before* rendering, so
the merged log reads as one coherent fleet.

A single-cell layout (``cell_servers >= n_servers``) routes every job to
cell 0, which simulates exactly :class:`FleetSimulation` over the full
trace — so the sharded digest degenerates to the plain one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import FaultError, SchedulingError
from ..faults.plan import FaultPlan
from ..faults.spec import CacheCorruptionFault, JobKillFault
from ..obs import observability
from ..sim.batch import MAX_SHARD_RETRIES, SweepRunner, fan_out
from ..sim.cache import canonical_json
from .engine import FleetConfig, FleetSimulation
from .metrics import FleetComparison, FleetResult, JobRecord
from .powercap import decompose_budget
from .settle_cache import ensure_settle_cache_dir, fleet_settle_cache
from .scheduler import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    UNGATED_AGS_POLICY,
    FleetPolicy,
)
from .traffic import generate_trace


@dataclass(frozen=True)
class CellLayout:
    """The fixed cell partition of one fleet."""

    n_servers: int
    cell_servers: int

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise SchedulingError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.cell_servers < 1:
            raise SchedulingError(
                f"cell_servers must be >= 1, got {self.cell_servers}"
            )

    @property
    def n_cells(self) -> int:
        """Number of cells (the last one may be smaller)."""
        return -(-self.n_servers // self.cell_servers)

    def cell_of_job(self, job_id: int) -> int:
        """The cell a job is routed to."""
        return job_id % self.n_cells

    def cell_of_server(self, server_id: int) -> int:
        """The cell owning a global server id."""
        if not 0 <= server_id < self.n_servers:
            raise SchedulingError(
                f"server_id must be in [0, {self.n_servers}), got {server_id}"
            )
        return server_id // self.cell_servers

    def offset(self, cell_id: int) -> int:
        """Global id of a cell's first server."""
        return cell_id * self.cell_servers

    def size(self, cell_id: int) -> int:
        """Number of servers in one cell."""
        if not 0 <= cell_id < self.n_cells:
            raise SchedulingError(
                f"cell_id must be in [0, {self.n_cells}), got {cell_id}"
            )
        return (
            min(self.n_servers, self.offset(cell_id) + self.cell_servers)
            - self.offset(cell_id)
        )


def _split_fault_plan(
    plan: FaultPlan, layout: CellLayout
) -> Dict[int, FaultPlan]:
    """Route a fault plan's specs to the cells that own their targets.

    Standalone specs (``server_id is None`` socket faults) configure the
    *process-wide* injector; under a multi-cell layout they would apply
    to every cell at once — silently different semantics from the
    unsharded run — so they are rejected outright.
    """
    if layout.n_cells == 1:
        return {0: plan}
    if plan.standalone_specs():
        raise FaultError(
            "standalone (non-server-scoped) fault specs cannot run under "
            "a multi-cell sharded fleet; scope each spec with server_id "
            "or run unsharded"
        )
    per_cell: Dict[int, List] = {}
    for spec in plan.specs:
        if isinstance(spec, CacheCorruptionFault):
            # Settle-cache tearing is a process-wide condition, not a
            # server's: every cell (hence every worker process) arms its
            # own cache.  Corruption only forces recomputation, so the
            # merged digest stays invariant regardless of which worker
            # tears which write.
            for cell_id in range(layout.n_cells):
                per_cell.setdefault(cell_id, []).append(spec)
            continue
        if isinstance(spec, JobKillFault):
            cell_id = layout.cell_of_job(spec.job_id)
            local = spec
        else:
            server_id = getattr(spec, "server_id", None)
            if server_id is None:
                raise FaultError(
                    f"{spec.kind}: spec has no server scope; cannot route "
                    "to a cell"
                )
            cell_id = layout.cell_of_server(server_id)
            local = dataclasses.replace(
                spec, server_id=server_id - layout.offset(cell_id)
            )
        per_cell.setdefault(cell_id, []).append(local)
    return {
        cell_id: FaultPlan(specs=tuple(specs), seed=plan.seed)
        for cell_id, specs in per_cell.items()
    }


# ----------------------------------------------------------------------
# Per-cell execution (runs in worker processes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One independently simulated cell of a (possibly mixed) fleet.

    The homogeneous sharded fleet derives its cells from a
    :class:`CellLayout`; the scenario runner builds them directly, which
    is what lets server *groups* carry different configurations (aged
    silicon, distinct die seeds, different sizes) inside one merged run.
    Jobs route to the cell whose ``index`` equals ``job_id % n_cells`` —
    the same modular routing the layout uses, so a layout-derived spec
    list reproduces the layout semantics exactly.
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


def _simulate_cell(
    cell: CellSpec,
    policy: FleetPolicy,
    trace: Tuple,
    workers: int,
) -> Tuple[FleetResult, List[Tuple[int, str]]]:
    """Simulate one cell; returns its result and canonical log lines.

    Log entries are remapped to global server ids and rendered to
    canonical JSON here, so the parent only merges strings.
    """
    offset = cell.offset
    runner = SweepRunner(max_workers=workers, seed_root=cell.config.seed)
    sim = FleetSimulation(
        cell.config,
        policy,
        runner=runner,
        trace=trace,
        fault_plan=cell.fault_plan,
    )
    result = sim.run()
    lines: List[Tuple[int, str]] = []
    for entry in result.events:
        if "server_id" in entry:
            entry = dict(entry)
            entry["server_id"] += offset
        lines.append((entry["time_ns"], canonical_json(entry)))
    records = tuple(
        dataclasses.replace(
            record,
            server_id=(
                None if record.server_id is None else record.server_id + offset
            ),
        )
        for record in result.job_records
    )
    fallback = tuple(
        (server_id + offset, socket_id, seconds)
        for server_id, socket_id, seconds in result.fallback_seconds
    )
    result = dataclasses.replace(
        result, events=(), job_records=records, fallback_seconds=fallback
    )
    return result, lines


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
            cell, policy, tuple(by_index.pop(cell.index)), workers
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
    retains the merged entries on the result (parse of the canonical
    lines); large benchmark runs pass ``False`` to keep memory flat.
    """
    hasher = hashlib.sha256()
    merged_events: List[dict] = []
    for _, _, _, line in _merged_stream(cell_lines):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
        if keep_events:
            merged_events.append(json.loads(line))
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
        event_log_hash=hasher.hexdigest(),
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
            (traffic, trace_seed, policy, batch, workers, n_cells, settle_dir)
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
    return ShardedOutcome(
        merged=merged, by_cell=cell_results, retries=tuple(retries)
    )


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
        cell (the plain, unsharded semantics).  The cell layout — not
        the shard count — defines the run's scheduling topology, so it
        is part of the run's identity.
    workers:
        Sweep-runner pool width *inside* each shard.
    keep_events:
        Retain the merged event stream on the result (see
        :func:`merge_cell_results`).
    """
    layout = CellLayout(
        n_servers=config.n_servers,
        cell_servers=(
            config.n_servers if cell_servers is None else cell_servers
        ),
    )
    plans = _split_fault_plan(
        fault_plan if fault_plan is not None else FaultPlan(), layout
    )
    # Any fleet power budget is decomposed proportionally to cell size;
    # each cell's coordinator then tracks its share independently, so
    # the merged log is invariant across shard/worker counts.
    budget_shares = decompose_budget(
        config.fleet_power_budget_w,
        [layout.size(cell_id) for cell_id in range(layout.n_cells)],
    )
    cells = tuple(
        CellSpec(
            index=cell_id,
            offset=layout.offset(cell_id),
            config=dataclasses.replace(
                config,
                n_servers=layout.size(cell_id),
                fleet_power_budget_w=budget_shares[cell_id],
            ),
            fault_plan=plans.get(cell_id),
        )
        for cell_id in range(layout.n_cells)
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
    workers: int = 1,
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
            workers=workers,
            keep_events=keep_events,
        )
        for policy in (ags_policy, CONSOLIDATION_POLICY)
    )
    return FleetComparison(ags=ags, consolidation=consolidation)


def default_shards() -> int:
    """A sensible shard count for the local machine."""
    return max(1, (os.cpu_count() or 2) - 1)
