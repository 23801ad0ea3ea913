"""Batch execution of independent sweep measurements.

Every figure and benchmark replays the paper's measurement procedures as
grids of *independent* settled points: core-scaling sweeps, two-socket
placements, scheduler comparisons.  :class:`SweepRunner` is the substrate
that executes such grids

* **in parallel** through :func:`fan_out`, the package's one crash-safe
  process-pool routine (in-process when ``max_workers == 1``, for a
  single pending task, or when the platform cannot fork a pool), and
* **memoized** through a keyed :class:`~repro.sim.cache.OperatingPointCache`
  — the figure grids overlap heavily, so most points are settled once and
  replayed from cache everywhere else.

Determinism
-----------
A task is a pure function of ``(server config, task coordinates, mode,
seed)``: the executor always builds a *fresh* server (same die seed for
every task — the paper measures one physical machine) and settles the
requested mode on it, so results are bit-identical whether tasks run
serially, in any parallel interleaving, or from cache.  Tasks that need
their own random stream (e.g. the Fig. 9 droop-window sampling) derive it
with :func:`derive_seed` — ``seed_root`` plus a stable task hash — so the
stream no longer depends on execution order.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..config import ServerConfig, positive_int_from_env
from ..errors import SweepError
from ..faults.injector import fault_injector
from ..guardband import GuardbandMode
from ..obs import observability
from ..workloads.profile import WorkloadProfile
from ..workloads.scaling import RuntimeModel, SocketShare
from .cache import CacheStats, OperatingPointCache, fingerprint
from .results import RunResult, SteadyState, active_mean_frequency
from .run import build_server
from .server import Power720Server

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..core.placement import Placement

#: Default die seed, matching :func:`repro.sim.run.build_server`.
DEFAULT_SEED_ROOT = 7

#: Environment knob for the default runner's worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment knob for the default runner's disk-cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"


#: Config-object → fingerprint memo.  :class:`~repro.config.ServerConfig`
#: is a frozen dataclass, so the same object (or an equal one) always maps
#: to the same fingerprint; hashing it is orders of magnitude cheaper than
#: re-canonicalizing the whole nested config on every batch.  Only a
#: handful of distinct configs ever exist per process, so the memo stays
#: tiny and is never evicted.
_cfg_fp_memo: Dict[Any, str] = {}


def config_fingerprint(cfg: ServerConfig) -> str:
    """Memoized :func:`~repro.sim.cache.fingerprint` of a server config."""
    try:
        cached = _cfg_fp_memo.get(cfg)
    except TypeError:  # unhashable subclass — compute every time
        return fingerprint(cfg)
    if cached is None:
        cached = fingerprint(cfg)
        _cfg_fp_memo[cfg] = cached
    return cached


def derive_seed(seed_root: int, token: Any) -> int:
    """``seed_root`` plus a stable hash of ``token`` (order-independent).

    Use this wherever a batch task needs its own random stream: the
    derived seed depends only on the task's identity, never on how many
    tasks ran before it, so parallel and serial schedules consume
    identical streams.
    """
    return seed_root + int(fingerprint(token), 16) % (2**31)


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent static-vs-adaptive measurement.

    Construct through :meth:`consolidated`, :meth:`placement` or
    :meth:`scheduled` — the three measurement procedures the figures use.
    """

    #: ``"consolidated"`` | ``"placement"`` | ``"scheduled"``.
    kind: str

    #: Workload whose runtime/energy metrics the result carries.
    profile: WorkloadProfile

    #: Adaptive mode paired against the static guardband.
    mode: GuardbandMode

    n_threads: int = 0
    threads_per_core: int = 1

    #: Per-socket thread counts (``placement`` kind).
    share: Optional[Tuple[int, ...]] = None

    #: Per-socket powered-core counts (``placement`` kind; ``None`` = no gating).
    keep_on: Optional[Tuple[int, ...]] = None

    #: Full scheduling decision (``scheduled`` kind).  Named to avoid
    #: colliding with the :meth:`placement` constructor.
    placement_plan: Optional["Placement"] = None

    #: Frequency target handed to the guardband policies.
    f_target: Optional[float] = None

    #: ``(socket_bandwidth, cross_socket_penalty)`` of the runtime model;
    #: ``None`` uses the calibrated defaults.
    runtime_params: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def consolidated(
        cls,
        profile: WorkloadProfile,
        n_threads: int,
        mode: GuardbandMode,
        threads_per_core: int = 1,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """All threads on socket 0 (the Sec. 3 characterization setup)."""
        return cls(
            kind="consolidated",
            profile=profile,
            mode=mode,
            n_threads=n_threads,
            threads_per_core=threads_per_core,
            f_target=f_target,
            runtime_params=runtime_params,
        )

    @classmethod
    def placement(
        cls,
        profile: WorkloadProfile,
        share: Sequence[int],
        mode: GuardbandMode,
        keep_on: Optional[Sequence[int]] = None,
        threads_per_core: int = 1,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """An arbitrary two-socket placement (loadline-borrowing figures)."""
        return cls(
            kind="placement",
            profile=profile,
            mode=mode,
            n_threads=sum(share),
            threads_per_core=threads_per_core,
            share=tuple(share),
            keep_on=None if keep_on is None else tuple(keep_on),
            f_target=f_target,
            runtime_params=runtime_params,
        )

    @classmethod
    def scheduled(
        cls,
        placement: "Placement",
        profile: WorkloadProfile,
        mode: GuardbandMode,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """A scheduler decision with contention-adjusted activity."""
        return cls(
            kind="scheduled",
            profile=profile,
            mode=mode,
            n_threads=placement.total_threads,
            threads_per_core=placement.threads_per_core,
            placement_plan=placement,
            f_target=f_target,
            runtime_params=runtime_params,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def coordinates(self) -> Dict[str, Any]:
        """The placement coordinates of the task — everything *except* the
        adaptive mode, so the shared static half keys identically across
        tasks that differ only in the mode they pair against it."""
        return {
            "kind": self.kind,
            "profile": self.profile,
            "n_threads": self.n_threads,
            "threads_per_core": self.threads_per_core,
            "share": None if self.share is None else list(self.share),
            "keep_on": None if self.keep_on is None else list(self.keep_on),
            "placement": self.placement_plan,
            "f_target": self.f_target,
            "runtime_params": (
                None if self.runtime_params is None else list(self.runtime_params)
            ),
        }

    def task_hash(self) -> str:
        """Stable identity of the task, including its adaptive mode."""
        return fingerprint({"coords": self.coordinates(), "mode": self.mode.value})

    def derived_seed(self, seed_root: int = DEFAULT_SEED_ROOT) -> int:
        """Per-task seed for stochastic post-processing (see module docs)."""
        return derive_seed(seed_root, {"coords": self.coordinates()})

    def label(self) -> str:
        """Short display label for timing tables."""
        if self.kind == "consolidated":
            where = f"n{self.n_threads}"
        elif self.kind == "placement":
            where = "+".join(str(t) for t in (self.share or ()))
        else:
            where = f"sched{self.n_threads}"
        return f"{self.profile.name}:{where}:{self.mode.value}"


def core_scaling_tasks(
    profile: WorkloadProfile,
    mode: GuardbandMode,
    core_counts: Sequence[int] = range(1, 9),
    threads_per_core: int = 1,
    f_target: Optional[float] = None,
    runtime_params: Optional[Tuple[float, float]] = None,
) -> List[SweepTask]:
    """The 1→8 active-core sweep (Figs. 3–5) as independent tasks."""
    return [
        SweepTask.consolidated(
            profile,
            n,
            mode,
            threads_per_core=threads_per_core,
            f_target=f_target,
            runtime_params=runtime_params,
        )
        for n in core_counts
    ]


# ----------------------------------------------------------------------
# Pure task execution (runs in worker processes)
# ----------------------------------------------------------------------
def _runtime_model(params: Optional[Tuple[float, float]]) -> RuntimeModel:
    if params is None:
        return RuntimeModel()
    return RuntimeModel(socket_bandwidth=params[0], cross_socket_penalty=params[1])


def settle_task(
    server: Power720Server,
    task: SweepTask,
    runtime: RuntimeModel,
    modes: Sequence[GuardbandMode],
) -> List[SteadyState]:
    """Place ``task`` on ``server`` once, then settle each of ``modes``.

    The one realization of the three measurement procedures: the
    placement is applied once (the server is cleared first), then every
    mode settles in turn on that same live server, so later settles see
    the thermal state the earlier ones left.  Returns one
    :class:`SteadyState` per mode, in order.
    """
    threads_per_core_for_runtime = 1
    if task.kind == "consolidated":
        server.clear()
        server.place(
            0, task.profile, task.n_threads, threads_per_core=task.threads_per_core
        )
        share = SocketShare.consolidated(task.n_threads, server.n_sockets)
    elif task.kind == "placement":
        server.clear()
        for sid, n_threads in enumerate(task.share):
            if n_threads:
                server.place(
                    sid,
                    task.profile,
                    n_threads,
                    threads_per_core=task.threads_per_core,
                )
        if task.keep_on is not None:
            server.gate_unused(list(task.keep_on))
        share = SocketShare(task.share)
    elif task.kind == "scheduled":
        from ..core.evaluate import apply_with_contention

        apply_with_contention(server, task.placement_plan, runtime)
        share = task.placement_plan.share_of(task.profile.name)
        threads_per_core_for_runtime = task.placement_plan.threads_per_core
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")

    n_active = sum(s.chip.n_active_cores() for s in server.sockets)
    states = []
    for mode in modes:
        point = server.operate(mode, task.f_target)
        frequency = active_mean_frequency(point)
        execution_time = runtime.execution_time(
            task.profile,
            share,
            frequency=frequency,
            reference_frequency=server.config.chip.f_nominal,
            threads_per_core=threads_per_core_for_runtime,
        )
        states.append(
            SteadyState(
                workload=task.profile.name,
                mode=mode,
                n_active_cores=n_active,
                point=point,
                execution_time=execution_time,
                active_frequency=frequency,
            )
        )
    return states


def _settle_mode(
    config: ServerConfig, seed: int, task: SweepTask, mode: GuardbandMode
) -> SteadyState:
    """Settle one mode of one task on a fresh server.

    Always starting from a fresh server makes the result a pure function
    of the arguments — the property the cache and the parallel schedule
    both rely on.
    """
    server = build_server(config, seed=seed)
    return settle_task(server, task, _runtime_model(task.runtime_params), (mode,))[0]


def _execute_task(
    payload: Tuple[ServerConfig, int, SweepTask, Tuple[GuardbandMode, ...]],
    attempt: int,
) -> Tuple[Dict[str, SteadyState], float]:
    """Worker entry point: settle the missing modes of one task.

    Module-level (not a closure) so :func:`fan_out`'s pool can pickle
    it; also the in-process path, which guarantees the two schedules
    produce bit-identical results.  ``attempt`` is unused: a settle is
    pure, so a re-run after a worker death computes the same states.
    """
    config, seed, task, modes = payload
    start = time.perf_counter()
    states = {mode.value: _settle_mode(config, seed, task, mode) for mode in modes}
    return states, time.perf_counter() - start


# ----------------------------------------------------------------------
# Crash-safe process-pool fan-out (the sweep runner and the shard layer)
# ----------------------------------------------------------------------
#: Fresh-pool re-execution rounds before the in-process last resort.
MAX_SHARD_RETRIES = 2


def fan_out(
    fn: Callable[[Any, int], Any],
    payloads: Sequence[Any],
    max_workers: int,
) -> Tuple[List[Any], List[int], bool]:
    """Run ``fn(payload, attempt)`` for every payload, surviving worker death.

    The package's one process-pool routine: the sweep runner fans tasks
    out through it, the shard layer fans out batches of fleet cells.
    ``fn`` must be module-level (the pool pickles it) and a pure
    function of its payload, so where a payload ran never changes its
    result.

    * With one payload, ``max_workers == 1``, or a sandbox that refuses
      process pools, every payload runs in-process, in order, and no
      pool is set up.
    * Otherwise each round runs the pending payloads on a *fresh* pool.
      A worker that dies (OOM kill, segfault) breaks its pool, so every
      payload still unfinished in it fails with
      :class:`BrokenProcessPool`.  Those payloads are re-run on a fresh
      pool, for up to :data:`MAX_SHARD_RETRIES` rounds, then in-process,
      where no pool machinery can kill them.  ``attempt`` is the
      payload's re-run count (0 on its first run).
    * An exception raised by ``fn`` is never retried, because a pure
      payload fails the same way every time.  It is returned in the
      payload's outcome slot for the caller to report.

    Returns ``(outcomes, reruns, used_processes)``: the outcomes in
    input order (``fn``'s return value, or the :class:`Exception` it
    raised), each payload's re-run count, and whether a pool ran.
    """
    outcomes: List[Any] = [None] * len(payloads)
    reruns = [0] * len(payloads)
    pending = list(range(len(payloads)))
    used_processes = False
    if max_workers > 1 and len(payloads) > 1:
        for attempt in range(MAX_SHARD_RETRIES + 1):
            try:
                pending = _pool_round(
                    fn, payloads, pending, attempt, max_workers, outcomes
                )
            except (OSError, NotImplementedError):
                # Sandboxes may refuse process pools; the in-process path
                # is bit-identical by construction.  Not a recovery event.
                break
            used_processes = True
            for index in pending:
                reruns[index] += 1
            if not pending:
                break
    for index in pending:
        try:
            outcomes[index] = fn(payloads[index], reruns[index])
        except Exception as exc:  # noqa: BLE001 - returned to the caller
            outcomes[index] = exc
    return outcomes, reruns, used_processes


def _pool_round(
    fn: Callable[[Any, int], Any],
    payloads: Sequence[Any],
    pending: List[int],
    attempt: int,
    max_workers: int,
    outcomes: List[Any],
) -> List[int]:
    """Run ``pending`` on one fresh pool; return those whose worker died.

    Fills ``outcomes`` for every payload that finished or raised.  A
    sandbox refusing the pool at start-up (``OSError`` etc.) propagates
    to :func:`fan_out` — that means "no pools here", not "this payload
    failed".
    """
    dead: List[int] = []
    pool = ProcessPoolExecutor(max_workers=min(max_workers, len(pending)))
    try:
        futures = []
        for index in pending:
            try:
                futures.append((index, pool.submit(fn, payloads[index], attempt)))
            except BrokenProcessPool:
                dead.append(index)
        for index, future in futures:
            try:
                outcomes[index] = future.result()
            except BrokenProcessPool:
                dead.append(index)
            except Exception as exc:  # noqa: BLE001 - returned to the caller
                outcomes[index] = exc
    finally:
        # Not ``with``: shutdown must not wait on a wedged worker, and
        # cancel_futures sheds anything still queued behind a failure.
        pool.shutdown(wait=False, cancel_futures=True)
    return sorted(dead)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskTiming:
    """Wall time of one task within a sweep."""

    label: str
    wall_time: float
    from_cache: bool


@dataclass(frozen=True)
class TaskFailure:
    """One task that raised — an entry of the failure manifest.

    A poisoned task never aborts its batch: the exception is captured
    per task, successful siblings are still settled and cached, and
    :class:`~repro.errors.SweepError` then carries the manifest."""

    #: Position of the task in the input batch.
    index: int

    #: ``SweepTask.label()`` of the failed task.
    label: str

    #: Exception class name (e.g. ``"ConvergenceError"``).
    error_type: str

    #: Stringified exception message.
    error: str

    #: Times the task ran: 1, plus one per re-run after its pool worker
    #: died (an exception itself is never retried).
    attempts: int

    def describe(self) -> str:
        """One-line rendering for summaries and error messages."""
        suffix = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.label}: {self.error_type}: {self.error}{suffix}"


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call."""

    #: Results in input-task order.
    results: Tuple[RunResult, ...]

    #: Per-task wall time (cache replays report ~0).
    timings: Tuple[TaskTiming, ...]

    #: End-to-end wall time of the batch (s).
    wall_time: float

    #: Whether a process pool actually executed tasks (``False`` for the
    #: in-process fallback, all-cache batches, and pool bring-up failures).
    used_processes: bool

    #: Snapshot of the cache counters *after* the batch.
    cache_stats: CacheStats

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the batch."""
        return len(self.results)

    @property
    def n_from_cache(self) -> int:
        """Tasks fully replayed from the operating-point cache."""
        return sum(1 for t in self.timings if t.from_cache)

    @property
    def n_executed(self) -> int:
        """Tasks that settled at least one fresh operating point."""
        return self.n_tasks - self.n_from_cache

    def summary(self) -> str:
        """Multi-line human-readable timing summary (CLI ``--timings``)."""
        lines = [
            f"sweep: {self.n_tasks} task(s) in {self.wall_time:.2f}s "
            f"({self.n_executed} executed, {self.n_from_cache} from cache, "
            f"{'process pool' if self.used_processes else 'in-process'})",
            f"cache: {self.cache_stats.summary()}",
        ]
        executed = sorted(
            (t for t in self.timings if not t.from_cache),
            key=lambda t: t.wall_time,
            reverse=True,
        )
        for timing in executed[:10]:
            lines.append(f"  {timing.wall_time:7.3f}s  {timing.label}")
        if len(executed) > 10:
            lines.append(f"  ... {len(executed) - 10} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Fan independent sweep tasks out over workers, through the cache.

    Parameters
    ----------
    max_workers:
        Process-pool width.  ``1`` (the default) runs tasks in-process —
        deterministically identical to the parallel schedule, without the
        pool overhead.  ``None`` uses ``os.cpu_count()``.
    cache:
        The operating-point cache; one is created when omitted.  Pass a
        shared instance to reuse settled points across figure builders.
    seed_root:
        Die seed every task's server is built with (one simulated machine
        for the whole campaign, like the paper's test box).  Per-task
        random streams derive from it via :func:`derive_seed`.

    Tasks whose pool worker dies are re-run by :func:`fan_out`.  A task
    that raises is not retried: once the batch completes — successful
    siblings settled and cached first — :class:`~repro.errors.SweepError`
    is raised carrying the :class:`TaskFailure` manifest.
    """

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        cache: Optional[OperatingPointCache] = None,
        seed_root: int = DEFAULT_SEED_ROOT,
    ) -> None:
        self.max_workers = os.cpu_count() if max_workers is None else max_workers
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        self.cache = cache if cache is not None else OperatingPointCache()
        self.seed_root = seed_root
        #: Reports of every batch this runner executed (observability).
        self.reports: List[SweepReport] = []

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig] = None,
        seed_root: Optional[int] = None,
    ) -> SweepReport:
        """Execute a batch of tasks; results come back in input order.

        ``seed_root`` overrides the runner's die seed for this batch only
        (cache keys include the effective seed, so differently-seeded
        batches never alias).  Callers measuring a specific server should
        pass that server's seed so results stay bit-identical to settling
        on the server directly.
        """
        with observability().span("sweep.batch", n_tasks=len(tasks)) as span:
            report = self._run_batch(tasks, config, seed_root)
            span.annotate(
                executed=report.n_executed,
                cached=report.n_from_cache,
                used_processes=report.used_processes,
            )
        return report

    def _run_batch(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig],
        seed_root: Optional[int],
    ) -> SweepReport:
        start = time.perf_counter()
        cfg = config or ServerConfig()
        cfg_fp = config_fingerprint(cfg)
        seed = self.seed_root if seed_root is None else seed_root

        # Resolve from cache; collect the modes each task still needs.
        # Each point's key is computed once and reused for the store.
        states: List[Dict[str, SteadyState]] = []
        keys: List[Dict[str, str]] = []
        pending: List[Tuple[int, Tuple[GuardbandMode, ...]]] = []
        for index, task in enumerate(tasks):
            have: Dict[str, SteadyState] = {}
            missing: List[GuardbandMode] = []
            task_keys: Dict[str, str] = {}
            for mode in self._modes_of(task):
                key = task_keys[mode.value] = self._point_key(cfg_fp, task, mode, seed)
                cached = self.cache.get(key)
                if cached is not None:
                    have[mode.value] = cached
                else:
                    missing.append(mode)
            states.append(have)
            keys.append(task_keys)
            if missing:
                pending.append((index, tuple(missing)))

        # Settle what the cache could not answer.  Task exceptions are
        # captured per task: one poisoned point never aborts the batch.
        used_processes = False
        fresh_wall: Dict[int, float] = {}
        if pending:
            # Pool workers cannot see this process's fault injector, so
            # batches under injection stay in-process to keep the faults
            # (and the results) coherent.
            workers = self.max_workers
            if workers > 1 and fault_injector().enabled:
                workers = 1
            outcomes, reruns, used_processes = fan_out(
                _execute_task,
                [(cfg, seed, tasks[index], modes) for index, modes in pending],
                workers,
            )
            if max(reruns):
                observability().count(
                    "tasks_retried_total",
                    amount=max(reruns),
                    help_text="Task retry attempts by layer.",
                    layer="sweep",
                )
            failures: List[TaskFailure] = []
            for (index, _), outcome, rerun in zip(pending, outcomes, reruns):
                if isinstance(outcome, Exception):
                    failures.append(
                        TaskFailure(
                            index=index,
                            label=tasks[index].label(),
                            error_type=type(outcome).__name__,
                            error=str(outcome),
                            attempts=rerun + 1,
                        )
                    )
                    continue
                fresh, fresh_wall[index] = outcome
                for mode_value, state in fresh.items():
                    self.cache.put(keys[index][mode_value], state)
                    states[index][mode_value] = state
            if failures:
                observability().count(
                    "sweep_tasks_total",
                    amount=len(failures),
                    help_text="Sweep tasks by outcome.",
                    outcome="failed",
                )
                raise SweepError(
                    f"{len(failures)} of {len(tasks)} sweep task(s) failed "
                    f"(first: {failures[0].describe()}); successful tasks "
                    "were cached",
                    failures=failures,
                )

        # Assemble results and the report, in input order.
        results: List[RunResult] = []
        timings = []
        for index, task in enumerate(tasks):
            static = states[index][GuardbandMode.STATIC.value]
            adaptive = states[index][task.mode.value]
            results.append(
                RunResult(
                    profile=task.profile,
                    n_active_cores=static.n_active_cores,
                    static=static,
                    adaptive=adaptive,
                )
            )
            timings.append(
                TaskTiming(
                    label=task.label(),
                    wall_time=fresh_wall.get(index, 0.0),
                    from_cache=index not in fresh_wall,
                )
            )
        report = SweepReport(
            results=tuple(results),
            timings=tuple(timings),
            wall_time=time.perf_counter() - start,
            used_processes=used_processes,
            cache_stats=dataclasses.replace(self.cache.stats),
        )
        self.reports.append(report)
        self._record_report(report)
        return report

    def _record_report(self, report: SweepReport) -> None:
        """Mirror one batch's outcome into the observability layer.

        Pure observation after the fact: nothing here feeds back into
        task scheduling, caching, or results.
        """
        obs = observability()
        if not obs.enabled:
            return
        obs.count(
            "sweep_batches_total", help_text="Sweep batches executed."
        )
        obs.count(
            "sweep_tasks_total",
            amount=report.n_from_cache,
            help_text="Sweep tasks by outcome.",
            outcome="cached",
        )
        obs.count(
            "sweep_tasks_total",
            amount=report.n_executed,
            help_text="Sweep tasks by outcome.",
            outcome="executed",
        )
        obs.observe(
            "sweep_batch_seconds",
            report.wall_time,
            help_text="End-to-end wall time per batch.",
        )
        executed_wall = 0.0
        for timing in report.timings:
            if not timing.from_cache:
                executed_wall += timing.wall_time
                obs.observe(
                    "sweep_task_seconds",
                    timing.wall_time,
                    help_text="Per-task settle wall time (fresh points).",
                )
        if report.n_executed and report.wall_time > 0:
            obs.gauge(
                "sweep_worker_utilization",
                executed_wall / (report.wall_time * self.max_workers),
                help_text=(
                    "Busy fraction of the worker pool over the last "
                    "executing batch (task wall time / batch wall time "
                    "/ workers)."
                ),
            )

    def run_results(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig] = None,
        seed_root: Optional[int] = None,
    ) -> List[RunResult]:
        """:meth:`run`, returning just the results."""
        return list(self.run(tasks, config, seed_root=seed_root).results)

    def core_scaling_sweep(
        self,
        profile: WorkloadProfile,
        mode: GuardbandMode,
        core_counts: Sequence[int] = range(1, 9),
        config: Optional[ServerConfig] = None,
        threads_per_core: int = 1,
    ) -> List[RunResult]:
        """The 1→``n`` active-core sweep (Figs. 3–5) as one batch.

        :func:`repro.api.sweep` is the public entry point; this is the
        raw runner call the figure builders use.
        """
        return self.run_results(
            core_scaling_tasks(
                profile, mode, core_counts, threads_per_core=threads_per_core
            ),
            config,
        )

    def timings_summary(self) -> str:
        """Cumulative summary across every batch this runner executed."""
        total = sum(r.wall_time for r in self.reports)
        tasks = sum(r.n_tasks for r in self.reports)
        executed = sum(r.n_executed for r in self.reports)
        lines = [
            f"runner: {len(self.reports)} batch(es), {tasks} task(s), "
            f"{executed} executed, {total:.2f}s total",
            f"cache: {self.cache.stats.summary()}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _modes_of(task: SweepTask) -> Tuple[GuardbandMode, ...]:
        if task.mode is GuardbandMode.STATIC:
            return (GuardbandMode.STATIC,)
        return (GuardbandMode.STATIC, task.mode)

    def _point_key(
        self,
        cfg_fp: str,
        task: SweepTask,
        mode: GuardbandMode,
        seed: Optional[int] = None,
    ) -> str:
        return fingerprint(
            {
                "config": cfg_fp,
                "coords": task.coordinates(),
                "mode": mode.value,
                "seed": self.seed_root if seed is None else seed,
            }
        )


# ----------------------------------------------------------------------
# Process-wide default runner
# ----------------------------------------------------------------------
_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The process-wide runner the figure builders share.

    Created lazily from the environment: ``REPRO_SWEEP_WORKERS`` sets the
    pool width (default 1 — in-process; anything but an integer >= 1 is a
    :class:`~repro.errors.ConfigError`), ``REPRO_SWEEP_CACHE_DIR`` enables
    the JSON disk cache.  Sharing one runner means one shared cache, so a
    figure's points settle once per process no matter how many builders
    need them.
    """
    global _default_runner
    if _default_runner is None:
        workers = positive_int_from_env(WORKERS_ENV, 1)
        disk_dir = os.environ.get(CACHE_DIR_ENV) or None
        _default_runner = SweepRunner(
            max_workers=workers,
            cache=OperatingPointCache(disk_dir=disk_dir),
        )
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> Optional[SweepRunner]:
    """Swap the process-wide runner; returns the previous one.

    Pass ``None`` to reset to lazy re-creation from the environment.
    """
    global _default_runner
    previous, _default_runner = _default_runner, runner
    return previous
