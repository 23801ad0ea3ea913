"""The public measurement facade: one ``measure``, one ``sweep``.

The paper's three measurement procedures — Sec. 3's consolidated core
scaling, explicit two-socket placements (loadline borrowing) and
contention-adjusted scheduler decisions — are keyword-selected variants
of one call::

    from repro import GuardbandMode, measure, sweep

    # Consolidated (all threads on socket 0, socket 1 idle):
    result = measure("raytrace", n_threads=4, mode=GuardbandMode.UNDERVOLT)

    # An explicit two-socket placement (loadline borrowing):
    result = measure("raytrace", placement=(2, 2), mode="undervolt")

    # A full scheduling decision with contention-adjusted activity:
    result = measure("fft", schedule=placement_obj, mode="undervolt")

    # The Figs. 3/4 core-scaling sweep, batched through the shared runner:
    results = sweep("raytrace", mode="undervolt")

``measure`` places the variant on one server and settles it twice there;
``sweep`` batches points through :class:`~repro.sim.batch.SweepRunner`,
which settles each mode on a fresh server.  Both realize placements with
:func:`repro.sim.batch.settle_task`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from .config import ServerConfig
from .core.placement import Placement
from .errors import SchedulingError
from .faults.injector import injected
from .faults.plan import FaultPlan
from .guardband import GuardbandMode
from .guardband.capping import cap_walk_frequencies
from .sim.batch import (
    SweepRunner,
    SweepTask,
    core_scaling_tasks,
    default_runner,
    settle_task,
)
from .sim.cache import OperatingPointCache
from .sim.results import RunResult
from .sim.server import Power720Server
from .workloads import get_profile
from .workloads.profile import WorkloadProfile
from .workloads.scaling import RuntimeModel, SocketShare

#: What ``measure(..., placement=...)`` accepts: a SocketShare or a plain
#: per-socket thread-count sequence.
PlacementSpec = Union[SocketShare, Sequence[int]]


def _resolve_profile(workload: Union[str, WorkloadProfile]) -> WorkloadProfile:
    if isinstance(workload, WorkloadProfile):
        return workload
    return get_profile(workload)


def _resolve_mode(mode: Union[str, GuardbandMode]) -> GuardbandMode:
    if isinstance(mode, GuardbandMode):
        return mode
    return GuardbandMode(mode)


def _resolve_server(
    server: Optional[Power720Server],
    config: Optional[ServerConfig],
    seed: int,
) -> Power720Server:
    if server is not None:
        return server
    return Power720Server(config=config, seed=seed)


def _resolve_backend_config(
    config: Optional[ServerConfig],
    pdn_backend: Optional[str],
    server: Optional[Power720Server] = None,
) -> Optional[ServerConfig]:
    """Fold a ``pdn_backend=`` selection into the server config."""
    if pdn_backend is None:
        return config
    if server is not None:
        raise SchedulingError(
            "pass pdn_backend= or a prebuilt server=, not both — the "
            "server was already built against a backend"
        )
    base = config or ServerConfig()
    if base.pdn_backend == pdn_backend:
        return base
    return dataclasses.replace(base, pdn_backend=pdn_backend)


def measure(
    workload: Union[str, WorkloadProfile],
    *,
    mode: Union[str, GuardbandMode] = GuardbandMode.UNDERVOLT,
    n_threads: int = 1,
    placement: Optional[PlacementSpec] = None,
    schedule: Optional[Placement] = None,
    keep_on: Optional[Sequence[int]] = None,
    threads_per_core: int = 1,
    server: Optional[Power720Server] = None,
    config: Optional[ServerConfig] = None,
    seed: int = 7,
    runtime_model: Optional[RuntimeModel] = None,
    f_target: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    power_cap: Optional[float] = None,
    pdn_backend: Optional[str] = None,
) -> RunResult:
    """Measure one workload under one guardband mode, any way it can run.

    Exactly one measurement variant applies, selected by keyword:

    * neither ``placement`` nor ``schedule`` — **consolidated**: all
      ``n_threads`` on socket 0, socket 1 idle (the paper's Sec. 3
      characterization setup);
    * ``placement=`` — an explicit per-socket thread split (a
      :class:`~repro.workloads.scaling.SocketShare` or a plain sequence
      like ``(2, 2)``), optionally with ``keep_on`` core gating;
    * ``schedule=`` — a full :class:`~repro.core.placement.Placement`
      realized with contention-adjusted thread activity (what the AGS
      schedulers measure).

    Every variant places once and settles twice on the same server —
    under the static guardband, then under ``mode`` — and returns the
    :class:`~repro.sim.results.RunResult` pair.  ``server`` reuses an
    existing machine (it is cleared first); otherwise a fresh one is built
    from ``config`` and ``seed``.

    ``fault_plan`` runs the measurement under an installed
    :class:`~repro.faults.injector.FaultInjector` seeded from the plan;
    with the default ``None`` the fault layer is never touched and the
    result is bit-identical to a build without it.

    ``pdn_backend`` selects a registered power-delivery backend by name
    (see :mod:`repro.pdn.backends`); the server is built against it.
    ``power_cap`` enforces a whole-server power budget (W): the cap-walk
    menu (:func:`~repro.guardband.capping.cap_walk_frequencies`, the one
    the fleet walks) is stepped down from the uncapped point until the
    measured ``adaptive`` server power fits, raising
    :class:`~repro.errors.SchedulingError` when even the lowest point
    exceeds the budget.
    """
    if fault_plan is not None:
        with injected(fault_plan):
            return measure(
                workload,
                mode=mode,
                n_threads=n_threads,
                placement=placement,
                schedule=schedule,
                keep_on=keep_on,
                threads_per_core=threads_per_core,
                server=server,
                config=config,
                seed=seed,
                runtime_model=runtime_model,
                f_target=f_target,
                power_cap=power_cap,
                pdn_backend=pdn_backend,
            )
    config = _resolve_backend_config(config, pdn_backend, server)
    if power_cap is not None:
        if f_target is not None:
            raise SchedulingError(
                "pass power_cap= or f_target=, not both — the cap walk "
                "chooses the frequency"
            )
        if power_cap <= 0:
            raise SchedulingError(
                f"power_cap must be positive, got {power_cap}"
            )

        def _attempt(target: Optional[float]) -> RunResult:
            return measure(
                workload,
                mode=mode,
                n_threads=n_threads,
                placement=placement,
                schedule=schedule,
                keep_on=keep_on,
                threads_per_core=threads_per_core,
                server=server,
                config=config,
                seed=seed,
                runtime_model=runtime_model,
                f_target=target,
            )

        result = _attempt(None)
        if result.adaptive.point.server_power <= power_cap:
            return result
        for frequency in cap_walk_frequencies(config or ServerConfig()):
            if frequency >= result.adaptive.point.min_frequency:
                continue  # no slower than the uncapped settle
            result = _attempt(frequency)
            if result.adaptive.point.server_power <= power_cap:
                return result
        raise SchedulingError(
            f"power cap of {power_cap:.1f} W is below the floor: even the "
            f"lowest DVFS point draws "
            f"{result.adaptive.point.server_power:.1f} W here"
        )
    profile = _resolve_profile(workload)
    guardband_mode = _resolve_mode(mode)
    if placement is not None and schedule is not None:
        raise SchedulingError(
            "measure() takes placement= or schedule=, not both"
        )
    box = _resolve_server(server, config, seed)
    runtime = runtime_model or RuntimeModel()

    if schedule is not None:
        task = SweepTask.scheduled(
            schedule, profile, guardband_mode, f_target=f_target
        )
    elif placement is not None:
        share = (
            placement
            if isinstance(placement, SocketShare)
            else SocketShare(tuple(placement))
        )
        task = SweepTask.placement(
            profile,
            share.threads_per_socket,
            guardband_mode,
            keep_on=keep_on,
            threads_per_core=threads_per_core,
            f_target=f_target,
        )
    elif keep_on is not None:
        raise SchedulingError(
            "keep_on= only applies to the placement= variant"
        )
    else:
        task = SweepTask.consolidated(
            profile,
            n_threads,
            guardband_mode,
            threads_per_core=threads_per_core,
            f_target=f_target,
        )
    static, adaptive = settle_task(
        box, task, runtime, (GuardbandMode.STATIC, guardband_mode)
    )
    if task.kind == "scheduled" and guardband_mode is GuardbandMode.STATIC:
        # A static scheduled measurement reports its second settle on
        # both sides (the other variants keep the pair).
        static = adaptive
    return RunResult(
        profile=profile,
        n_active_cores=static.n_active_cores,
        static=static,
        adaptive=adaptive,
    )


# ----------------------------------------------------------------------
# The sweep facade
# ----------------------------------------------------------------------
def sweep(
    workload: Union[str, WorkloadProfile],
    *,
    mode: Union[str, GuardbandMode] = GuardbandMode.UNDERVOLT,
    core_counts: Sequence[int] = range(1, 9),
    threads_per_core: int = 1,
    f_target: Optional[float] = None,
    runtime_params: Optional[Tuple[float, float]] = None,
    config: Optional[ServerConfig] = None,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    power_cap: Optional[float] = None,
    pdn_backend: Optional[str] = None,
) -> List[RunResult]:
    """The 1→``n`` active-core scaling sweep, batched and cached.

    Wraps :class:`~repro.sim.batch.SweepRunner`: points fan out over
    ``workers`` processes (when > 1) and settle through the keyed
    operating-point cache, optionally persisted under ``cache_dir``.
    With neither ``runner`` nor ``workers``/``cache_dir`` given, the
    process-wide default runner (and its shared cache) is used — the same
    substrate the figure builders run on.

    ``fault_plan`` installs a seeded fault injector for the whole batch
    (forcing in-process execution — pool workers cannot see the
    injector); ``None`` leaves the fault layer untouched.  Unless a
    ``runner`` is passed explicitly, a faulted sweep gets a private
    runner so corrupted operating points never land in the shared
    process-wide cache.

    ``pdn_backend`` selects a registered power-delivery backend for
    every point of the sweep; ``power_cap`` enforces a whole-server
    budget (W) per point by walking that point down the cap-walk menu
    until the measured adaptive server power fits (see ``measure``).
    """
    if fault_plan is not None:
        if runner is None and workers is None and cache_dir is None:
            runner = SweepRunner(cache=OperatingPointCache())
        with injected(fault_plan):
            return sweep(
                workload,
                mode=mode,
                core_counts=core_counts,
                threads_per_core=threads_per_core,
                f_target=f_target,
                runtime_params=runtime_params,
                config=config,
                runner=runner,
                workers=workers,
                cache_dir=cache_dir,
                power_cap=power_cap,
                pdn_backend=pdn_backend,
            )
    config = _resolve_backend_config(config, pdn_backend)
    if power_cap is not None and f_target is not None:
        raise SchedulingError(
            "pass power_cap= or f_target=, not both — the cap walk "
            "chooses the frequency"
        )
    if power_cap is not None and power_cap <= 0:
        raise SchedulingError(f"power_cap must be positive, got {power_cap}")
    profile = _resolve_profile(workload)
    guardband_mode = _resolve_mode(mode)
    if runner is None:
        if workers is None and cache_dir is None:
            runner = default_runner()
        else:
            runner = SweepRunner(
                max_workers=1 if workers is None else workers,
                cache=OperatingPointCache(disk_dir=cache_dir),
            )
    elif workers is not None or cache_dir is not None:
        raise SchedulingError(
            "pass runner= or workers=/cache_dir=, not both"
        )
    tasks = core_scaling_tasks(
        profile,
        guardband_mode,
        core_counts,
        threads_per_core=threads_per_core,
        f_target=f_target,
        runtime_params=runtime_params,
    )
    results = runner.run_results(tasks, config)
    if power_cap is None:
        return results
    capped: List[RunResult] = []
    candidates = cap_walk_frequencies(config or ServerConfig())
    for task, result in zip(tasks, results):
        if result.adaptive.point.server_power <= power_cap:
            capped.append(result)
            continue
        for frequency in candidates:
            if frequency >= result.adaptive.point.min_frequency:
                continue
            retry = dataclasses.replace(task, f_target=frequency)
            result = runner.run_results([retry], config)[0]
            if result.adaptive.point.server_power <= power_cap:
                break
        else:
            raise SchedulingError(
                f"power cap of {power_cap:.1f} W is below the floor for "
                f"{profile.name} on {task.n_threads} threads: the lowest "
                f"DVFS point draws "
                f"{result.adaptive.point.server_power:.1f} W"
            )
        capped.append(result)
    return capped
