"""The fleet simulation engine: events in, energy and QoS ledgers out.

One :class:`FleetSimulation` drives a homogeneous fleet of Power 720
servers through a job arrival trace under one :class:`FleetPolicy`.  The
discrete-event loop owns four state machines:

* **admission** — arrivals try to start immediately (first-fit via the
  :class:`~repro.fleet.scheduler.OnlineFleetScheduler`), else join a FIFO
  queue drained whenever a completion frees capacity;
* **progress** — a running job advances at a rate set by its settled
  operating point: ``frequency_speedup / (contention x sharing)`` over the
  job's socket share.  Rates are piecewise constant between placement
  changes, so completions are *scheduled* as events and re-estimated (via
  generation counters) only when the job's server re-places;
* **power** — a server powers on when first-fit needs it and powers off
  after a hysteresis delay once emptied; powered-on servers burn the
  settled server power (chip + peripherals), powered-off servers burn
  nothing;
* **accounting** — every placement change is an *epoch*: the server's new
  placement settles through the shared sweep runner (one cached
  ``SweepTask`` per distinct electrical state), both the adaptive and
  static-guardband powers update, and the QoS clock on latency-critical
  sockets is adjudicated against the frequency SLA.

Determinism: the trace is materialized up-front, simulated time is
integer nanoseconds, every iteration order is sorted or insertion-fixed,
and single-task runner batches never enter the process pool — so the
event-log hash is identical across ``--workers`` settings by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import ServerConfig
from ..errors import FaultError, SchedulingError
from ..faults.injector import _record_injection, fault_injector
from ..faults.plan import FaultPlan
from ..faults.spec import JobKillFault, ServerCrashFault
from ..faults.watchdog import watchdog
from ..guardband import GuardbandMode
from ..guardband.capping import CapResult, cap_walk_frequencies
from ..obs import DEFAULT_LATENCY_BUCKETS, observability
from ..sim.batch import (
    SweepRunner,
    SweepTask,
    config_fingerprint,
    default_runner,
)
from ..sim.cache import BoundedMemo
from ..sim.results import RunResult
from ..sim.run import build_server
from ..workloads.scaling import RuntimeModel, SocketShare
from .events import (
    ArrivalEvent,
    CompletionEvent,
    EventQueue,
    FleetEvent,
    FallbackEvent,
    JobKillEvent,
    JobRetryEvent,
    PowerCapTickEvent,
    RebalanceEvent,
    ServerFaultEvent,
    ns_to_seconds,
    seconds_to_ns,
)
from .metrics import (
    EnergyAccount,
    EventLog,
    FleetResult,
    JobRecord,
)
from .powercap import PowerCapCoordinator
from .settle_cache import fleet_settle_cache
from .scheduler import (
    AGS_POLICY,
    FleetPolicy,
    OnlineFleetScheduler,
    PlacementPlan,
    ServerState,
    socket_min_active_frequency,
)
from .traffic import (
    JobSpec,
    TrafficConfig,
    generate_trace,
)

#: How long a socket stays in static fallback *after* its injected
#: telemetry-corruption window ends, before adaptive mode re-arms (the
#: fleet-level hysteresis dwell).
FALLBACK_REARM_SECONDS = 300.0

#: Base delay before a requeued job (crash victim, injected kill)
#: re-attempts placement; doubles per retry of the same job, up to
#: :data:`RETRY_BACKOFF_CAP_SECONDS`.
RETRY_BACKOFF_SECONDS = 60.0
RETRY_BACKOFF_CAP_SECONDS = 960.0


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines one simulated fleet-day."""

    #: The per-server electrical configuration (homogeneous fleet).
    server_config: ServerConfig = field(default_factory=ServerConfig)

    #: Fleet size.
    n_servers: int = 4

    #: Arrival-stream shape.
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    #: Master seed: derives the traffic stream and doubles as the fleet's
    #: die seed (every server is electrically identical, which maximizes
    #: operating-point cache reuse across servers).
    seed: int = 7

    #: Frequency SLA for latency-critical jobs, as a fraction of the
    #: nominal clock.  Above 1.0 the SLA is only meetable with the
    #: adaptive guardband's surplus — the paper's boost-consumer scenario.
    qos_frequency_fraction: float = 1.08

    #: How long an emptied server idles before powering off (s).
    power_off_hysteresis_seconds: float = 300.0

    #: Borrowing/packing regime switch point (fraction of server threads).
    utilization_threshold: float = 0.5

    #: Enforced per-server power cap (W); ``None`` = uncapped.  Every
    #: placement settles no faster than the highest DVFS point whose
    #: measured server power fits the cap (best-effort floor: the
    #: lowest table point is used even when it still exceeds the cap).
    power_cap_w: Optional[float] = None

    #: Total fleet power budget (W) tracked by the periodic coordinator
    #: (:mod:`repro.fleet.powercap`); ``None`` disables the coordinator
    #: entirely — no tick events, byte-identical event logs.
    fleet_power_budget_w: Optional[float] = None

    #: Coordinator tick period (s).
    cap_interval_seconds: float = 60.0

    #: Integral gain of the coordinator's budget-tracking controller.
    cap_gain: float = 0.5

    #: Optional per-server integral gains (one per server, each in
    #: (0, 2]); overrides ``cap_gain`` per server.  Scenario lowering
    #: derives these from the server group's plant response (aged
    #: silicon tracks its cap with less authority).
    cap_gains: Optional[Tuple[float, ...]] = None

    #: Budget re-decomposition schedule: ``(time_seconds, budget_w)``
    #: pairs applied at the first coordinator tick at or after each
    #: time.  Scenario lowering compiles crash/repair windows into this
    #: schedule so a cell's budget share follows the live server set —
    #: statically, with no cross-cell runtime communication, so the
    #: sharded digest stays invariant.  Empty = fixed budget.
    fleet_power_budget_schedule: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise SchedulingError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.qos_frequency_fraction <= 0:
            raise SchedulingError("qos_frequency_fraction must be positive")
        if self.power_off_hysteresis_seconds < 0:
            raise SchedulingError("hysteresis must be >= 0")
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise SchedulingError("power_cap_w must be positive")
        if (
            self.fleet_power_budget_w is not None
            and self.fleet_power_budget_w <= 0
        ):
            raise SchedulingError("fleet_power_budget_w must be positive")
        if self.cap_interval_seconds <= 0:
            raise SchedulingError("cap_interval_seconds must be positive")
        if not 0 < self.cap_gain <= 2:
            raise SchedulingError("cap_gain must be in (0, 2]")
        if self.cap_gains is not None:
            object.__setattr__(self, "cap_gains", tuple(self.cap_gains))
            if len(self.cap_gains) != self.n_servers:
                raise SchedulingError(
                    f"cap_gains must have one entry per server "
                    f"({self.n_servers}), got {len(self.cap_gains)}"
                )
            for gain in self.cap_gains:
                if not 0 < gain <= 2:
                    raise SchedulingError(
                        f"cap_gains entries must be in (0, 2], got {gain}"
                    )
        object.__setattr__(
            self,
            "fleet_power_budget_schedule",
            tuple(
                (float(t), float(w))
                for t, w in self.fleet_power_budget_schedule
            ),
        )
        if self.fleet_power_budget_schedule:
            if self.fleet_power_budget_w is None:
                raise SchedulingError(
                    "fleet_power_budget_schedule needs a fleet budget"
                )
            previous_t = -1.0
            for t, w in self.fleet_power_budget_schedule:
                if t < 0:
                    raise SchedulingError(
                        "budget schedule times must be >= 0 seconds"
                    )
                if t <= previous_t:
                    raise SchedulingError(
                        "budget schedule times must be strictly increasing"
                    )
                if w <= 0:
                    raise SchedulingError(
                        "budget schedule budgets must be positive"
                    )
                previous_t = t

    @property
    def required_frequency(self) -> float:
        """The latency-critical SLA clock (Hz)."""
        return self.qos_frequency_fraction * self.server_config.chip.f_nominal

    @property
    def horizon_ns(self) -> int:
        """Simulation horizon (ns)."""
        return seconds_to_ns(self.traffic.duration_seconds)


#: Process-wide idle-server power memo: (config fingerprint, mode value)
#: → (adaptive, static) server watts.  An idle settle is a pure function
#: of the server config and mode (scratch servers always use the default
#: die seed), so every simulation of the same config — both halves of a
#: comparison, every shard of a sharded day — shares one settle.  Skipped
#: while a fault injector is live: injected electrical faults can perturb
#: the settle, and those results must not leak across runs.
_idle_power_memo: BoundedMemo = BoundedMemo(1024)

def clear_fleet_memos() -> None:
    """Reset every process-wide fleet measurement memo.

    Timing code uses this to guarantee a genuinely cold run inside a
    warm process; tests use it to observe the instrumentation a cold
    run emits.  Results are unaffected either way — the memos only skip
    recomputation of pure functions.  The shared settle cache drops its
    *memory* layer only; a configured disk directory stays warm (so a
    rerun after this call reads the disk layer — pass a fresh directory
    for a truly cold run).
    """
    from .scheduler import _freq_memo, _plan_memo, _predictor_memo

    fleet_settle_cache().clear()
    _idle_power_memo.clear()
    _job_rate_memo.clear()
    _predictor_memo.clear()
    _plan_memo.clear()
    _freq_memo.clear()


#: Job-rate memo keyed by settled-result identity (see
#: :meth:`FleetSimulation._job_rate`); values pin the result object.
#: Bounded: a long-lived process churning through many configs must not
#: grow it without limit.
_job_rate_memo: BoundedMemo = BoundedMemo(65536)

# The settle memo itself lives in .settle_cache: a bounded LRU with an
# optional JSON disk layer shared across shard workers, keyed
# (config fingerprint, seed, placement, mode, f_target).  Bypassed while
# a fault injector is live (injected faults can perturb the settle).


@dataclass
class _RunningJob:
    """Progress bookkeeping for one started job."""

    spec: JobSpec
    server_id: int

    #: Nominal-service seconds of work still to do.
    remaining_seconds: float

    #: Work-progress rate (nominal seconds retired per wall second).
    rate: float = 0.0

    last_update_ns: int = 0

    #: Invalidates previously scheduled completion events.
    generation: int = 0

    def sync(self, now_ns: int) -> None:
        """Retire progress up to ``now_ns`` at the current rate."""
        dt = ns_to_seconds(now_ns - self.last_update_ns)
        self.remaining_seconds = max(
            0.0, self.remaining_seconds - self.rate * dt
        )
        self.last_update_ns = now_ns


class FleetSimulation:
    """One policy's run over one trace."""

    def __init__(
        self,
        config: FleetConfig,
        policy: FleetPolicy = AGS_POLICY,
        runner: Optional[SweepRunner] = None,
        trace: Optional[Sequence[JobSpec]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._validate_fault_plan()
        self.runner = runner if runner is not None else default_runner()
        self.trace: Tuple[JobSpec, ...] = tuple(
            trace
            if trace is not None
            else generate_trace(config.traffic, config.seed)
        )
        self.scheduler = OnlineFleetScheduler(
            config.server_config,
            policy,
            required_frequency=config.required_frequency,
            settle=self._scheduler_settle,
            utilization_threshold=config.utilization_threshold,
        )
        self.servers = [
            ServerState(server_id=i, power_cap_w=config.power_cap_w)
            for i in range(config.n_servers)
        ]
        self.accounts = [
            EnergyAccount(server_id=i) for i in range(config.n_servers)
        ]
        self.log = EventLog()
        self.records: Dict[int, JobRecord] = {}
        self.running: Dict[int, _RunningJob] = {}
        self.queue: List[int] = []
        self.events = EventQueue()
        self.qos_violations = 0
        self.n_epochs = 0
        self.settle_seconds = 0.0
        #: Simulated now (ns) — advanced by the event loop; read by the
        #: observability layer's span clock, never by the model itself.
        self.now_ns = 0
        self._runtime = RuntimeModel()
        self._idle_memo: Dict[str, Tuple[float, float]] = {}
        self._cfg_fp = config_fingerprint(config.server_config)
        #: Event dispatch table for the run loop (one dict lookup per
        #: event instead of an isinstance ladder).
        self._dispatch = {
            CompletionEvent: self._handle_completion,
            ArrivalEvent: self._handle_arrival,
            RebalanceEvent: self._handle_rebalance,
            ServerFaultEvent: self._handle_server_fault,
            JobKillEvent: self._handle_job_kill,
            JobRetryEvent: self._handle_job_retry,
            FallbackEvent: self._handle_fallback,
            PowerCapTickEvent: self._handle_powercap_tick,
        }
        # --- power-cap coordination state (inert without a budget) ---
        #: The periodic budget coordinator (``None`` = no fleet budget).
        self.coordinator: Optional[PowerCapCoordinator] = (
            PowerCapCoordinator(
                budget_w=config.fleet_power_budget_w,
                n_servers=config.n_servers,
                gain=config.cap_gain,
                gains=config.cap_gains,
            )
            if config.fleet_power_budget_w is not None
            else None
        )
        #: Budget re-decomposition schedule, consumed in time order at
        #: coordinator tick boundaries (empty = fixed budget).
        self._budget_schedule: Tuple[Tuple[float, float], ...] = (
            config.fleet_power_budget_schedule
        )
        self._next_budget_index = 0
        #: Coordinator-assigned caps by server id (quantized W).
        self._server_caps: Dict[int, float] = {}
        #: Latest per-server CapResult for throttled servers — the
        #: actuator's receipt (see :mod:`repro.guardband.capping`).
        self.cap_results: Dict[int, "CapResult"] = {}
        #: (time_ns, measured fleet W) per coordinator tick.
        self._tick_samples: List[Tuple[int, float]] = []
        #: Descending DVFS frequencies the cap walk may pin (lazy).
        self._cap_frequencies: Optional[Tuple[float, ...]] = None
        self.cap_throttle_epochs = 0
        self.powercap_ticks = 0
        self._specs = {job.job_id: job for job in self.trace}
        # --- graceful-degradation state (inert with an empty plan) ---
        #: Jobs waiting out a retry backoff (neither running nor queued —
        #: the conservation check counts them with the queue).
        self.pending_retries: Set[int] = set()
        #: Per-job requeue tally (drives the exponential backoff).
        self.retry_counts: Dict[int, int] = {}
        #: High-water generation per job: a restart begins above every
        #: completion event its previous life scheduled, so stale
        #: pre-crash completions can never finish the restarted job.
        self._job_generations: Dict[int, int] = {}
        self.n_requeues = 0
        self.n_server_crashes = 0
        self.n_job_kills = 0
        #: Watchdog snapshot: last adjudicated fleet energy total (J).
        self._wd_energy_joules = 0.0
        #: Open fallback windows: (server, socket) -> entry time (ns).
        self._fallback_since: Dict[Tuple[int, int], int] = {}
        #: Closed fallback dwell per (server, socket), in ns.
        self._fallback_ns: Dict[Tuple[int, int], int] = {}

    def _validate_fault_plan(self) -> None:
        """Reject plans naming servers the fleet does not have."""
        for spec in self.fault_plan.server_scoped_specs():
            server_id = getattr(spec, "server_id", None)
            if server_id is not None and server_id >= self.config.n_servers:
                raise FaultError(
                    f"{spec.kind}: server_id {server_id} out of range for a "
                    f"{self.config.n_servers}-server fleet"
                )

    # ------------------------------------------------------------------
    # Measurement plumbing
    # ------------------------------------------------------------------
    def _settle(
        self,
        placement,
        mode: GuardbandMode,
        f_target: Optional[float] = None,
    ) -> RunResult:
        """Settle one placement through the shared runner (cached).

        ``f_target`` pins the settle's frequency ceiling — the power
        cap's actuation knob.  ``None`` (every uncapped call) settles
        exactly as before; ``f_target`` is already part of the sweep
        task's coordinates, so cache identity is correct either way.
        """
        memoizable = not fault_injector().enabled
        key = (self._cfg_fp, self.config.seed, placement, mode, f_target)
        if memoizable:
            hit = fleet_settle_cache().get(key)
            if hit is not None:
                return hit
        profile = None
        for socket_groups in placement.groups:
            for group in socket_groups:
                profile = group.profile
                break
            if profile is not None:
                break
        if profile is None:
            raise SchedulingError("cannot settle an empty placement")
        task = SweepTask.scheduled(placement, profile, mode, f_target=f_target)
        report = self.runner.run(
            [task], self.config.server_config, seed_root=self.config.seed
        )
        self.settle_seconds += report.wall_time
        result = report.results[0]
        if memoizable:
            fleet_settle_cache().put(key, result)
        return result

    def _cap_walk_frequencies(self) -> Tuple[float, ...]:
        """The DVFS menu the cap walk steps down, fastest first.

        The shared :func:`~repro.guardband.capping.cap_walk_frequencies`
        menu, executed through the sweep runner so every candidate point
        is cached and deterministic.
        """
        if self._cap_frequencies is None:
            self._cap_frequencies = cap_walk_frequencies(
                self.config.server_config
            )
        return self._cap_frequencies

    def _settle_capped(
        self, placement, mode: GuardbandMode, cap_w: Optional[float]
    ) -> Tuple[RunResult, bool]:
        """Settle under a server power cap: bisect the DVFS table.

        Returns ``(result, throttled)``.  Uncapped (or fitting) settles
        take exactly the pre-cap path.  Settled server power is monotone
        non-increasing as the frequency ceiling drops, so the candidates
        that fit the cap form a suffix of the fastest-first menu — the
        *fastest fitting point* (what the old linear walk selected) is
        found by bisection in O(log n) settles instead of O(n), every
        probe still routed through the shared settle cache.  When even
        the lowest table point exceeds the cap, the floor point is used
        (best effort — a fleet must keep running; the strict variant
        that refuses lives in :meth:`PowerCapPolicy.enforce`).
        """
        result = self._settle(placement, mode)
        if cap_w is None or result.adaptive.point.server_power <= cap_w:
            return result, False
        # Ceilings at or above the uncapped settle's slowest clock cannot
        # produce a slower settle — the old walk skipped them unprobed.
        candidates = [
            frequency
            for frequency in self._cap_walk_frequencies()
            if frequency < result.adaptive.point.min_frequency
        ]
        if not candidates:
            return result, True
        lo, hi = 0, len(candidates)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._settle(placement, mode, candidates[mid])
            if probe.adaptive.point.server_power <= cap_w:
                hi = mid
            else:
                lo = mid + 1
        # No candidate fits: best-effort floor (slowest point).  The
        # re-settle is a settle-cache memory hit, never a second solve.
        index = min(lo, len(candidates) - 1)
        return self._settle(placement, mode, candidates[index]), True

    def _scheduler_settle(
        self,
        placement,
        mode: GuardbandMode,
        cap_w: Optional[float] = None,
    ) -> RunResult:
        """Settle callback handed to the scheduler's advisor gate.

        The third argument lets the gate adjudicate the SLA against the
        *capped* frequency ceiling of the candidate server — capping
        shifts the borrow-vs-pack crossover, and the gate must see it.
        """
        result, _ = self._settle_capped(placement, mode, cap_w)
        return result

    def _effective_cap(self, server_id: int) -> Optional[float]:
        """The binding cap of one server: static config ∧ coordinator."""
        caps = [
            cap
            for cap in (
                self.config.power_cap_w,
                self._server_caps.get(server_id),
            )
            if cap is not None
        ]
        return min(caps) if caps else None

    def _idle_powers(self, mode: GuardbandMode) -> Tuple[float, float]:
        """(adaptive, static) server power of a powered-on empty server.

        Settled once per mode by gating every core on a scratch server —
        the power floor a hysteresis-held server keeps burning.
        """
        if mode.value not in self._idle_memo:
            memoizable = not fault_injector().enabled
            shared_key = (self._cfg_fp, mode.value)
            if memoizable and shared_key in _idle_power_memo:
                self._idle_memo[mode.value] = _idle_power_memo[shared_key]
                return self._idle_memo[mode.value]
            powers = []
            for settle_mode in (mode, GuardbandMode.STATIC):
                server = build_server(self.config.server_config)
                server.gate_unused([0] * server.n_sockets)
                point = server.operate(settle_mode)
                powers.append(point.server_power)
            self._idle_memo[mode.value] = (powers[0], powers[1])
            if memoizable:
                _idle_power_memo[shared_key] = self._idle_memo[mode.value]
        return self._idle_memo[mode.value]

    def _job_rate(
        self, job: JobSpec, share: Tuple[int, ...], result: RunResult
    ) -> float:
        """Work-progress rate of one job at a settled operating point.

        Memoized by the *identity* of the settled result — the settle
        memo returns the same object for the same state, so a fleet day
        re-derives each (point, workload, share) rate once.  The value
        pins the result object, which keeps its id from being recycled;
        the ``is`` check covers recycling regardless.
        """
        key = (id(result), job.profile_name, share, self._cfg_fp)
        hit = _job_rate_memo.get(key)
        if hit is not None and hit[0] is result:
            return hit[1]
        profile = job.profile()
        socket_share = SocketShare(share)
        frequencies = [
            socket_min_active_frequency(result.adaptive.point, socket_id)
            for socket_id, n in enumerate(share)
            if n > 0
        ]
        observed = min(frequencies)
        nominal = self.config.server_config.chip.f_nominal
        speedup = self._runtime.frequency_speedup(profile, observed, nominal)
        stretch = self._runtime.stretch_factor(profile, socket_share)
        rate = speedup / stretch
        _job_rate_memo[key] = (result, rate)
        return rate

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _commit_plan(
        self, state: ServerState, plan: PlacementPlan, now_ns: int
    ) -> None:
        """Apply a server's rebuilt placement: energy edge, new powers,
        re-estimated job rates and completions, QoS adjudication.

        A server with any socket in static fallback settles the whole
        placement at the static guardband — conservative by design: one
        distrusted CPM stream forfeits the server's adaptive surplus
        until the telemetry re-arms.  Inert with no fallback sockets.
        """
        if (
            state.fallback_sockets
            and plan.placement is not None
            and plan.guardband_mode is not GuardbandMode.STATIC
        ):
            plan = replace(plan, guardband_mode=GuardbandMode.STATIC)
        account = self.accounts[state.server_id]
        account.advance(now_ns)
        previous_plan, state.plan = state.plan, plan
        if plan.placement is None:
            if state.powered:
                idle_adaptive, idle_static = self._idle_powers(
                    self.policy.batch_mode
                )
                account.set_power(idle_adaptive, idle_static)
            else:
                account.set_power(0.0, 0.0)
            return
        cap_w = self._effective_cap(state.server_id)
        obs = observability()
        with obs.span(
            "fleet.epoch",
            server_id=state.server_id,
            regime=plan.mode_name,
            guardband=plan.guardband_mode.value,
            n_jobs=len(state.jobs),
        ):
            result, throttled = self._settle_capped(
                plan.placement, plan.guardband_mode, cap_w
            )
        if throttled:
            self.cap_throttle_epochs += 1
            # The actuator's receipt: what the cap walk settled to.
            self.cap_results[state.server_id] = CapResult(
                cap=cap_w,
                frequency=result.adaptive.point.min_frequency,
                power=result.adaptive.point.server_power,
                adaptive=plan.guardband_mode is not GuardbandMode.STATIC,
                solution=result.adaptive.point.socket_point(0).solution,
            )
            if obs.enabled:
                obs.count(
                    "fleet_cap_throttle_total",
                    help_text=(
                        "Epochs the power cap stepped down the DVFS table."
                    ),
                    regime=plan.mode_name,
                )
        elif cap_w is not None:
            self.cap_results.pop(state.server_id, None)
        if obs.enabled:
            obs.count(
                "fleet_epochs_total",
                help_text="Placement-change epochs settled.",
                regime=plan.mode_name,
                guardband=plan.guardband_mode.value,
            )
            previous_regime = (
                previous_plan.mode_name
                if previous_plan is not None and previous_plan.placement
                else "idle"
            )
            if previous_regime != plan.mode_name:
                obs.count(
                    "ags_regime_switches_total",
                    help_text=(
                        "Per-server AGS regime transitions "
                        "(borrowing/packing/qos_mapping, 'idle' = empty)."
                    ),
                    from_regime=previous_regime,
                    to_regime=plan.mode_name,
                )
        account.set_power(
            result.adaptive.point.server_power,
            result.static.point.server_power,
        )
        self.n_epochs += 1
        cap_fields = {}
        if cap_w is not None:
            # Only capped runs grow these fields, so an uncapped run's
            # log (and hash) is byte-identical to the pre-cap engine.
            cap_fields = {"cap_w": cap_w, "cap_throttled": throttled}
        self.log.append(
            "epoch",
            now_ns,
            server_id=state.server_id,
            mode=plan.mode_name,
            guardband=plan.guardband_mode.value,
            adaptive_power_w=result.adaptive.point.server_power,
            static_power_w=result.static.point.server_power,
            n_jobs=len(state.jobs),
            **cap_fields,
        )
        for job_id in sorted(state.jobs):
            runner_job = self.running[job_id]
            runner_job.sync(now_ns)
            runner_job.rate = self._job_rate(
                runner_job.spec, plan.job_shares[job_id], result
            )
            runner_job.generation += 1
            # The bump orphans the job's previously scheduled completion
            # (a fresh start has none — a self-correcting overcount).
            self.events.note_stale()
            self._schedule_completion(runner_job, now_ns)
        if plan.has_lc and self.policy.adaptive:
            self._adjudicate_qos(state, result, now_ns)

    def _schedule_completion(self, job: _RunningJob, now_ns: int) -> None:
        if job.rate <= 0:
            raise SchedulingError(
                f"job {job.spec.job_id} has a non-positive progress rate"
            )
        eta_ns = seconds_to_ns(job.remaining_seconds / job.rate)
        self.events.push(
            CompletionEvent(
                time_ns=now_ns + eta_ns,
                job_id=job.spec.job_id,
                generation=job.generation,
            )
        )

    def _adjudicate_qos(
        self, state: ServerState, result: RunResult, now_ns: int
    ) -> None:
        """Check the frequency SLA on the latency-critical socket."""
        measured = socket_min_active_frequency(result.adaptive.point, 0)
        if measured < self.config.required_frequency:
            self.qos_violations += 1
            observability().count(
                "fleet_qos_violations_total",
                help_text="Frequency-SLA violations by cause.",
                reason="frequency",
            )
            self.log.append(
                "qos_violation",
                now_ns,
                server_id=state.server_id,
                reason="frequency",
                measured_hz=measured,
                required_hz=self.config.required_frequency,
            )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_arrival(self, event: ArrivalEvent) -> None:
        spec = self._specs[event.job_id]
        self.records[spec.job_id] = JobRecord(
            job_id=spec.job_id,
            job_class=spec.job_class,
            profile_name=spec.profile_name,
            n_threads=spec.n_threads,
            service_seconds=spec.service_seconds,
            arrival_ns=event.time_ns,
        )
        self.log.append(
            "arrival",
            event.time_ns,
            job_id=spec.job_id,
            job_class=spec.job_class,
            profile=spec.profile_name,
            n_threads=spec.n_threads,
        )
        observability().count(
            "fleet_jobs_arrived_total",
            help_text="Job arrivals by class.",
            job_class=spec.job_class,
        )
        if not self._try_start(spec, event.time_ns):
            self.queue.append(spec.job_id)
            self.log.append("queued", event.time_ns, job_id=spec.job_id)
            observability().count(
                "fleet_jobs_queued_total",
                help_text="Arrivals rejected by first-fit (queued).",
                job_class=spec.job_class,
            )
            if spec.latency_critical:
                # A critical job that cannot start immediately already
                # missed its SLA — admission latency is part of QoS.
                self.qos_violations += 1
                observability().count(
                    "fleet_qos_violations_total",
                    help_text="Frequency-SLA violations by cause.",
                    reason="queued",
                )
                self.log.append(
                    "qos_violation",
                    event.time_ns,
                    job_id=spec.job_id,
                    reason="queued",
                )

    def _try_start(self, spec: JobSpec, now_ns: int) -> bool:
        placed = self.scheduler.try_place(spec, self.servers)
        if placed is None:
            return False
        server_id, plan = placed
        state = self.servers[server_id]
        if not state.powered:
            state.powered = True
            self.accounts[server_id].advance(now_ns)
            self.log.append("power_on", now_ns, server_id=server_id)
            self._record_power_cycle("on")
        state.jobs[spec.job_id] = spec
        state.rebalance_generation += 1  # cancel any pending power-off
        record = self.records[spec.job_id]
        record.start_ns = now_ns
        record.server_id = server_id
        self.running[spec.job_id] = _RunningJob(
            spec=spec,
            server_id=server_id,
            remaining_seconds=spec.service_seconds,
            last_update_ns=now_ns,
            # Restarts resume above the high-water generation so stale
            # pre-requeue completion events never match (0 on first start).
            generation=self._job_generations.get(spec.job_id, 0),
        )
        self.log.append(
            "start",
            now_ns,
            job_id=spec.job_id,
            server_id=server_id,
            queued_seconds=ns_to_seconds(now_ns - record.arrival_ns),
        )
        obs = observability()
        if obs.enabled:
            obs.count(
                "fleet_jobs_started_total",
                help_text="Jobs placed onto a server.",
                job_class=spec.job_class,
            )
            obs.observe(
                "fleet_queue_wait_seconds",
                ns_to_seconds(now_ns - record.arrival_ns),
                help_text="Admission-queue wait of started jobs.",
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
        self._commit_plan(state, plan, now_ns)
        return True

    def _event_is_stale(self, event: FleetEvent) -> bool:
        """Whether an in-heap event's premise has been superseded.

        Used both by the run loop's lazy deletion and as the heap's
        compaction predicate, so it must be *monotone*: once an in-heap
        event tests stale it can never test live again.  Generation
        counters only increase (restarts resume above the high-water
        mark), which is exactly that guarantee.  Conditions that can
        toggle (a repaired server, a retry re-arming) stay out of this
        predicate and are adjudicated by the handlers at fire time.
        """
        if isinstance(event, CompletionEvent):
            job = self.running.get(event.job_id)
            return job is None or job.generation != event.generation
        if isinstance(event, RebalanceEvent):
            state = self.servers[event.server_id]
            return event.generation != state.rebalance_generation
        return False

    def _handle_completion(self, event: CompletionEvent) -> None:
        job = self.running.get(event.job_id)
        wd = watchdog()
        if wd.enabled and job is not None:
            # Generations only count up, so an event generation above the
            # job's current one is impossible bookkeeping, not staleness.
            wd.heap_generation(event.job_id, event.generation, job.generation)
        if job is None or job.generation != event.generation:
            return  # stale estimate, superseded by a later placement
        now_ns = event.time_ns
        job.sync(now_ns)
        job.remaining_seconds = 0.0
        del self.running[event.job_id]
        state = self.servers[job.server_id]
        del state.jobs[event.job_id]
        record = self.records[event.job_id]
        record.completion_ns = now_ns
        self.log.append(
            "completion",
            now_ns,
            job_id=event.job_id,
            server_id=job.server_id,
            latency_seconds=record.latency_seconds,
        )
        obs = observability()
        if obs.enabled:
            obs.count(
                "fleet_jobs_completed_total",
                help_text="Jobs finished inside the horizon.",
                job_class=record.job_class,
            )
            obs.observe(
                "fleet_job_latency_seconds",
                record.latency_seconds,
                help_text="Arrival-to-completion latency of finished jobs.",
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
        self._after_departure(state, now_ns)

    def _after_departure(self, state: ServerState, now_ns: int) -> None:
        """Shared tail of a job leaving a server (completion, kill):
        rebuild the placement, arm the power-off hysteresis on an emptied
        server, and drain the admission queue into the freed capacity."""
        plan = self.scheduler.build_plan(list(state.jobs.values()))
        self._commit_plan(state, plan, now_ns)
        if state.empty:
            state.rebalance_generation += 1
            self.events.push(
                RebalanceEvent(
                    time_ns=now_ns
                    + seconds_to_ns(
                        self.config.power_off_hysteresis_seconds
                    ),
                    server_id=state.server_id,
                    generation=state.rebalance_generation,
                )
            )
        self._drain_queue(now_ns)

    def _handle_rebalance(self, event: RebalanceEvent) -> None:
        state = self.servers[event.server_id]
        if event.generation != state.rebalance_generation:
            return  # the server got work since; power-off cancelled
        if not (state.powered and state.empty):
            return
        account = self.accounts[state.server_id]
        account.advance(event.time_ns)
        account.set_power(0.0, 0.0)
        state.powered = False
        self.log.append(
            "power_off", event.time_ns, server_id=state.server_id
        )
        self._record_power_cycle("off")

    def _drain_queue(self, now_ns: int) -> None:
        """Start every queued job that now fits, FIFO with skip-ahead."""
        still_waiting: List[int] = []
        for job_id in self.queue:
            spec = self._specs[job_id]
            if not self._try_start(spec, now_ns):
                still_waiting.append(job_id)
        self.queue = still_waiting

    def _record_power_cycle(self, transition: str) -> None:
        """Mirror a power edge into the metrics layer (read-only)."""
        obs = observability()
        if not obs.enabled:
            return
        obs.count(
            "fleet_power_cycles_total",
            help_text="Server power transitions.",
            transition=transition,
        )
        obs.gauge(
            "fleet_servers_powered",
            sum(1 for s in self.servers if s.powered),
            help_text="Powered-on servers right now.",
        )

    # ------------------------------------------------------------------
    # Fault handling and graceful degradation
    # ------------------------------------------------------------------
    def _schedule_faults(self) -> None:
        """Map the plan's server-scoped specs onto discrete events.

        Crashes (and their repairs), job kills, and per-socket telemetry
        corruption windows (which the engine models as static-fallback
        windows: corruption duration plus the re-arm dwell).  Called once
        before the loop; a no-op with an empty plan.
        """
        rearm_ns = seconds_to_ns(FALLBACK_REARM_SECONDS)
        for spec in self.fault_plan.server_scoped_specs():
            start_ns = seconds_to_ns(spec.start_seconds)
            if isinstance(spec, ServerCrashFault):
                self.events.push(
                    ServerFaultEvent(
                        time_ns=start_ns,
                        server_id=spec.server_id,
                        action="crash",
                    )
                )
                if spec.repair_seconds is not None:
                    self.events.push(
                        ServerFaultEvent(
                            time_ns=start_ns
                            + seconds_to_ns(spec.repair_seconds),
                            server_id=spec.server_id,
                            action="repair",
                        )
                    )
            elif isinstance(spec, JobKillFault):
                self.events.push(
                    JobKillEvent(time_ns=start_ns, job_id=spec.job_id)
                )
            elif getattr(spec, "socket_id", None) is not None:
                server_id = spec.server_id
                self.events.push(
                    FallbackEvent(
                        time_ns=start_ns,
                        server_id=server_id,
                        socket_id=spec.socket_id,
                        action="enter",
                        kind=spec.kind,
                    )
                )
                if spec.duration_seconds is not None:
                    self.events.push(
                        FallbackEvent(
                            time_ns=start_ns
                            + seconds_to_ns(spec.duration_seconds)
                            + rearm_ns,
                            server_id=server_id,
                            socket_id=spec.socket_id,
                            action="exit",
                            kind=spec.kind,
                        )
                    )

    def _requeue(self, job_id: int, now_ns: int, reason: str) -> None:
        """Pull one running job off its server and schedule a retry.

        The job restarts from scratch (crash-victim work is lost); the
        retry fires after a capped exponential backoff.
        """
        job = self.running.pop(job_id)
        state = self.servers[job.server_id]
        state.jobs.pop(job_id, None)
        self._job_generations[job_id] = job.generation + 1
        # The victim's in-flight completion estimate will never match again.
        self.events.note_stale()
        retries = self.retry_counts.get(job_id, 0) + 1
        self.retry_counts[job_id] = retries
        backoff = min(
            RETRY_BACKOFF_SECONDS * 2 ** (retries - 1),
            RETRY_BACKOFF_CAP_SECONDS,
        )
        self.pending_retries.add(job_id)
        self.events.push(
            JobRetryEvent(
                time_ns=now_ns + seconds_to_ns(backoff), job_id=job_id
            )
        )
        self.n_requeues += 1
        self.log.append(
            "requeue",
            now_ns,
            job_id=job_id,
            server_id=state.server_id,
            reason=reason,
            retries=retries,
            backoff_seconds=backoff,
        )
        observability().count(
            "tasks_retried_total",
            help_text="Task retry attempts by layer.",
            layer="fleet",
        )

    def _handle_server_fault(self, event: ServerFaultEvent) -> None:
        state = self.servers[event.server_id]
        if event.action == "repair":
            if not state.failed:
                return
            state.failed = False
            # A dead server's coordinator cap is 0 W; dropping it lets
            # the repaired server restart under the static config cap
            # until the next tick re-includes it in the distribution.
            self._server_caps.pop(state.server_id, None)
            state.power_cap_w = self._effective_cap(state.server_id)
            self.log.append(
                "server_repair", event.time_ns, server_id=state.server_id
            )
            self._drain_queue(event.time_ns)
            return
        if state.failed:
            return
        self.n_server_crashes += 1
        _record_injection(ServerCrashFault.kind)
        account = self.accounts[state.server_id]
        account.advance(event.time_ns)
        account.set_power(0.0, 0.0)
        victims = sorted(state.jobs)
        for job_id in victims:
            self._requeue(job_id, event.time_ns, reason="server_crash")
        state.failed = True
        state.powered = False
        state.plan = None
        state.rebalance_generation += 1  # cancel any pending power-off
        self.log.append(
            "server_crash",
            event.time_ns,
            server_id=state.server_id,
            n_victims=len(victims),
        )

    def _handle_job_kill(self, event: JobKillEvent) -> None:
        job = self.running.get(event.job_id)
        if job is None:
            return  # not running right now — the kill misses
        self.n_job_kills += 1
        _record_injection(JobKillFault.kind)
        state = self.servers[job.server_id]
        self.log.append(
            "job_kill",
            event.time_ns,
            job_id=event.job_id,
            server_id=state.server_id,
        )
        self._requeue(event.job_id, event.time_ns, reason="job_kill")
        self._after_departure(state, event.time_ns)

    def _handle_job_retry(self, event: JobRetryEvent) -> None:
        if event.job_id not in self.pending_retries:
            return
        self.pending_retries.discard(event.job_id)
        spec = self._specs[event.job_id]
        if not self._try_start(spec, event.time_ns):
            # Still no room: join the FIFO queue, drained on the next
            # departure like any other waiting job.
            self.queue.append(event.job_id)
            self.log.append(
                "queued", event.time_ns, job_id=event.job_id, retry=True
            )

    def _handle_fallback(self, event: FallbackEvent) -> None:
        state = self.servers[event.server_id]
        key = (event.server_id, event.socket_id)
        if event.action == "enter":
            if event.socket_id in state.fallback_sockets:
                return
            _record_injection(event.kind)
            state.fallback_sockets.add(event.socket_id)
            self._fallback_since[key] = event.time_ns
            self._record_fleet_fallback("enter")
            self.log.append(
                "fallback_enter",
                event.time_ns,
                server_id=event.server_id,
                socket_id=event.socket_id,
                fault_kind=event.kind,
            )
        else:
            if event.socket_id not in state.fallback_sockets:
                return
            state.fallback_sockets.discard(event.socket_id)
            dwell_ns = event.time_ns - self._fallback_since.pop(key)
            self._fallback_ns[key] = self._fallback_ns.get(key, 0) + dwell_ns
            self._record_fleet_fallback("exit")
            self._observe_fallback_dwell(ns_to_seconds(dwell_ns))
            self.log.append(
                "fallback_exit",
                event.time_ns,
                server_id=event.server_id,
                socket_id=event.socket_id,
                dwell_seconds=ns_to_seconds(dwell_ns),
            )
        # Re-settle the resident placement so the guardband change takes
        # effect immediately, not at the next membership change.
        if state.jobs and not state.failed:
            plan = self.scheduler.build_plan(list(state.jobs.values()))
            self._commit_plan(state, plan, event.time_ns)

    def _handle_powercap_tick(self, event: PowerCapTickEvent) -> None:
        """One coordinator period: measure, integrate, redistribute.

        The decision lands in the event log twice over — one aggregate
        ``powercap`` entry per tick plus a ``cap_update`` entry per
        server whose cap moved — and every touched server with resident
        work re-commits its plan immediately, so the new ceiling takes
        effect this epoch, not at the next membership change.
        """
        coordinator = self.coordinator
        if coordinator is None:  # pragma: no cover - ticks imply a budget
            raise SchedulingError("power-cap tick without a coordinator")
        # Apply any due budget re-decomposition before measuring, so the
        # tick integrates against the budget that now applies.
        while self._next_budget_index < len(self._budget_schedule):
            at_seconds, budget_w = self._budget_schedule[
                self._next_budget_index
            ]
            if seconds_to_ns(at_seconds) > event.time_ns:
                break
            self._next_budget_index += 1
            if budget_w == coordinator.budget_w:
                continue
            coordinator.set_budget(budget_w)
            self.log.append(
                "budget_update", event.time_ns, budget_w=budget_w
            )
        measured = [
            (
                self.accounts[state.server_id].adaptive_power_w
                if state.powered and not state.failed
                else 0.0
            )
            for state in self.servers
        ]
        # The live mask keeps crashed servers from being handed the
        # uniform idle share — their watts re-decompose to survivors —
        # and resets the integral state on any membership change.
        live = [not state.failed for state in self.servers]
        update = coordinator.tick(measured, live=live)
        wd = watchdog()
        if wd.enabled:
            wd.cap_sum(
                update.caps,
                measured,
                live,
                fleet_cap_w=update.fleet_cap_w,
                ceiling_w=coordinator.ceiling_w,
                floor_w=coordinator.floor_w,
                quantum_w=coordinator.quantum_w,
            )
            total_j = sum(a.adaptive_joules for a in self.accounts)
            wd.energy_ledger(self._wd_energy_joules, total_j)
            self._wd_energy_joules = total_j
        self.powercap_ticks += 1
        self._tick_samples.append((event.time_ns, update.measured_w))
        self.log.append(
            "powercap",
            event.time_ns,
            tick=update.tick,
            budget_w=coordinator.budget_w,
            measured_w=update.measured_w,
            fleet_cap_w=update.fleet_cap_w,
        )
        obs = observability()
        if obs.enabled:
            obs.count(
                "fleet_powercap_ticks_total",
                help_text="Power-cap coordinator periods fired.",
            )
            obs.gauge(
                "fleet_power_budget_w",
                coordinator.budget_w,
                help_text="Configured fleet power budget.",
            )
            obs.gauge(
                "fleet_power_measured_w",
                update.measured_w,
                help_text="Fleet rail power at the last coordinator tick.",
            )
            obs.gauge(
                "fleet_power_cap_w",
                update.fleet_cap_w,
                help_text="Total wattage the coordinator is handing out.",
            )
        changed = []
        for state in self.servers:
            server_id = state.server_id
            cap = update.caps[server_id]
            if self._server_caps.get(server_id) == cap:
                continue
            self._server_caps[server_id] = cap
            changed.append(server_id)
            self.log.append(
                "cap_update",
                event.time_ns,
                server_id=server_id,
                cap_w=cap,
            )
        for server_id in changed:
            state = self.servers[server_id]
            state.power_cap_w = self._effective_cap(server_id)
            if state.failed or not state.jobs:
                continue
            plan = self.scheduler.build_plan(list(state.jobs.values()))
            self._commit_plan(state, plan, event.time_ns)

    def _schedule_powercap_ticks(self, horizon_ns: int) -> None:
        """Pre-push the whole horizon's coordinator ticks (budget on)."""
        if self.coordinator is None:
            return
        interval_ns = seconds_to_ns(self.config.cap_interval_seconds)
        time_ns = interval_ns
        index = 1
        while time_ns <= horizon_ns:
            self.events.push(
                PowerCapTickEvent(time_ns=time_ns, index=index)
            )
            time_ns += interval_ns
            index += 1

    def _steady_measured_w(self, horizon_ns: int) -> float:
        """Mean measured fleet power over the steady-state tick window.

        The window is the last quarter of the horizon; with no tick in
        it (short runs) every tick counts, and with no ticks at all the
        statistic is 0.0.
        """
        if not self._tick_samples:
            return 0.0
        cutoff = 3 * horizon_ns // 4
        window = [w for t, w in self._tick_samples if t >= cutoff]
        if not window:
            window = [w for _, w in self._tick_samples]
        return sum(window) / len(window)

    @staticmethod
    def _record_fleet_fallback(direction: str) -> None:
        observability().count(
            "fallback_transitions_total",
            help_text=(
                "Static-guardband fallback transitions by layer "
                "(guardband = per-socket controller, fleet = engine)."
            ),
            direction=direction,
            layer="fleet",
            reason="cpm_corruption",
        )

    @staticmethod
    def _observe_fallback_dwell(seconds: float) -> None:
        observability().observe(
            "fallback_static_seconds",
            seconds,
            help_text=(
                "Per-socket dwell in static fallback (corruption window "
                "plus re-arm hysteresis)."
            ),
            buckets=(60.0, 300.0, 600.0, 1800.0, 3600.0, 7200.0, 14400.0),
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Drive the whole trace and return the sealed ledgers."""
        horizon_ns = self.config.horizon_ns
        obs = observability()
        # The tracer's clock reads the loop's simulated now; installing
        # (and restoring) it is a no-op while observability is disabled.
        previous_clock = obs.set_clock(lambda: self.now_ns)
        # Arm settle-cache corruption for the run (chaos plans only):
        # torn disk writes are detected, quarantined and recomputed, so
        # the outcome — hence the digest — is provably unchanged.
        cache_specs = self.fault_plan.cache_specs()
        previous_tear = (
            fleet_settle_cache().arm_corruption(
                min(spec.every_n for spec in cache_specs)
            )
            if cache_specs
            else None
        )
        try:
            with obs.span(
                "fleet.run",
                policy=self.policy.name,
                n_servers=self.config.n_servers,
                seed=self.config.seed,
            ):
                result = self._run_loop(horizon_ns)
        finally:
            if cache_specs:
                fleet_settle_cache().arm_corruption(previous_tear)
            obs.set_clock(previous_clock)
        if obs.enabled:
            obs.gauge(
                "fleet_energy_joules",
                result.adaptive_energy_joules,
                help_text="Fleet energy at the horizon by rail.",
                rail="adaptive",
            )
            obs.gauge(
                "fleet_energy_joules",
                result.static_energy_joules,
                help_text="Fleet energy at the horizon by rail.",
                rail="static",
            )
            obs.gauge(
                "fleet_settle_wall_seconds",
                self.settle_seconds,
                help_text="Cumulative wall time spent settling placements.",
            )
        return result

    def _run_loop(self, horizon_ns: int) -> FleetResult:
        self._schedule_faults()
        self._schedule_powercap_ticks(horizon_ns)
        # One heapify over the whole trace instead of one push per job —
        # bit-identical pop order (sequence numbers assign exactly as
        # sequential pushes would), linear instead of m log n.
        self.events.bulk_load(
            ArrivalEvent(time_ns=spec.arrival_ns, job_id=spec.job_id)
            for spec in self.trace
            if spec.arrival_ns < horizon_ns
        )
        while len(self.events):
            peek = self.events.peek_time()
            if peek is None or peek > horizon_ns:
                break
            event = self.events.pop()
            if self._event_is_stale(event):
                # Lazy deletion: the event's premise was superseded after
                # it was scheduled.  Handlers would drop it anyway; doing
                # it here keeps the stale-hint ledger balanced.
                self.events.note_stale(-1)
                continue
            self.events.maybe_compact(self._event_is_stale)
            self.now_ns = event.time_ns
            handler = self._dispatch.get(type(event))
            if handler is None:  # pragma: no cover - no other event kinds
                raise SchedulingError(f"unhandled event {event!r}")
            handler(event)
        self.now_ns = horizon_ns
        for account in self.accounts:
            account.advance(horizon_ns)
        for job in self.running.values():
            job.sync(horizon_ns)
        # Close fallback windows still open at the horizon.
        for key in sorted(self._fallback_since):
            dwell_ns = horizon_ns - self._fallback_since[key]
            self._fallback_ns[key] = self._fallback_ns.get(key, 0) + dwell_ns
        self._fallback_since.clear()
        adaptive_j = sum(a.adaptive_joules for a in self.accounts)
        static_j = sum(a.static_joules for a in self.accounts)
        wd = watchdog()
        if wd.enabled:
            wd.energy_ledger(self._wd_energy_joules, adaptive_j)
            self._wd_energy_joules = adaptive_j
            wd.conservation(
                len(self.records),
                sum(1 for r in self.records.values() if r.completed),
                len(self.running),
                len(self.queue) + len(self.pending_retries),
            )
        return FleetResult(
            policy=self.policy.name,
            horizon_ns=horizon_ns,
            adaptive_energy_joules=adaptive_j,
            static_energy_joules=static_j,
            n_arrivals=len(self.records),
            n_completions=sum(
                1 for r in self.records.values() if r.completed
            ),
            n_running=len(self.running),
            n_queued=len(self.queue) + len(self.pending_retries),
            qos_violations=self.qos_violations,
            n_epochs=self.n_epochs,
            event_log_hash=self.log.digest(),
            job_records=tuple(
                self.records[job_id] for job_id in sorted(self.records)
            ),
            events=self.log.entries,
            n_requeues=self.n_requeues,
            n_server_crashes=self.n_server_crashes,
            n_job_kills=self.n_job_kills,
            fallback_seconds=tuple(
                (server_id, socket_id, ns_to_seconds(dwell))
                for (server_id, socket_id), dwell in sorted(
                    self._fallback_ns.items()
                )
            ),
            cap_budget_w=self.config.fleet_power_budget_w or 0.0,
            cap_measured_steady_w=self._steady_measured_w(horizon_ns),
            cap_throttle_epochs=self.cap_throttle_epochs,
            powercap_ticks=self.powercap_ticks,
        )

