"""Online fleet scheduling: placement, hysteresis, and the QoS gate.

The scheduler realizes the paper's cluster sketch (Sec. 5.1.1) as an
*online* policy over a homogeneous fleet of Power 720 servers:

* **across servers** — first-fit onto the lowest-numbered powered server;
  a job that fits nowhere powers on an off server; an emptied server only
  powers off after a hysteresis delay (so a back-to-back arrival does not
  pay a power cycle);
* **within a server** — the AGS regime switch from
  :class:`~repro.core.ags.AdaptiveGuardbandScheduler`, applied per server
  per epoch: light load balances threads across sockets (loadline
  borrowing, undervolt), heavy load packs socket-first; a server hosting
  a latency-critical job switches to **QoS mapping** — the critical
  workload is isolated on socket 0, batch work fills socket 1 first, and
  only advisor-approved co-runners may share socket 0;
* **the advisor gate** — socket-0 co-location with a latency-critical job
  follows the :class:`~repro.core.advisor.ColocationAdvisor` discipline:
  the MIPS predictor rejects candidates whose full-socket mix cannot hold
  the frequency SLA (fast path), and surviving candidates are verified by
  settling the hypothetical placement on the simulator (exact path —
  memoized, and reused verbatim by the energy accounting if admitted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import ServerConfig
from ..core.advisor import ColocationAdvisor
from ..core.placement import Placement, ThreadGroup, cached_hash
from ..core.predictor import fit_mips_predictor
from ..errors import SchedulingError
from ..guardband import GuardbandMode
from ..obs import observability
from ..sim.batch import config_fingerprint
from ..sim.cache import BoundedMemo
from ..sim.results import RunResult
from ..sim.run import build_server
from ..workloads.catalog import get_profile
from .traffic import JobSpec

#: Process-wide fitted-predictor memo, keyed by config fingerprint
#: (see :meth:`OnlineFleetScheduler._fitted_predictor`).
_predictor_memo: BoundedMemo = BoundedMemo(256)

#: Process-wide placement-plan memo: (config fingerprint, policy,
#: utilization threshold, canonical job shape) → (plan template,
#: positional shares).  See :meth:`OnlineFleetScheduler.build_plan`.
_plan_memo: BoundedMemo = BoundedMemo(16384)

#: A job's plan order and plan-memo shape, computed when it is built.
_sort_key = attrgetter("sort_key")
_shape = attrgetter("shape")

#: Within-server placement regimes.
MODE_BORROWING = "borrowing"
MODE_PACKING = "packing"
MODE_QOS = "qos_mapping"


#: Frequency memo keyed by point *identity*: memoized settles return the
#: same point object over and over, so id() is the cheapest possible
#: key.  The value pins the point (keeping its id from being recycled)
#: and the ``is`` check makes even a recycled id harmless.
_freq_memo: BoundedMemo = BoundedMemo(65536)


def socket_min_active_frequency(point, socket_id: int) -> float:
    """Slowest active-core clock (Hz) on one socket of a settled point.

    Falls back to the parked-core minimum when the socket is idle (no
    active core to bound), mirroring
    :meth:`~repro.sim.server.ServerOperatingPoint.min_frequency`.
    """
    key = (id(point), socket_id)
    hit = _freq_memo.get(key)
    if hit is not None and hit[0] is point:
        return hit[1]
    solution = point.socket_point(socket_id).solution
    active = [solution.frequencies[i] for i in solution.active_core_ids]
    value = min(active) if active else min(solution.frequencies)
    _freq_memo[key] = (point, value)
    return value


@cached_hash
@dataclass(frozen=True)
class FleetPolicy:
    """One named scheduling-and-guardbanding regime."""

    name: str

    #: AGS on: borrowing/packing/QoS regime switching and adaptive
    #: guardbanding.  Off: every server packs socket-first (the
    #: conventional consolidation baseline).
    adaptive: bool

    #: Whether socket-0 co-location with a critical job is advisor-gated.
    advisor_gate: bool

    #: Guardband mode of servers hosting only batch work.
    batch_mode: GuardbandMode

    #: Guardband mode of servers hosting a latency-critical job.
    qos_mode: GuardbandMode


#: AGS: undervolt batch servers, overclock QoS servers, gate co-runners.
AGS_POLICY = FleetPolicy(
    name="ags",
    adaptive=True,
    advisor_gate=True,
    batch_mode=GuardbandMode.UNDERVOLT,
    qos_mode=GuardbandMode.OVERCLOCK,
)

#: AGS with the advisor gate off — the ablation that shows why it exists.
UNGATED_AGS_POLICY = FleetPolicy(
    name="ags_ungated",
    adaptive=True,
    advisor_gate=False,
    batch_mode=GuardbandMode.UNDERVOLT,
    qos_mode=GuardbandMode.OVERCLOCK,
)

#: The conventional baseline: consolidate, static guardband, no gate.
CONSOLIDATION_POLICY = FleetPolicy(
    name="consolidation",
    adaptive=False,
    advisor_gate=False,
    batch_mode=GuardbandMode.STATIC,
    qos_mode=GuardbandMode.STATIC,
)

POLICIES = {
    p.name: p for p in (AGS_POLICY, UNGATED_AGS_POLICY, CONSOLIDATION_POLICY)
}


@dataclass(frozen=True)
class PlacementPlan:
    """One server's rebuilt placement after a membership change."""

    #: The electrical placement (``None`` for an empty server).
    placement: Optional[Placement]

    #: Guardband mode the server settles in.
    guardband_mode: GuardbandMode

    #: Within-server regime that produced the placement.
    mode_name: str

    #: Per-job socket shares: job_id -> threads per socket.
    job_shares: Dict[int, Tuple[int, ...]]

    #: Whether a latency-critical job is resident.
    has_lc: bool


@dataclass
class ServerState:
    """Mutable per-server bookkeeping the simulation engine drives."""

    server_id: int
    powered: bool = False

    #: Resident jobs by id (insertion order is irrelevant: plans are
    #: rebuilt from a canonical content ordering).  Change it only
    #: through :meth:`add_job` and :meth:`remove_job`.
    jobs: Dict[int, JobSpec] = field(default_factory=dict)

    #: Threads resident on the server, kept next to ``jobs``.
    total_threads: int = 0

    #: Generation counter invalidating pending power-off rebalances.
    rebalance_generation: int = 0

    #: The server's current plan (``None`` = empty).
    plan: Optional[PlacementPlan] = None

    #: Whether the server is down (injected crash, awaiting repair).
    #: Failed servers admit nothing and burn no power.
    failed: bool = False

    #: Sockets whose CPM telemetry is distrusted: the server settles
    #: every placement at the full static guardband while non-empty.
    fallback_sockets: Set[int] = field(default_factory=set)

    #: The server's currently binding power cap (W); ``None`` =
    #: uncapped.  Maintained by the engine (static config cap and/or
    #: the fleet coordinator); the admission gate adjudicates the SLA
    #: against this ceiling.
    power_cap_w: Optional[float] = None

    def add_job(self, job: JobSpec) -> None:
        """Make ``job`` resident."""
        self.jobs[job.job_id] = job
        self.total_threads += job.n_threads

    def remove_job(self, job_id: int) -> None:
        """Drop resident job ``job_id``."""
        self.total_threads -= self.jobs.pop(job_id).n_threads

    @property
    def empty(self) -> bool:
        """Whether no job is resident."""
        return not self.jobs


class OnlineFleetScheduler:
    """Placement decisions for one policy over a homogeneous fleet."""

    def __init__(
        self,
        config: ServerConfig,
        policy: FleetPolicy,
        required_frequency: float,
        settle: Callable[..., RunResult],
        utilization_threshold: float = 0.5,
    ) -> None:
        # ``settle(placement, mode)`` settles a hypothetical placement;
        # engines that enforce power caps accept an optional third
        # ``cap_w`` argument (the gate only passes it when a cap binds,
        # so plain two-argument callables keep working).
        if required_frequency <= 0:
            raise SchedulingError("required_frequency must be positive")
        if not 0 < utilization_threshold <= 1:
            raise SchedulingError("utilization_threshold must be in (0, 1]")
        self.config = config
        self.policy = policy
        self.required_frequency = required_frequency
        self.utilization_threshold = utilization_threshold
        self._settle = settle
        self._per_socket = config.chip.n_cores
        self._capacity = config.total_cores
        self._predictor = None
        self._advisor_server = None
        #: Memoized advisor verdicts: (critical, candidate) -> safe?
        self._advisor_verdicts: Dict[Tuple[str, str], bool] = {}
        #: Prefix pinning the plan memo to this scheduler's semantics:
        #: any knob that changes what build_plan produces must be here.
        self._plan_key_prefix = (
            config_fingerprint(config),
            policy,
            utilization_threshold,
        )

    @property
    def server_capacity(self) -> int:
        """Thread slots one server offers (one thread per core)."""
        return self._capacity

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_place(
        self, job: JobSpec, servers: Sequence[ServerState]
    ) -> Optional[Tuple[int, PlacementPlan]]:
        """First server (powered first, then off) that admits ``job``.

        Returns ``(server_id, new_plan)`` or ``None`` when no server can
        host the job (it must queue).  Does not mutate any state — the
        engine commits the returned plan.
        """
        room = self._capacity - job.n_threads
        for powered in (True, False):
            for state in servers:
                # The kept count rejects a full server before any
                # candidate list is built; ``fits`` stays the final check.
                if (
                    state.powered != powered
                    or state.total_threads > room
                    or state.failed
                ):
                    continue
                candidate = list(state.jobs.values()) + [job]
                if not self.fits(candidate):
                    continue
                plan = self.build_plan(candidate)
                if not self._gate_ok(plan, candidate, cap_w=state.power_cap_w):
                    continue
                return state.server_id, plan
        return None

    def fits(self, jobs: Sequence[JobSpec]) -> bool:
        """Capacity check for one server's candidate job set."""
        total = sum(job.n_threads for job in jobs)
        if total > self._capacity:
            return False
        if self._uses_qos_mapping(jobs):
            # QoS mapping pins critical threads to socket 0.
            lc_total = sum(
                job.n_threads for job in jobs if job.latency_critical
            )
            return lc_total <= self._per_socket
        return True

    # ------------------------------------------------------------------
    # Within-server placement
    # ------------------------------------------------------------------
    def build_plan(self, jobs: Sequence[JobSpec]) -> PlacementPlan:
        """Rebuild one server's placement from its resident job set.

        Deterministic by content: jobs order canonically (critical first,
        then by workload name, size and id), so any two runs that reach
        the same membership produce byte-identical placements — which is
        what lets the operating-point cache absorb repeated states.
        """
        if not jobs:
            return PlacementPlan(
                placement=None,
                guardband_mode=self.policy.batch_mode,
                mode_name=MODE_PACKING,
                job_shares={},
                has_lc=False,
            )
        ordered = sorted(jobs, key=_sort_key)
        # Plans are positional: two job sets with the same canonical
        # shape (class, workload, width — ids aside) produce the same
        # placement, with shares assigned by canonical position.  Job
        # ids only break ties between otherwise-identical jobs, and the
        # canonical sort orders those by id too, so re-attaching the
        # memoized shares positionally reproduces a fresh build exactly.
        memo_key = self._plan_key_prefix + (tuple(map(_shape, ordered)),)
        hit = _plan_memo.get(memo_key)
        if hit is not None:
            template, share_list = hit
            return PlacementPlan(
                placement=template.placement,
                guardband_mode=template.guardband_mode,
                mode_name=template.mode_name,
                job_shares={
                    job.job_id: share
                    for job, share in zip(ordered, share_list)
                },
                has_lc=template.has_lc,
            )
        has_lc = any(job.latency_critical for job in ordered)
        mode = self._regime(ordered, has_lc)
        loads = [0, 0]
        groups: List[List[ThreadGroup]] = [[], []]
        shares: Dict[int, Tuple[int, ...]] = {}
        for job in ordered:
            share = self._share_for(job, mode, loads)
            for socket_id, n_threads in enumerate(share):
                if n_threads:
                    groups[socket_id].append(
                        ThreadGroup(job.profile(), n_threads)
                    )
                    loads[socket_id] += n_threads
            shares[job.job_id] = tuple(share)
        placement = Placement(
            groups=tuple(tuple(g) for g in groups),
            keep_on=tuple(loads),
            threads_per_core=1,
        )
        guardband = (
            self.policy.qos_mode if has_lc else self.policy.batch_mode
        )
        plan = PlacementPlan(
            placement=placement,
            guardband_mode=guardband,
            mode_name=mode,
            job_shares=shares,
            has_lc=has_lc,
        )
        _plan_memo[memo_key] = (
            plan,
            tuple(shares[job.job_id] for job in ordered),
        )
        return plan

    def _uses_qos_mapping(self, jobs: Sequence[JobSpec]) -> bool:
        return self.policy.adaptive and any(
            job.latency_critical for job in jobs
        )

    def _regime(self, jobs: Sequence[JobSpec], has_lc: bool) -> str:
        if not self.policy.adaptive:
            return MODE_PACKING
        if has_lc:
            return MODE_QOS
        total = sum(job.n_threads for job in jobs)
        utilization = total / self._capacity
        if utilization <= self.utilization_threshold:
            return MODE_BORROWING
        return MODE_PACKING

    def _share_for(
        self, job: JobSpec, mode: str, loads: List[int]
    ) -> List[int]:
        if mode == MODE_QOS:
            if job.latency_critical:
                return self._fill(job.n_threads, loads, (0,))
            return self._fill(job.n_threads, loads, (1, 0))
        if mode == MODE_BORROWING:
            return self._balance(job.n_threads, loads)
        return self._fill(job.n_threads, loads, (0, 1))

    def _fill(
        self, demand: int, loads: List[int], order: Tuple[int, ...]
    ) -> List[int]:
        shares = [0] * len(loads)
        remaining = demand
        for socket_id in order:
            room = self._per_socket - loads[socket_id]
            take = min(max(room, 0), remaining)
            shares[socket_id] = take
            remaining -= take
            if remaining == 0:
                return shares
        raise SchedulingError(
            f"{demand} thread(s) exceed the sockets' remaining capacity"
        )

    def _balance(self, demand: int, loads: List[int]) -> List[int]:
        shares = [0] * len(loads)
        for _ in range(demand):
            candidates = [
                i
                for i in range(len(loads))
                if loads[i] + shares[i] < self._per_socket
            ]
            if not candidates:
                raise SchedulingError("server sockets are full")
            target = min(candidates, key=lambda i: loads[i] + shares[i])
            shares[target] += 1
        return shares

    # ------------------------------------------------------------------
    # The advisor gate
    # ------------------------------------------------------------------
    def _gate_ok(
        self,
        plan: PlacementPlan,
        jobs: Sequence[JobSpec],
        cap_w: Optional[float] = None,
    ) -> bool:
        """Admission verdict for a candidate plan.

        Gating applies only to plans hosting a latency-critical job under
        an advisor-gated policy.  Two tiers, per the ColocationAdvisor
        discipline: the MIPS predictor rejects candidates whose mix with
        the critical workload cannot hold the SLA, then the surviving
        plan is settled and the socket-0 clock measured against it.

        ``cap_w`` is the candidate server's binding power cap: the gate
        then adjudicates against the *capped* frequency ceiling (the
        predictor fast path is skipped — it models contention, not DVFS
        throttling, so its "safe" would be optimistic under a cap).
        """
        if not (self.policy.advisor_gate and plan.has_lc):
            return True
        if cap_w is None:
            by_id = {job.job_id: job for job in jobs}
            critical_names = sorted(
                {job.profile_name for job in jobs if job.latency_critical}
            )
            corunner_names = sorted(
                {
                    by_id[job_id].profile_name
                    for job_id, share in plan.job_shares.items()
                    if share[0] > 0 and not by_id[job_id].latency_critical
                }
            )
            for critical in critical_names:
                for candidate in corunner_names:
                    if not self._advisor_safe(critical, candidate):
                        self._record_gate("rejected", "predictor")
                        return False
        # Exact path: settle the hypothetical placement (memoized by the
        # operating-point cache; if admitted, the energy accounting
        # replays this very point for free).
        if cap_w is None:
            result = self._settle(plan.placement, plan.guardband_mode)
        else:
            result = self._settle(plan.placement, plan.guardband_mode, cap_w)
        measured = socket_min_active_frequency(result.adaptive.point, 0)
        if measured < self.required_frequency:
            self._record_gate("rejected", "measured")
            return False
        self._record_gate("admitted", "measured")
        return True

    @staticmethod
    def _record_gate(verdict: str, path: str) -> None:
        observability().count(
            "ags_advisor_gate_total",
            help_text=(
                "Colocation-advisor gate verdicts on candidate plans "
                "hosting a latency-critical job."
            ),
            verdict=verdict,
            path=path,
        )

    def _advisor_safe(self, critical_name: str, candidate_name: str) -> bool:
        """Predictor fast path, memoized per (critical, candidate) pair."""
        key = (critical_name, candidate_name)
        if key not in self._advisor_verdicts:
            observability().count(
                "ags_advisor_predictions_total",
                help_text=(
                    "Fresh MIPS-predictor evaluations (memo misses) of "
                    "(critical, candidate) pairs."
                ),
            )
            advisor = ColocationAdvisor(
                server=self._scratch_server(),
                critical=get_profile(critical_name),
                predictor=self._fitted_predictor(),
            )
            verdicts = advisor.rank(
                [get_profile(candidate_name)], self.required_frequency
            )
            self._advisor_verdicts[key] = verdicts[0].predicted_safe
        return self._advisor_verdicts[key]

    def _fitted_predictor(self):
        """The Fig. 16 MIPS->frequency predictor, fitted once per config.

        Fitting costs ~0.7 s of settles; a fleet comparison (and every
        shard of a sharded run) builds its own scheduler, so the fit is
        memoized process-wide by config fingerprint rather than per run.
        The fit is a pure function of the config — same inputs, same
        predictor — so sharing it cannot change any scheduling verdict.
        """
        if self._predictor is None:
            key = config_fingerprint(self.config)
            if key not in _predictor_memo:
                _predictor_memo[key] = fit_mips_predictor(self.config)
            self._predictor = _predictor_memo[key]
        return self._predictor

    def _scratch_server(self):
        if self._advisor_server is None:
            self._advisor_server = build_server(self.config)
        return self._advisor_server
