"""The frozen scenario config model: what one reproducible study *is*.

A :class:`Scenario` composes four orthogonal specs — the traffic (the
fleet's own :class:`~repro.fleet.traffic.TrafficConfig`, shape and
workload mix together), fleet topology, policy regime, and fault plan —
plus an optional golden block of summary assertions.  Every spec is a
frozen dataclass that validates eagerly in ``__post_init__`` (the same
contract as :mod:`repro.config`); where a section *is* a fleet or fault
type, its validation lives once, in that type.  Cross-field constraints
that span specs (fault windows beyond the horizon, group targets that
don't exist) are checked by :class:`Scenario` itself, so a scenario
object that exists is a scenario that can run.

The model deliberately mirrors SNIPPETS.md's ``zng_simulator.config``
composition — small orthogonal configs assembled into one ``Scenario``
— lifted to datacenter scale: topology here is *groups of servers per
silicon generation* (each with its own service age and die seed) rather
than a single chip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ScenarioError
from ..faults.spec import (
    CpmDropFault,
    CpmNoiseFault,
    CpmStuckFault,
    FaultSpec,
    JobKillFault,
    LoadlineExcursionFault,
    ServerCrashFault,
    StaleTelemetryFault,
    VrmDroopFault,
)
from ..fleet.scheduler import POLICIES
from ..fleet.traffic import TrafficConfig
from ..pdn.backends import get_backend

_SOCKET_KEYS = ("duration_seconds", "socket")

#: Fault kind → the :mod:`repro.faults.spec` class a window of that kind
#: builds, and the window keys beyond ``start_seconds`` and the target
#: (``group``/``server``/``all_servers``) the kind takes.
WINDOW_KINDS = {
    cls.kind: (cls, keys)
    for cls, keys in (
        (ServerCrashFault, ("repair_seconds",)),
        (JobKillFault, ("job_id",)),
        (CpmStuckFault, _SOCKET_KEYS + ("code",)),
        (CpmNoiseFault, _SOCKET_KEYS + ("amplitude_bits",)),
        (CpmDropFault, _SOCKET_KEYS),
        (StaleTelemetryFault, _SOCKET_KEYS),
        (VrmDroopFault, _SOCKET_KEYS + ("depth_volts",)),
        (LoadlineExcursionFault, _SOCKET_KEYS + ("factor",)),
    )
}

#: Every kind-specific window key.
_KIND_KEYS = tuple(
    dict.fromkeys(key for _, keys in WINDOW_KINDS.values() for key in keys)
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _finite(value: float, name: str) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value),
        f"{name} must be a finite number, got {value!r}",
    )


@dataclass(frozen=True)
class ServerGroupSpec:
    """One generation of servers: a named slice of the fleet.

    Groups model heterogeneous procurement: each carries its own service
    age (aging consumes static guardband via
    :func:`repro.chip.aging.aged_server_config`) and its own die-seed
    stream (process variation differs per batch of silicon).  A group
    lowers onto one or more independent scheduling *cells*.
    """

    #: Group name — targets faults, labels rollups, salts the die seed.
    name: str = "fleet"

    #: Servers in this group.
    servers: int = 4

    #: Years in service; > 0 shrinks the group's remaining guardband.
    age_years: float = 0.0

    #: Cell width in servers (``None``: the whole group is one cell).
    #: Job share is proportional to a group's *cell count*, so splitting
    #: a large group keeps its load share in line with its size.
    cell_servers: Optional[int] = None

    #: Per-group power-cap loop gain (``None``: the policy's
    #: ``power_cap_gain``).  Models the group's plant response to a cap
    #: step; service age further attenuates it at lowering time (see
    #: :func:`repro.scenarios.runner.lower_scenario`).
    cap_gain: Optional[float] = None

    def __post_init__(self) -> None:
        _require(
            bool(self.name) and isinstance(self.name, str),
            "group name must be a non-empty string",
        )
        _require(
            isinstance(self.servers, int) and self.servers >= 1,
            f"group {self.name!r}: servers must be an integer >= 1",
        )
        _finite(self.age_years, f"group {self.name!r} age_years")
        _require(self.age_years >= 0,
                 f"group {self.name!r}: age_years must be >= 0")
        if self.cell_servers is not None:
            _require(
                isinstance(self.cell_servers, int) and self.cell_servers >= 1,
                f"group {self.name!r}: cell_servers must be an integer >= 1",
            )
        if self.cap_gain is not None:
            _finite(self.cap_gain, f"group {self.name!r} cap_gain")
            _require(
                0 < self.cap_gain <= 2,
                f"group {self.name!r}: cap_gain must be in (0, 2]",
            )


@dataclass(frozen=True)
class TopologySpec:
    """The fleet's composition: ordered server groups."""

    groups: Tuple[ServerGroupSpec, ...] = (ServerGroupSpec(),)

    #: End-of-life Vmin shift the static design provisioned (V) and the
    #: lifetime it assumed — the aging model shared by every group.
    aging_end_of_life_shift: float = 0.025
    aging_lifetime_years: float = 10.0
    aging_exponent: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        _require(bool(self.groups),
                 "topology needs at least one server group")
        names = [group.name for group in self.groups]
        _require(
            len(set(names)) == len(names),
            f"group names must be unique, got {names}",
        )
        for name in ("aging_end_of_life_shift", "aging_lifetime_years",
                     "aging_exponent"):
            _finite(getattr(self, name), f"topology.{name}")
        _require(self.aging_end_of_life_shift >= 0,
                 "topology.aging_end_of_life_shift must be >= 0")
        _require(self.aging_lifetime_years > 0,
                 "topology.aging_lifetime_years must be positive")
        _require(0 < self.aging_exponent <= 1,
                 "topology.aging_exponent must be in (0, 1]")

    @property
    def n_servers(self) -> int:
        """Total fleet size."""
        return sum(group.servers for group in self.groups)

    def group(self, name: str) -> ServerGroupSpec:
        """The group called ``name``."""
        for group in self.groups:
            if group.name == name:
                return group
        raise ScenarioError(
            f"no server group named {name!r} "
            f"(groups: {', '.join(g.name for g in self.groups)})"
        )


@dataclass(frozen=True)
class PolicySpec:
    """Scheduling-and-guardbanding regime plus fleet-level knobs."""

    #: Policy name from :data:`repro.fleet.scheduler.POLICIES`.
    policy: str = "ags"

    #: Frequency SLA for latency-critical jobs (fraction of nominal).
    qos_frequency_fraction: float = 1.08

    #: How long an emptied server idles before powering off (s).
    power_off_hysteresis_seconds: float = 300.0

    #: Borrowing/packing regime switch point (fraction of threads).
    utilization_threshold: float = 0.5

    #: Per-server power cap (W), *enforced*: the engine walks each
    #: server's epoch down the DVFS table until the settled adaptive
    #: power fits under the cap (best-effort at the table floor).
    #: Epochs that still exceed the cap are counted in the scenario
    #: summary (``cap_exceeded_epochs``).
    server_power_cap_w: Optional[float] = None

    #: Fleet-wide power budget (W) tracked by the integral power-cap
    #: coordinator (:mod:`repro.fleet.powercap`); decomposed across
    #: cells proportionally to their size.  ``None`` disables the
    #: coordinator entirely (zero perturbation).
    fleet_power_budget_w: Optional[float] = None

    #: Seconds between coordinator ticks.
    power_cap_interval_seconds: float = 60.0

    #: Coordinator integral gain (watts of correction per watt of
    #: budget error per tick).
    power_cap_gain: float = 0.5

    #: PDN backend name from :func:`repro.pdn.backend_names` — selects
    #: the power-delivery model every server in the fleet is built with.
    pdn_backend: str = "power7"

    def __post_init__(self) -> None:
        _require(
            self.policy in POLICIES,
            f"unknown policy {self.policy!r} "
            f"(known: {', '.join(sorted(POLICIES))})",
        )
        for name in ("qos_frequency_fraction",
                     "power_off_hysteresis_seconds",
                     "utilization_threshold",
                     "power_cap_interval_seconds",
                     "power_cap_gain"):
            _finite(getattr(self, name), f"policy.{name}")
        _require(self.qos_frequency_fraction > 0,
                 "policy.qos_frequency_fraction must be positive")
        _require(self.power_off_hysteresis_seconds >= 0,
                 "policy.power_off_hysteresis_seconds must be >= 0")
        _require(0 < self.utilization_threshold <= 1,
                 "policy.utilization_threshold must be in (0, 1]")
        if self.server_power_cap_w is not None:
            _finite(self.server_power_cap_w, "policy.server_power_cap_w")
            _require(self.server_power_cap_w > 0,
                     "policy.server_power_cap_w must be positive")
        if self.fleet_power_budget_w is not None:
            _finite(self.fleet_power_budget_w,
                    "policy.fleet_power_budget_w")
            _require(self.fleet_power_budget_w > 0,
                     "policy.fleet_power_budget_w must be positive")
        _require(self.power_cap_interval_seconds > 0,
                 "policy.power_cap_interval_seconds must be positive")
        _require(0 < self.power_cap_gain <= 2,
                 "policy.power_cap_gain must be in (0, 2]")
        _require(
            bool(self.pdn_backend) and isinstance(self.pdn_backend, str),
            "policy.pdn_backend must be a non-empty string",
        )
        # Resolve eagerly so an unknown backend fails at model build
        # time with the registry's name list, not mid-run.
        try:
            get_backend(self.pdn_backend)
        except Exception as exc:
            raise ScenarioError(str(exc)) from exc


@dataclass(frozen=True)
class FaultWindowSpec:
    """One declarative fault: a kind, a window, and a target.

    Targets are *group-relative*: ``group`` names a topology group and
    ``server`` indexes into it (``all_servers`` fans the fault out over
    the whole group — how a regional failover is written).  The kind's
    :mod:`repro.faults.spec` class (:data:`WINDOW_KINDS`) owns every
    value check: a window is valid when :meth:`fault` can build it.
    """

    kind: str = "server_crash"
    start_seconds: float = 0.0

    #: Kind-specific keys; each kind takes only its :data:`WINDOW_KINDS`
    #: keys, and ``None`` leaves the fault class's default.
    duration_seconds: Optional[float] = None

    #: Topology group the fault targets (default: the first group).
    group: Optional[str] = None

    #: Group-relative server index; ``None`` with ``all_servers`` False
    #: targets the group's server 0.
    server: Optional[int] = None

    #: Fan the fault out over every server of the group.
    all_servers: bool = False

    socket: Optional[int] = None
    repair_seconds: Optional[float] = None
    job_id: Optional[int] = None
    code: Optional[int] = None
    amplitude_bits: Optional[int] = None
    depth_volts: Optional[float] = None
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        _require(
            self.kind in WINDOW_KINDS,
            f"unknown fault kind {self.kind!r} "
            f"(known: {', '.join(WINDOW_KINDS)})",
        )
        _, keys = WINDOW_KINDS[self.kind]
        foreign = [
            key for key in _KIND_KEYS
            if getattr(self, key) is not None and key not in keys
        ]
        _require(
            not foreign,
            f"fault {self.kind} does not take {', '.join(foreign)}",
        )
        _require(
            self.server is None or not self.all_servers,
            f"fault {self.kind}: server and all_servers are exclusive",
        )
        if self.kind == "job_kill":
            _require(self.job_id is not None, "fault job_kill needs a job_id")
            _require(
                self.group is None and self.server is None
                and not self.all_servers,
                "fault job_kill targets a job, not a group or server",
            )
            self.fault(None)
        else:
            self.fault(self.server or 0)

    def fault(self, server: Optional[int]) -> FaultSpec:
        """The concrete fault this window puts on group-local ``server``
        (``None`` for a job kill, which targets no server)."""
        cls, keys = WINDOW_KINDS[self.kind]
        params = {
            "socket_id" if key == "socket" else key: getattr(self, key)
            for key in keys
            if getattr(self, key) is not None
        }
        if server is not None:
            params["server_id"] = server
        return cls(start_seconds=self.start_seconds, **params)


@dataclass(frozen=True)
class FaultPlanSpec:
    """The scenario's declarative fault plan."""

    windows: Tuple[FaultWindowSpec, ...] = ()

    #: Seed of the injector's jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        _require(isinstance(self.seed, int), "faults.seed must be an integer")

    @property
    def is_empty(self) -> bool:
        return not self.windows


@dataclass(frozen=True)
class GoldenSpec:
    """Summary assertions a scenario is checked against.

    Exact fields pin values that are deterministic by construction (the
    event-log SHA-256, job counts); ``*_min``/``*_max`` fields bracket
    continuous metrics so goldens survive harmless float refactors while
    still catching regressions.  ``None`` means "not asserted".
    """

    event_log_hash: Optional[str] = None
    n_arrivals: Optional[int] = None
    n_completions: Optional[int] = None
    qos_violations_max: Optional[int] = None
    n_server_crashes: Optional[int] = None
    n_job_kills: Optional[int] = None
    n_requeues_min: Optional[int] = None
    saving_fraction_min: Optional[float] = None
    saving_fraction_max: Optional[float] = None
    total_fallback_seconds_min: Optional[float] = None
    total_fallback_seconds_max: Optional[float] = None
    adaptive_energy_kwh_min: Optional[float] = None
    adaptive_energy_kwh_max: Optional[float] = None
    cap_exceeded_epochs_max: Optional[int] = None

    #: Max relative error between the steady-state measured fleet power
    #: and the configured ``policy.fleet_power_budget_w``.
    cap_tracking_error_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.event_log_hash is not None:
            _require(
                isinstance(self.event_log_hash, str)
                and len(self.event_log_hash) == 64
                and all(c in "0123456789abcdef"
                        for c in self.event_log_hash),
                "golden.event_log_hash must be a lowercase hex SHA-256",
            )
        for name in ("n_arrivals", "n_completions", "qos_violations_max",
                     "n_server_crashes", "n_job_kills", "n_requeues_min",
                     "cap_exceeded_epochs_max"):
            value = getattr(self, name)
            if value is not None:
                _require(
                    isinstance(value, int) and value >= 0,
                    f"golden.{name} must be an integer >= 0",
                )
        for name in ("saving_fraction_min", "saving_fraction_max",
                     "total_fallback_seconds_min",
                     "total_fallback_seconds_max",
                     "adaptive_energy_kwh_min", "adaptive_energy_kwh_max",
                     "cap_tracking_error_max"):
            value = getattr(self, name)
            if value is not None:
                _finite(value, f"golden.{name}")
        for low, high in (
            ("saving_fraction_min", "saving_fraction_max"),
            ("total_fallback_seconds_min", "total_fallback_seconds_max"),
            ("adaptive_energy_kwh_min", "adaptive_energy_kwh_max"),
        ):
            lo, hi = getattr(self, low), getattr(self, high)
            if lo is not None and hi is not None:
                _require(lo <= hi, f"golden.{low} exceeds golden.{high}")

    @property
    def is_empty(self) -> bool:
        """Whether the golden block asserts nothing at all."""
        return all(
            getattr(self, f.name) is None
            for f in self.__dataclass_fields__.values()  # type: ignore[attr-defined]
        )


@dataclass(frozen=True)
class Scenario:
    """One fully specified, reproducible fleet study."""

    #: Scenario name (catalog identity; bare-key safe).
    name: str = "scenario"

    #: One-line human description (shown by ``repro scenario list``).
    description: str = ""

    #: Master seed: traffic stream + per-group die seed derivation.
    seed: int = 7

    #: Free-form tags; ``"slow"`` marks scenarios the fast loops skip.
    tags: Tuple[str, ...] = ()

    #: Arrival shape and workload mix (the ``[traffic]`` and ``[mix]``
    #: tables), shared by every cell.
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    topology: TopologySpec = field(default_factory=TopologySpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    faults: FaultPlanSpec = field(default_factory=FaultPlanSpec)
    golden: GoldenSpec = field(default_factory=GoldenSpec)

    def __post_init__(self) -> None:
        _require(
            bool(self.name) and isinstance(self.name, str),
            "scenario name must be a non-empty string",
        )
        _require(
            all(c.isalnum() or c in "_-" for c in self.name),
            f"scenario name {self.name!r} must use only letters, digits, "
            "'_' and '-'",
        )
        _require(isinstance(self.seed, int), "scenario seed must be an integer")
        object.__setattr__(self, "tags", tuple(self.tags))
        for tag in self.tags:
            _require(
                isinstance(tag, str) and bool(tag),
                "scenario tags must be non-empty strings",
            )
        self._validate_cross_fields()

    # -- cross-spec constraints -----------------------------------------
    def _validate_cross_fields(self) -> None:
        horizon = self.traffic.duration_seconds
        for window in self.faults.windows:
            _require(
                window.start_seconds < horizon,
                f"fault {window.kind} at t={window.start_seconds:g}s opens "
                f"at or beyond the {horizon:g}s scenario horizon",
            )
            if window.kind == "job_kill":
                continue
            group = (
                self.topology.group(window.group)
                if window.group is not None
                else self.topology.groups[0]
            )
            if window.server is not None:
                _require(
                    window.server < group.servers,
                    f"fault {window.kind} targets server {window.server} of "
                    f"group {group.name!r}, which has only "
                    f"{group.servers} server(s)",
                )

    @property
    def is_slow(self) -> bool:
        """Whether the catalog marks this scenario as slow."""
        return "slow" in self.tags
