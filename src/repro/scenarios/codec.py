"""Scenario (de)serialization: TOML documents in, frozen specs out.

The codec is strict in both directions.  Loading *consumes* every key it
understands and rejects whatever is left over — a typo like
``job_per_hour`` fails with the full key path instead of silently running
the default — and dumping emits keys in one canonical order, so
``dumps(loads(text))`` is a fixed point after a single round trip (the
round-trip stability the tests pin).
"""

from __future__ import annotations

import dataclasses
import math
import tomllib
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ScenarioError
from . import tomlio
from .model import (
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    PolicySpec,
    Scenario,
    ServerGroupSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadMixSpec,
)


class _Table:
    """One TOML table being consumed key by key."""

    def __init__(self, payload: Dict[str, Any], path: str) -> None:
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"[{path}] must be a table, got {type(payload).__name__}"
            )
        self.payload = dict(payload)
        self.path = path

    def _label(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, default: Any = None) -> Any:
        return self.payload.pop(key, default)

    def take_scalar(self, key: str, kinds: tuple, default: Any) -> Any:
        value = self.payload.pop(key, default)
        if value is None:
            return None
        if isinstance(value, bool) and bool not in kinds:
            raise ScenarioError(
                f"{self._label(key)} must not be a boolean"
            )
        if not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            raise ScenarioError(
                f"{self._label(key)} must be {names}, "
                f"got {type(value).__name__}"
            )
        return value

    def take_list(self, key: str, default: tuple) -> Tuple[Any, ...]:
        value = self.payload.pop(key, None)
        if value is None:
            return tuple(default)
        if not isinstance(value, list):
            raise ScenarioError(
                f"{self._label(key)} must be an array, "
                f"got {type(value).__name__}"
            )
        return tuple(value)

    def take_table(self, key: str) -> Optional["_Table"]:
        value = self.payload.pop(key, None)
        if value is None:
            return None
        return _Table(value, self._label(key))

    def take_table_array(self, key: str) -> List["_Table"]:
        value = self.payload.pop(key, None)
        if value is None:
            return []
        if not isinstance(value, list):
            raise ScenarioError(
                f"{self._label(key)} must be an array of tables"
            )
        return [
            _Table(item, f"{self._label(key)}[{i}]")
            for i, item in enumerate(value)
        ]

    def finish(self) -> None:
        """Reject whatever keys were never consumed."""
        if self.payload:
            keys = ", ".join(sorted(self.payload))
            where = f" in [{self.path}]" if self.path else ""
            raise ScenarioError(f"unknown key(s){where}: {keys}")


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _traffic_from(table: Optional[_Table]) -> TrafficSpec:
    if table is None:
        return TrafficSpec()
    spec = TrafficSpec(
        duration_seconds=table.take_scalar(
            "duration_seconds", (int, float), TrafficSpec.duration_seconds
        ),
        jobs_per_hour=table.take_scalar(
            "jobs_per_hour", (int, float), TrafficSpec.jobs_per_hour
        ),
        diurnal_amplitude=table.take_scalar(
            "diurnal_amplitude", (int, float), TrafficSpec.diurnal_amplitude
        ),
        peak_time_seconds=table.take_scalar(
            "peak_time_seconds", (int, float), TrafficSpec.peak_time_seconds
        ),
        lc_fraction=table.take_scalar(
            "lc_fraction", (int, float), TrafficSpec.lc_fraction
        ),
        surges=table.take_list("surges", ()),
    )
    table.finish()
    return spec


def _mix_from(table: Optional[_Table]) -> WorkloadMixSpec:
    if table is None:
        return WorkloadMixSpec()
    defaults = WorkloadMixSpec()
    spec = WorkloadMixSpec(
        lc_profiles=table.take_list("lc_profiles", defaults.lc_profiles),
        batch_profiles=table.take_list(
            "batch_profiles", defaults.batch_profiles
        ),
        lc_threads=table.take_list("lc_threads", defaults.lc_threads),
        batch_threads=table.take_list(
            "batch_threads", defaults.batch_threads
        ),
        lc_service_mean=table.take_scalar(
            "lc_service_mean", (int, float), defaults.lc_service_mean
        ),
        batch_service_mean=table.take_scalar(
            "batch_service_mean", (int, float), defaults.batch_service_mean
        ),
        service_floor=table.take_scalar(
            "service_floor", (int, float), defaults.service_floor
        ),
    )
    table.finish()
    return spec


def _group_from(table: _Table) -> ServerGroupSpec:
    spec = ServerGroupSpec(
        name=table.take_scalar("name", (str,), ServerGroupSpec.name),
        servers=table.take_scalar("servers", (int,), ServerGroupSpec.servers),
        age_years=table.take_scalar(
            "age_years", (int, float), ServerGroupSpec.age_years
        ),
        cell_servers=table.take_scalar("cell_servers", (int,), None),
        cap_gain=table.take_scalar("cap_gain", (int, float), None),
    )
    table.finish()
    return spec


def _topology_from(table: Optional[_Table]) -> TopologySpec:
    if table is None:
        return TopologySpec()
    defaults = TopologySpec()
    groups = [_group_from(g) for g in table.take_table_array("groups")]
    spec = TopologySpec(
        groups=tuple(groups) or defaults.groups,
        aging_end_of_life_shift=table.take_scalar(
            "aging_end_of_life_shift",
            (int, float),
            defaults.aging_end_of_life_shift,
        ),
        aging_lifetime_years=table.take_scalar(
            "aging_lifetime_years", (int, float), defaults.aging_lifetime_years
        ),
        aging_exponent=table.take_scalar(
            "aging_exponent", (int, float), defaults.aging_exponent
        ),
    )
    table.finish()
    return spec


def _policy_from(table: Optional[_Table]) -> PolicySpec:
    if table is None:
        return PolicySpec()
    defaults = PolicySpec()
    spec = PolicySpec(
        policy=table.take_scalar("policy", (str,), defaults.policy),
        qos_frequency_fraction=table.take_scalar(
            "qos_frequency_fraction",
            (int, float),
            defaults.qos_frequency_fraction,
        ),
        power_off_hysteresis_seconds=table.take_scalar(
            "power_off_hysteresis_seconds",
            (int, float),
            defaults.power_off_hysteresis_seconds,
        ),
        utilization_threshold=table.take_scalar(
            "utilization_threshold",
            (int, float),
            defaults.utilization_threshold,
        ),
        server_power_cap_w=table.take_scalar(
            "server_power_cap_w", (int, float), None
        ),
        fleet_power_budget_w=table.take_scalar(
            "fleet_power_budget_w", (int, float), None
        ),
        power_cap_interval_seconds=table.take_scalar(
            "power_cap_interval_seconds",
            (int, float),
            defaults.power_cap_interval_seconds,
        ),
        power_cap_gain=table.take_scalar(
            "power_cap_gain", (int, float), defaults.power_cap_gain
        ),
        pdn_backend=table.take_scalar(
            "pdn_backend", (str,), defaults.pdn_backend
        ),
    )
    table.finish()
    return spec


def _window_from(table: _Table) -> FaultWindowSpec:
    defaults = FaultWindowSpec()
    spec = FaultWindowSpec(
        kind=table.take_scalar("kind", (str,), defaults.kind),
        start_seconds=table.take_scalar(
            "start_seconds", (int, float), defaults.start_seconds
        ),
        duration_seconds=table.take_scalar(
            "duration_seconds", (int, float), None
        ),
        group=table.take_scalar("group", (str,), None),
        server=table.take_scalar("server", (int,), None),
        all_servers=table.take_scalar(
            "all_servers", (bool,), defaults.all_servers
        ),
        socket=table.take_scalar("socket", (int,), defaults.socket),
        repair_seconds=table.take_scalar(
            "repair_seconds", (int, float), None
        ),
        job_id=table.take_scalar("job_id", (int,), None),
        code=table.take_scalar("code", (int,), defaults.code),
        amplitude_bits=table.take_scalar(
            "amplitude_bits", (int,), defaults.amplitude_bits
        ),
        depth_volts=table.take_scalar(
            "depth_volts", (int, float), defaults.depth_volts
        ),
        factor=table.take_scalar("factor", (int, float), defaults.factor),
    )
    table.finish()
    return spec


def _faults_from(table: Optional[_Table]) -> FaultPlanSpec:
    if table is None:
        return FaultPlanSpec()
    windows = [_window_from(w) for w in table.take_table_array("windows")]
    spec = FaultPlanSpec(
        windows=tuple(windows),
        seed=table.take_scalar("seed", (int,), FaultPlanSpec.seed),
    )
    table.finish()
    return spec


def _golden_from(table: Optional[_Table]) -> GoldenSpec:
    if table is None:
        return GoldenSpec()
    kwargs: Dict[str, Any] = {}
    for name, kinds in (
        ("event_log_hash", (str,)),
        ("n_arrivals", (int,)),
        ("n_completions", (int,)),
        ("qos_violations_max", (int,)),
        ("n_server_crashes", (int,)),
        ("n_job_kills", (int,)),
        ("n_requeues_min", (int,)),
        ("saving_fraction_min", (int, float)),
        ("saving_fraction_max", (int, float)),
        ("total_fallback_seconds_min", (int, float)),
        ("total_fallback_seconds_max", (int, float)),
        ("adaptive_energy_kwh_min", (int, float)),
        ("adaptive_energy_kwh_max", (int, float)),
        ("cap_exceeded_epochs_max", (int,)),
        ("cap_tracking_error_max", (int, float)),
    ):
        kwargs[name] = table.take_scalar(name, kinds, None)
    table.finish()
    return GoldenSpec(**kwargs)


def scenario_from_document(document: Dict[str, Any]) -> Scenario:
    """Build a validated :class:`Scenario` from a parsed TOML document."""
    root = _Table(document, "")
    scenario_table = root.take_table("scenario")
    if scenario_table is None:
        raise ScenarioError("scenario file needs a [scenario] table")
    name = scenario_table.take_scalar("name", (str,), Scenario.name)
    description = scenario_table.take_scalar(
        "description", (str,), Scenario.description
    )
    seed = scenario_table.take_scalar("seed", (int,), Scenario.seed)
    tags = scenario_table.take_list("tags", ())
    scenario_table.finish()
    scenario = Scenario(
        name=name,
        description=description,
        seed=seed,
        tags=tags,
        traffic=_traffic_from(root.take_table("traffic")),
        mix=_mix_from(root.take_table("mix")),
        topology=_topology_from(root.take_table("topology")),
        policy=_policy_from(root.take_table("policy")),
        faults=_faults_from(root.take_table("faults")),
        golden=_golden_from(root.take_table("golden")),
    )
    root.finish()
    return scenario


def _finite_float(text: str) -> float:
    """``tomllib`` float hook: scenarios never carry ``nan`` or ``inf``."""
    value = float(text)
    if not math.isfinite(value):
        raise tomllib.TOMLDecodeError(
            f"non-finite number {text!r} is not supported"
        )
    return value


def loads(text: str) -> Scenario:
    """Parse scenario TOML text into a validated :class:`Scenario`."""
    try:
        document = tomllib.loads(text, parse_float=_finite_float)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid scenario TOML: {exc}") from exc
    return scenario_from_document(document)


def load(path: str) -> Scenario:
    """Parse the scenario file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = tomllib.loads(
                handle.read(), parse_float=_finite_float
            )
    except OSError as exc:
        raise ScenarioError(
            f"invalid scenario file: cannot read {path}: {exc}"
        ) from exc
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid scenario file: {path}: {exc}") from exc
    try:
        return scenario_from_document(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------
def _clean(table: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` values (unset optionals are simply absent)."""
    return {k: v for k, v in table.items() if v is not None}


def scenario_to_document(scenario: Scenario) -> Dict[str, Any]:
    """Render a :class:`Scenario` as a canonical nested-dict document."""
    document: Dict[str, Any] = {
        "scenario": _clean(
            {
                "name": scenario.name,
                "description": scenario.description,
                "seed": scenario.seed,
                "tags": list(scenario.tags) if scenario.tags else None,
            }
        ),
        "traffic": _clean(
            {
                "duration_seconds": scenario.traffic.duration_seconds,
                "jobs_per_hour": scenario.traffic.jobs_per_hour,
                "diurnal_amplitude": scenario.traffic.diurnal_amplitude,
                "peak_time_seconds": scenario.traffic.peak_time_seconds,
                "lc_fraction": scenario.traffic.lc_fraction,
                "surges": (
                    [list(s) for s in scenario.traffic.surges]
                    if scenario.traffic.surges
                    else None
                ),
            }
        ),
        "mix": {
            "lc_profiles": list(scenario.mix.lc_profiles),
            "batch_profiles": list(scenario.mix.batch_profiles),
            "lc_threads": list(scenario.mix.lc_threads),
            "batch_threads": list(scenario.mix.batch_threads),
            "lc_service_mean": scenario.mix.lc_service_mean,
            "batch_service_mean": scenario.mix.batch_service_mean,
            "service_floor": scenario.mix.service_floor,
        },
        "topology": {
            "aging_end_of_life_shift": (
                scenario.topology.aging_end_of_life_shift
            ),
            "aging_lifetime_years": scenario.topology.aging_lifetime_years,
            "aging_exponent": scenario.topology.aging_exponent,
            "groups": [
                _clean(
                    {
                        "name": group.name,
                        "servers": group.servers,
                        "age_years": group.age_years,
                        "cell_servers": group.cell_servers,
                        "cap_gain": group.cap_gain,
                    }
                )
                for group in scenario.topology.groups
            ],
        },
        "policy": _clean(
            {
                "policy": scenario.policy.policy,
                "qos_frequency_fraction": (
                    scenario.policy.qos_frequency_fraction
                ),
                "power_off_hysteresis_seconds": (
                    scenario.policy.power_off_hysteresis_seconds
                ),
                "utilization_threshold": (
                    scenario.policy.utilization_threshold
                ),
                "server_power_cap_w": scenario.policy.server_power_cap_w,
                "fleet_power_budget_w": (
                    scenario.policy.fleet_power_budget_w
                ),
                # Coordinator knobs and the PDN backend are emitted only
                # when they differ from the defaults, so documents that
                # never mention them round-trip byte-identically.
                "power_cap_interval_seconds": (
                    scenario.policy.power_cap_interval_seconds
                    if scenario.policy.power_cap_interval_seconds
                    != PolicySpec.power_cap_interval_seconds
                    else None
                ),
                "power_cap_gain": (
                    scenario.policy.power_cap_gain
                    if scenario.policy.power_cap_gain
                    != PolicySpec.power_cap_gain
                    else None
                ),
                "pdn_backend": (
                    scenario.policy.pdn_backend
                    if scenario.policy.pdn_backend
                    != PolicySpec.pdn_backend
                    else None
                ),
            }
        ),
    }
    if not scenario.faults.is_empty:
        document["faults"] = {
            "seed": scenario.faults.seed,
            "windows": [
                _window_to_table(window)
                for window in scenario.faults.windows
            ],
        }
    if not scenario.golden.is_empty:
        document["golden"] = _clean(
            {
                f.name: getattr(scenario.golden, f.name)
                for f in dataclasses.fields(scenario.golden)
            }
        )
    return document


def _window_to_table(window: FaultWindowSpec) -> Dict[str, Any]:
    table: Dict[str, Any] = {
        "kind": window.kind,
        "start_seconds": window.start_seconds,
    }
    if window.duration_seconds is not None:
        table["duration_seconds"] = window.duration_seconds
    if window.group is not None:
        table["group"] = window.group
    if window.server is not None:
        table["server"] = window.server
    if window.all_servers:
        table["all_servers"] = True
    if window.kind == "job_kill":
        table["job_id"] = window.job_id
        return table
    if window.socket != 0:
        table["socket"] = window.socket
    if window.kind == "server_crash" and window.repair_seconds is not None:
        table["repair_seconds"] = window.repair_seconds
    if window.kind == "cpm_stuck" and window.code != 0:
        table["code"] = window.code
    if window.kind == "cpm_noise":
        table["amplitude_bits"] = window.amplitude_bits
    if window.kind == "vrm_droop":
        table["depth_volts"] = window.depth_volts
    if window.kind == "loadline_excursion":
        table["factor"] = window.factor
    return table


def dumps(scenario: Scenario) -> str:
    """Render a :class:`Scenario` as canonical scenario TOML."""
    return tomlio.dumps(scenario_to_document(scenario))


def dump(scenario: Scenario, path: str) -> None:
    """Write a :class:`Scenario` to ``path`` as canonical TOML."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(scenario))
