"""Declarative scenarios: reproducible fleet studies as config artifacts.

A scenario is one TOML file describing a whole fleet experiment — traffic
shape, workload mix, a topology of (possibly heterogeneous, possibly
aged) server groups, the policy regime, a fault plan, and golden summary
assertions.  The package provides:

* :mod:`~repro.scenarios.model` — the frozen, eagerly validated
  :class:`Scenario` composition, built on the fleet's own types: its
  traffic (``[traffic]`` + ``[mix]``) *is* a
  :class:`~repro.fleet.traffic.TrafficConfig`, and each fault window
  builds its kind's :mod:`repro.faults.spec` class
  (:data:`~repro.scenarios.model.WINDOW_KINDS`);
* :mod:`~repro.scenarios.codec` — one field-driven TOML ↔
  :class:`Scenario` codec over every section, read with the stdlib
  :mod:`tomllib`: unknown keys and mistyped values are rejected with
  their full path, and dumping is round-trip stable;
* :mod:`~repro.scenarios.tomlio` — the TOML writer behind dumping (the
  stdlib has none);
* :mod:`~repro.scenarios.runner` — compilation onto the sharded fleet
  executor (per-group aging and die seeds, declarative faults lowered to
  concrete specs) plus golden adjudication;
* :mod:`~repro.scenarios.catalog` — discovery of the named scenarios
  shipped under ``scenarios/`` at the repo root.

CLI: ``repro scenario run|list|validate|check`` (see docs/SCENARIOS.md).
"""

from .catalog import (
    catalog_paths,
    default_catalog_dir,
    find_scenario,
    load_catalog,
)
from .codec import (
    dump,
    dumps,
    load,
    loads,
    scenario_from_document,
    scenario_to_document,
)
from .model import (
    WINDOW_KINDS,
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    PolicySpec,
    Scenario,
    ServerGroupSpec,
    TopologySpec,
)
from .runner import (
    GoldenVerdict,
    GroupSummary,
    LoweredScenario,
    ScenarioResult,
    check_result,
    check_scenario,
    lower_scenario,
    run_scenario,
)

__all__ = [
    "FaultPlanSpec",
    "FaultWindowSpec",
    "GoldenSpec",
    "GoldenVerdict",
    "GroupSummary",
    "LoweredScenario",
    "PolicySpec",
    "Scenario",
    "ScenarioResult",
    "ServerGroupSpec",
    "TopologySpec",
    "WINDOW_KINDS",
    "catalog_paths",
    "check_result",
    "check_scenario",
    "default_catalog_dir",
    "dump",
    "dumps",
    "find_scenario",
    "load",
    "load_catalog",
    "loads",
    "lower_scenario",
    "run_scenario",
    "scenario_from_document",
    "scenario_to_document",
]
