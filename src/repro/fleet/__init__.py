"""Discrete-event fleet simulator: online AGS over a multi-server day.

The package scales the single-server AGS story to a datacenter slice: a
seeded arrival trace (:mod:`~repro.fleet.traffic`) drives a deterministic
event loop (:mod:`~repro.fleet.events`, :mod:`~repro.fleet.engine`) whose
online scheduler (:mod:`~repro.fleet.scheduler`) places jobs, switches
per-server AGS regimes, powers servers on and off, and gates
latency-critical co-location through the colocation advisor.  All energy
and QoS accounting (:mod:`~repro.fleet.metrics`) flows through the shared
operating-point cache, so repeated fleet states settle once per machine.
"""

from .engine import FleetConfig, FleetSimulation
from .events import (
    ArrivalEvent,
    CompletionEvent,
    EventQueue,
    FleetEvent,
    RebalanceEvent,
    ns_to_seconds,
    seconds_to_ns,
)
from .metrics import (
    EnergyAccount,
    EventLog,
    FleetComparison,
    FleetResult,
    JobRecord,
    summarize_by_class,
)
from .powercap import CapUpdate, PowerCapCoordinator, decompose_budget
from .shard import (
    CellLayout,
    CellSpec,
    ShardedOutcome,
    default_shards,
    merge_cell_results,
    run_cell_specs,
    run_comparison,
    run_sharded,
)
from .scheduler import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    POLICIES,
    UNGATED_AGS_POLICY,
    FleetPolicy,
    OnlineFleetScheduler,
    PlacementPlan,
    ServerState,
    socket_min_active_frequency,
)
from .traffic import (
    BATCH,
    LATENCY_CRITICAL,
    JobSpec,
    TrafficConfig,
    constant_trace,
    generate_trace,
)

__all__ = [
    "AGS_POLICY",
    "ArrivalEvent",
    "BATCH",
    "CapUpdate",
    "CellLayout",
    "CellSpec",
    "CompletionEvent",
    "CONSOLIDATION_POLICY",
    "constant_trace",
    "decompose_budget",
    "default_shards",
    "EnergyAccount",
    "EventLog",
    "EventQueue",
    "FleetComparison",
    "FleetConfig",
    "FleetEvent",
    "FleetPolicy",
    "FleetResult",
    "FleetSimulation",
    "generate_trace",
    "JobRecord",
    "JobSpec",
    "LATENCY_CRITICAL",
    "merge_cell_results",
    "ns_to_seconds",
    "OnlineFleetScheduler",
    "PlacementPlan",
    "POLICIES",
    "PowerCapCoordinator",
    "RebalanceEvent",
    "run_cell_specs",
    "run_comparison",
    "run_sharded",
    "seconds_to_ns",
    "ServerState",
    "ShardedOutcome",
    "socket_min_active_frequency",
    "summarize_by_class",
    "TrafficConfig",
    "UNGATED_AGS_POLICY",
]
