"""Simulation layer: sockets, the two-socket server, engine and results.

``socket``  – one chip + its delivery path; solves the electrical fixed point.
``server``  – the Power 720-class box: two sockets sharing one VRM chip.
``engine``  – 32 ms tick-level transient driver (firmware dynamics).
``results`` – result containers with derived metrics.
``run``     – the server factory (``build_server``).
``cache``   – keyed operating-point cache (memory LRU + JSON disk layer).
``batch``   – parallel sweep runner executing grids of independent tasks.
"""

from .engine import TickResult, TransientEngine
from .results import RunResult, SteadyState, active_mean_frequency
from .run import build_server
from .server import Power720Server, ServerOperatingPoint
from .socket import ProcessorSocket, SocketSolution
from .cache import CacheStats, OperatingPointCache, fingerprint
from .batch import (
    SweepReport,
    SweepRunner,
    SweepTask,
    core_scaling_tasks,
    default_runner,
    derive_seed,
    set_default_runner,
    settle_task,
)

__all__ = [
    "CacheStats",
    "OperatingPointCache",
    "Power720Server",
    "ProcessorSocket",
    "RunResult",
    "ServerOperatingPoint",
    "SocketSolution",
    "SteadyState",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "TickResult",
    "TransientEngine",
    "active_mean_frequency",
    "build_server",
    "core_scaling_tasks",
    "default_runner",
    "derive_seed",
    "fingerprint",
    "set_default_runner",
    "settle_task",
]
