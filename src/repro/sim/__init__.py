"""Simulation layer: sockets, the two-socket server, engine and results.

``socket``  – one chip + its delivery path; solves the electrical fixed point.
``server``  – the Power 720-class box: two sockets sharing one VRM chip.
``engine``  – 32 ms tick-level transient driver (firmware dynamics).
``results`` – result containers with derived metrics.
``run``     – the server factory (``build_server``).
``cache``   – keyed operating-point cache (memory LRU + JSON disk layer).
``batch``   – parallel sweep runner executing grids of independent tasks.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": (
        "SweepReport",
        "SweepRunner",
        "SweepTask",
        "core_scaling_tasks",
        "default_runner",
        "derive_seed",
        "set_default_runner",
        "settle_task",
    ),
    ".cache": ("CacheStats", "OperatingPointCache", "fingerprint"),
    ".engine": ("TickResult", "TransientEngine"),
    ".results": ("RunResult", "SteadyState", "active_mean_frequency"),
    ".run": ("build_server",),
    ".server": ("Power720Server", "ServerOperatingPoint"),
    ".socket": ("ProcessorSocket", "SocketSolution"),
})
