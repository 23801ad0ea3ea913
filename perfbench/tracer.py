"""Out-of-program layer tracing: wrap each layer's public functions.

The tracer replaces every target function with a timing wrapper, in the
defining module or class and at every ``repro`` import site that holds
the same object, and puts the originals back on :meth:`Tracer.uninstall`.
The program itself is untouched, so an untraced run executes exactly the
shipped code.

Spans nest through an explicit stack: a span's *self* time is its
duration minus the time of the wrapped calls it made, so the self times
of all spans add up to the time spent inside root spans.  Durations are
CPU seconds of the process (``time.process_time``), the clock the
benchmark times whole runs with.  A few layers
are attributions rather than spans: a settle-cache lookup or a server
solve made while ``try_place`` is on the stack counts toward ``gate``.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

FLEET_CHURN = "fleet_churn"
FLEET_COLD = "fleet_cold"
FLEET_CAPPED = "fleet_capped"
SWEEP_FIG13 = "sweep_fig13"


@dataclass(frozen=True)
class Target:
    """One wrapped function and the workloads that must exercise it."""

    #: Span name, also the per-layer metric prefix.
    name: str
    #: Module that defines the function (or its class).
    module: str
    #: Owning class name; ``None`` for a module-level function.
    owner: Optional[str]
    attr: str
    #: Workloads whose layer-table row names this function: a traced run
    #: of one of them that records no call means a missed import site.
    required_on: Tuple[str, ...]


#: The layer table's timed calls, in table order.
TARGETS: Tuple[Target, ...] = (
    Target("trace", "repro.fleet.traffic", None, "generate_trace",
           (FLEET_CHURN,)),
    Target("admit", "repro.fleet.scheduler", "OnlineFleetScheduler",
           "try_place", (FLEET_CHURN,)),
    Target("plan", "repro.fleet.scheduler", "OnlineFleetScheduler",
           "build_plan", (FLEET_CHURN,)),
    Target("settle.lookup", "repro.fleet.settle_cache", "FleetSettleCache",
           "get", (FLEET_CHURN, FLEET_CAPPED)),
    Target("settle.store", "repro.fleet.settle_cache", "FleetSettleCache",
           "put", (FLEET_CHURN, FLEET_CAPPED)),
    Target("runner", "repro.sim.batch", "SweepRunner", "run",
           (FLEET_COLD, SWEEP_FIG13)),
    Target("opcache", "repro.sim.cache", "OperatingPointCache", "get",
           (SWEEP_FIG13,)),
    Target("build", "repro.sim.run", None, "build_server", (FLEET_COLD,)),
    Target("solve", "repro.sim.server", "Power720Server", "operate",
           (FLEET_COLD, FLEET_CAPPED, SWEEP_FIG13)),
    Target("guardband", "repro.guardband.controller", "GuardbandController",
           "operate", (FLEET_COLD,)),
    Target("chip_power", "repro.chip.power", "PowerModel", "chip_power",
           (FLEET_COLD,)),
    Target("pdn", "repro.pdn.delivery", "PowerDeliveryPath", "deliver",
           (FLEET_COLD,)),
    Target("powercap", "repro.fleet.powercap", "PowerCapCoordinator", "tick",
           (FLEET_CAPPED,)),
    Target("merge", "repro.fleet.shard", None, "merge_cell_results",
           (FLEET_CHURN,)),
    # Not a row of its own in the layer table: one cell's simulation
    # around the engine run (simulator set-up, rendering the cell's log
    # to canonical lines).  Without it about a tenth of a churn day
    # falls outside every span.
    Target("cell", "repro.fleet.shard", None, "_simulate_cell",
           (FLEET_COLD, FLEET_CHURN, FLEET_CAPPED)),
    Target("scenario.load", "repro.scenarios.codec", None, "load",
           (FLEET_CAPPED,)),
    Target("scenario.lower", "repro.scenarios.runner", None, "lower_scenario",
           (FLEET_CAPPED,)),
    Target("engine", "repro.fleet.engine", "FleetSimulation", "run",
           (FLEET_CHURN,)),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Counters:
    """Outcome counts read off arguments and results at span exit."""

    trace_jobs: int = 0
    admit_queued: int = 0
    lookup_hits: int = 0
    probe_calls: int = 0
    gate_settle_calls: int = 0
    gate_solve_s: float = 0.0
    opcache_hits: int = 0


@dataclass
class _Patch:
    holder: Any
    attr: str
    original: Any
    wrapper: Any


@dataclass
class Tracer:
    """Install timing wrappers, collect span statistics, restore."""

    targets: Tuple[Target, ...] = TARGETS
    stats: Dict[str, SpanStats] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    #: Time spent inside spans entered with an empty stack.
    root_s: float = 0.0
    _patches: List[_Patch] = field(default_factory=list)
    _stack: List[List[float]] = field(default_factory=list)
    _active: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every statistic (wrappers stay installed)."""
        self.stats = {target.name: SpanStats() for target in self.targets}
        self.counters = Counters()
        self.root_s = 0.0
        self._active = {target.name: 0 for target in self.targets}

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        for target in self.targets:
            holder, original = _resolve(target.module, target.owner, target.attr)
            wrapper = self._span(target.name, original, hooks.get(target.name))
            self._patch(holder, target.attr, original, wrapper)
            if target.owner is None:
                for module, attr in _import_sites(original):
                    self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including at sites imported since."""
        wrappers = {id(p.wrapper): p.original for p in self._patches}
        for patch in reversed(self._patches):
            setattr(patch.holder, patch.attr, patch.original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        self._patches = []

    def _patch(self, holder: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append(_Patch(holder, attr, original, wrapper))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(
        self, name: str, fn: Callable, hook: Optional[Callable]
    ) -> Callable:
        stack = self._stack
        tracer = self
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active = tracer._active
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                span = tracer.stats[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[0]
            if hook is not None:
                hook(args, result, elapsed)
            return result

        return wrapper

    def _under_admission(self) -> bool:
        return self._active["admit"] > 0

    def _hooks(self) -> Dict[str, Callable]:
        def trace(args, result, elapsed):
            self.counters.trace_jobs += len(result)

        def admit(args, result, elapsed):
            if result is None:
                self.counters.admit_queued += 1

        def lookup(args, result, elapsed):
            counters = self.counters
            if result is not None:
                counters.lookup_hits += 1
            # Engine settle keys: (config, seed, placement, mode, f_target).
            if args[1][4] is not None:
                counters.probe_calls += 1
            if self._under_admission():
                counters.gate_settle_calls += 1

        def opcache(args, result, elapsed):
            if result is not None:
                self.counters.opcache_hits += 1

        def solve(args, result, elapsed):
            if self._under_admission():
                self.counters.gate_solve_s += elapsed

        return {
            "trace": trace,
            "admit": admit,
            "settle.lookup": lookup,
            "opcache": opcache,
            "solve": solve,
        }

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def missing_calls(
        self, workload: str, earlier: Optional[Dict[str, SpanStats]] = None
    ) -> List[str]:
        """Targets this workload's rows name that recorded no call, here
        or in the ``earlier`` statistics of a phase since reset."""
        earlier = earlier or {}
        return [
            f"{t.module}.{t.owner + '.' if t.owner else ''}{t.attr}"
            for t in self.targets
            if workload in t.required_on
            and self.stats[t.name].calls == 0
            and getattr(earlier.get(t.name), "calls", 0) == 0
        ]

    def self_time_s(self) -> float:
        """Sum of every span's self time (equals the root-span time)."""
        return sum(span.self_s for span in self.stats.values())


def _resolve(module_name: str, owner: Optional[str], attr: str) -> Tuple[Any, Any]:
    module = importlib.import_module(module_name)
    holder = module if owner is None else getattr(module, owner)
    # Read through __dict__ so a class attribute is the plain function.
    return holder, vars(holder)[attr]


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _import_sites(original: Any) -> List[Tuple[Any, str]]:
    """Every loaded ``repro`` module attribute bound to ``original``."""
    sites = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites
