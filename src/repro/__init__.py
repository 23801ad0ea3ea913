"""repro — a simulated-POWER7+ reproduction of *Adaptive Guardband
Scheduling to Improve System-Level Efficiency of the POWER7+* (MICRO 2015).

The package layers, bottom-up:

* :mod:`repro.pdn` — VRM, loadline, on-chip IR drop, di/dt noise.
* :mod:`repro.chip` — the eight-core die: CPMs, DPLLs, power, thermal.
* :mod:`repro.guardband` — static / undervolting / overclocking firmware.
* :mod:`repro.workloads` — calibrated benchmark catalog and runtime models.
* :mod:`repro.sim` — socket and two-socket-server electrical solving.
* :mod:`repro.core` — the paper's contribution: adaptive guardband
  scheduling (loadline borrowing and adaptive mapping).
* :mod:`repro.telemetry` — AMESTER-style sensor sampling.
* :mod:`repro.analysis` — metric/figure builders for the evaluation.
* :mod:`repro.obs` — zero-perturbation metrics and span tracing.
* :mod:`repro.faults` — deterministic fault injection and chaos reports.
* :mod:`repro.api` — the unified ``measure``/``sweep`` facade.

Quickstart::

    from repro import GuardbandMode, measure

    result = measure("raytrace", n_threads=1, mode=GuardbandMode.UNDERVOLT)
    print(f"power saving: {result.power_saving_fraction:.1%}")
"""

from .lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("measure", "sweep"),
    ".config": (
        "ChipConfig", "DidtConfig", "GuardbandConfig", "PdnConfig", "ServerConfig",
    ),
    ".faults.injector": ("FaultInjector", "injected"),
    ".faults.plan": ("FaultPlan", "chaos_plan"),
    ".faults.report": ("run_chaos",),
    ".guardband.controller": ("GuardbandController", "GuardbandMode"),
    ".sim.results": ("RunResult", "SteadyState"),
    ".sim.run": ("build_server",),
    ".sim.server": ("Power720Server",),
    ".workloads.catalog": (
        "SCALABLE_BENCHMARKS", "all_profiles", "get_profile", "profile_names",
    ),
    ".workloads.profile": ("WorkloadProfile",),
})
__all__.append("__version__")
