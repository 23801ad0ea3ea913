"""Workload models: benchmark catalog, scaling, synthetic and WebSearch.

The paper's system-level effects depend on workloads only through a small
set of traits — per-thread power, MIPS, memory behaviour, data sharing and
di/dt character.  :class:`~repro.workloads.profile.WorkloadProfile` captures
those traits; :mod:`~repro.workloads.catalog` provides a calibrated profile
for every PARSEC, SPLASH-2 and SPEC CPU2006 benchmark the paper measures.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".catalog": (
        "PARSEC_BENCHMARKS",
        "SCALABLE_BENCHMARKS",
        "SPEC_BENCHMARKS",
        "SPLASH2_BENCHMARKS",
        "all_profiles",
        "get_profile",
        "profile_names",
    ),
    ".phases": ("Phase", "PhasedWorkload", "bursty_envelope"),
    ".profile": ("WorkloadProfile",),
    ".scaling": ("RuntimeModel", "SocketShare"),
    ".synthetic": ("coremark_profile", "throttled_corunner"),
    ".websearch": ("QueryLatencyModel", "WebSearchModel"),
})
