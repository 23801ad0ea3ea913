"""Deterministic fault injection and graceful degradation.

The subsystem has two halves:

* **Injection** — :class:`FaultPlan` composes seeded
  :class:`~repro.faults.spec.FaultSpec` objects;
  :class:`FaultInjector` applies the standalone ones through hooks in
  the CPM reader, the power-delivery path and the calibration
  procedure, while the fleet engine consumes server-scoped specs as
  discrete events (crashes, job kills, per-socket telemetry windows).
  With no injector installed every hook is a single attribute check —
  the no-faults path stays bit-identical (event-log SHA-256 unchanged),
  enforced by test.
* **Degradation** — :class:`~repro.faults.gate.CpmPlausibilityGate`
  lets the guardband controller detect untrustworthy telemetry and fall
  back per-socket to the static guardband with hysteresis; the fleet
  scheduler requeues jobs off failed servers with capped exponential
  backoff; the sweep runner isolates poisoned tasks behind a failure
  manifest.  :func:`run_chaos` quantifies the cost in a
  :class:`~repro.faults.report.DegradationReport`.

A third leg watches the watchers: the invariant watchdog
(:mod:`~repro.faults.watchdog`) adjudicates conservation, cap-sum,
energy-ledger and heap-generation invariants inside every fleet run —
counting violations by default, raising :class:`~repro.errors.WatchdogError`
in strict mode — and :func:`run_campaign` drives the whole scenario
catalog under seeded randomized fault plans with the strict watchdog
armed (``repro chaos campaign``).

See ``docs/RESILIENCE.md`` for the fault taxonomy and the fallback
state machine.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": ("CampaignReport", "CampaignRow", "run_campaign"),
    ".gate": ("CpmPlausibilityGate", "GateVerdict"),
    ".injector": (
        "DROPPED_CODE",
        "NULL_INJECTOR",
        "FaultInjector",
        "fault_injector",
        "injected",
        "install_injector",
    ),
    ".plan": ("FaultPlan", "chaos_plan"),
    ".report": ("DegradationReport", "run_chaos"),
    ".spec": (
        "CPM_CORRUPTION_KINDS",
        "CacheCorruptionFault",
        "CalibrationFault",
        "CpmDropFault",
        "CpmNoiseFault",
        "CpmStuckFault",
        "FaultSpec",
        "JobKillFault",
        "LoadlineExcursionFault",
        "ServerCrashFault",
        "StaleTelemetryFault",
        "VrmDroopFault",
    ),
    ".watchdog": (
        "NULL_WATCHDOG",
        "InvariantWatchdog",
        "install_watchdog",
        "watchdog",
        "watched",
    ),
})
