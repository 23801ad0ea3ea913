"""Degradation reports: what did the faults cost us?

:func:`run_chaos` drives the same trace twice through the fleet engine —
fault-free baseline, then with the plan injected — sharing one sweep
runner (and thus one operating-point cache) so the pair costs little
more than a single run.  The resulting :class:`DegradationReport`
carries no wall-clock state, which is what makes two chaos runs with the
same seed and plan byte-identical (the determinism acceptance test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fleet.engine import FleetSimulation
from ..fleet.metrics import FleetResult
from ..fleet.scheduler import AGS_POLICY, FleetPolicy
from ..fleet.traffic import generate_trace
from ..sim.batch import SweepRunner
from .plan import FaultPlan


@dataclass(frozen=True)
class DegradationReport:
    """Fault-free vs degraded outcome of one fleet scenario."""

    plan: FaultPlan
    baseline: FleetResult
    degraded: FleetResult

    @property
    def energy_delta_joules(self) -> float:
        """Extra energy the degraded run burned (J; negative = saved)."""
        return (
            self.degraded.adaptive_energy_joules
            - self.baseline.adaptive_energy_joules
        )

    @property
    def energy_delta_fraction(self) -> float:
        """Energy delta relative to the fault-free baseline."""
        if self.baseline.adaptive_energy_joules == 0:
            return 0.0
        return self.energy_delta_joules / self.baseline.adaptive_energy_joules

    @property
    def qos_delta(self) -> int:
        """Additional QoS violations caused by the faults."""
        return self.degraded.qos_violations - self.baseline.qos_violations

    @property
    def fallback_seconds(self) -> float:
        """Total socket-time spent in static-guardband fallback (s)."""
        return self.degraded.total_fallback_seconds

    @property
    def zero_job_loss(self) -> bool:
        """Conservation: the degraded run accounts for every arrival."""
        return (
            self.degraded.conserved
            and self.degraded.n_arrivals == self.baseline.n_arrivals
        )

    def render(self) -> str:
        """Human-readable multi-line report (what ``repro chaos`` prints)."""
        base, deg = self.baseline, self.degraded
        lines = [
            f"chaos: {len(self.plan.specs)} fault spec(s), "
            f"seed {self.plan.seed}",
        ]
        for line in self.plan.describe().splitlines():
            lines.append(f"  {line}")
        lines += [
            (
                f"baseline: {base.adaptive_energy_kwh:.3f} kWh, "
                f"{base.qos_violations} qos violation(s), "
                f"{base.n_completions}/{base.n_arrivals} jobs completed"
            ),
            (
                f"degraded: {deg.adaptive_energy_kwh:.3f} kWh "
                f"({self.energy_delta_fraction:+.1%}), "
                f"{deg.qos_violations} qos violation(s) "
                f"({self.qos_delta:+d}), "
                f"{deg.n_completions}/{deg.n_arrivals} jobs completed"
            ),
            (
                f"degradation: {deg.n_server_crashes} crash(es), "
                f"{deg.n_job_kills} job kill(s), "
                f"{deg.n_requeues} requeue(s), "
                f"{self.fallback_seconds:.0f} s in static fallback"
            ),
            (
                "jobs: "
                + ("conserved" if self.zero_job_loss else "LOST JOBS")
                + f" ({deg.n_arrivals} arrived = {deg.n_completions} "
                f"completed + {deg.n_running} running + "
                f"{deg.n_queued} queued)"
            ),
            f"event log: baseline {base.event_log_hash}",
            f"event log: degraded {deg.event_log_hash}",
        ]
        return "\n".join(lines)


def run_chaos(
    config,
    plan: FaultPlan,
    runner: Optional[SweepRunner] = None,
    policy: Optional[FleetPolicy] = None,
) -> DegradationReport:
    """Run one fleet scenario fault-free and degraded; report the delta.

    ``config`` is a :class:`~repro.fleet.engine.FleetConfig`.  Both runs
    share the trace and the sweep runner, so the baseline's settled
    points replay from cache wherever the degraded run revisits them.
    """
    fleet_policy = policy if policy is not None else AGS_POLICY
    trace = generate_trace(config.traffic, config.seed)
    baseline = FleetSimulation(
        config, fleet_policy, runner=runner, trace=trace
    ).run()
    degraded = FleetSimulation(
        config, fleet_policy, runner=runner, trace=trace, fault_plan=plan
    ).run()
    return DegradationReport(plan=plan, baseline=baseline, degraded=degraded)
