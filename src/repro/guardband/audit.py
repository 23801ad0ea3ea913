"""Reliability audit: prove a settled operating point never violates timing.

Adaptive guardbanding trades margin for efficiency; the audit answers the
question a platform architect must ask before shipping it: *under the
worst conditions this state can produce — deepest aligned droop, every
CPM's process variation — does every core still meet timing?*

:func:`audit_operating_point` checks three invariants for each core:

1. **typical margin** — delivered voltage at or above the timing wall plus
   the calibrated margin (the control loops' design point);
2. **droop survival** — during the deepest worst-case droop the voltage
   stays at or above the wall (the DPLL may eat into the calibrated
   margin while slewing, but never past the wall);
3. **sensor sanity** — the worst CPM code is above zero, i.e. the sensors
   can still report margin loss before a violation (a saturated-low CPM is
   blind).

The audit is used by tests as an oracle and exposed publicly so users
poking at configurations immediately learn when a change breaks safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from ..config import ServerConfig
from .calibration import calibrated_margin

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.socket import ProcessorSocket, SocketSolution


@dataclass(frozen=True)
class CoreAuditFinding:
    """One core's audit outcome."""

    core_id: int

    #: Delivered voltage minus (wall + calibrated margin), volts.
    typical_slack: float

    #: Delivered voltage under the deepest droop minus the wall, volts.
    droop_slack: float

    #: Worst CPM code at the typical operating point.
    worst_cpm_code: int

    @property
    def passed(self) -> bool:
        """Whether this core satisfies all three invariants."""
        return (
            self.typical_slack >= -1e-9
            and self.droop_slack >= -1e-9
            and self.worst_cpm_code > 0
        )


@dataclass(frozen=True)
class AuditReport:
    """Whole-socket audit outcome."""

    findings: tuple

    @property
    def passed(self) -> bool:
        """Whether every core passed."""
        return all(f.passed for f in self.findings)

    @property
    def worst_droop_slack(self) -> float:
        """Smallest under-droop slack across cores (V)."""
        return min(f.droop_slack for f in self.findings)

    def failures(self) -> List[CoreAuditFinding]:
        """The cores that failed, if any."""
        return [f for f in self.findings if not f.passed]


def audit_operating_point(
    socket: "ProcessorSocket",
    solution: "SocketSolution",
    config: ServerConfig,
    frequency_is_servoed: bool = False,
) -> AuditReport:
    """Audit one settled state for timing safety.

    Parameters
    ----------
    frequency_is_servoed:
        In the overclocking mode the DPLL rides droops down, so invariant 2
        is checked against the *slewed* frequency floor rather than the
        settled clock; in fixed-frequency modes the clock cannot move and
        the full droop must fit inside the voltage headroom.
    """
    chip = socket.chip
    margin = calibrated_margin(config.chip, config.guardband)
    droop = socket.path.noise.worst_droop(chip.n_active_cores())
    findings = []
    for core_id, (voltage, frequency) in enumerate(
        zip(solution.core_voltages, solution.frequencies)
    ):
        wall = chip.config.vmin(frequency)
        typical_slack = voltage - (wall + margin)
        if frequency_is_servoed:
            # The DPLL slews within nanoseconds; during the dip the clock
            # follows the voltage, so the core survives any droop that
            # leaves it above the wall at the *minimum DVFS* clock.
            floor_wall = chip.config.vmin(chip.config.f_min)
            droop_slack = (voltage - droop) - floor_wall
        else:
            droop_slack = (voltage - droop) - wall
        worst_code = min(
            chip.cpm_bank.read_core(
                core_id, chip.timing.margin(voltage, frequency), frequency
            )
        )
        findings.append(
            CoreAuditFinding(
                core_id=core_id,
                typical_slack=typical_slack,
                droop_slack=droop_slack,
                worst_cpm_code=worst_code,
            )
        )
    return AuditReport(findings=tuple(findings))
