"""Placement evaluation: settle a scheduling decision on the server.

:func:`apply_with_contention` realizes a
:class:`~repro.core.placement.Placement` with *contention-adjusted* thread
activity — threads stalled on a saturated
memory subsystem switch less logic, so their dynamic power drops with the
same factor that stretches their execution.  This coupling is what makes
the Fig. 14 extremes come out right: spreading a bandwidth-starved workload
across sockets speeds it up *and* raises its chip activity (possibly above
the consolidated power, as the paper observes for radix and fft), while the
shorter runtime still wins on energy.

``measure(..., schedule=placement)`` measures one workload of a decision
as a static-vs-adaptive pair; :func:`measure_mixed` settles a colocated
placement in one mode with a per-workload breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import SchedulingError
from ..guardband import GuardbandMode
from ..sim.results import active_mean_frequency
from ..workloads.profile import WorkloadProfile
from ..workloads.scaling import RuntimeModel
from .placement import Placement

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.server import Power720Server, ServerOperatingPoint


def apply_with_contention(
    server: "Power720Server",
    placement: Placement,
    runtime: RuntimeModel,
) -> None:
    """Realize ``placement`` with contention-adjusted per-thread activity."""
    server.clear()
    tpc = placement.threads_per_core
    for socket_id, socket_groups in enumerate(placement.groups):
        for group in socket_groups:
            share = placement.share_of(group.profile.name)
            activity = runtime.effective_activity(group.profile, share, tpc)
            adjusted = group.profile.with_activity(activity)
            server.place(socket_id, adjusted, group.n_threads, threads_per_core=tpc)
    if placement.keep_on is not None:
        server.gate_unused(list(placement.keep_on))


@dataclass(frozen=True)
class WorkloadOutcome:
    """One workload's share of a mixed-placement measurement."""

    workload: str

    #: Estimated execution time (s) at the settled adaptive frequency.
    execution_time: float

    #: Aggregate effective MIPS the workload retires.
    mips: float


@dataclass(frozen=True)
class MixedMeasurement:
    """A colocated placement settled in one mode, with per-workload views."""

    placement: Placement
    mode: GuardbandMode
    point: "ServerOperatingPoint"
    outcomes: Dict[str, WorkloadOutcome]

    @property
    def chip_power(self) -> float:
        """Total Vdd power (W) of the whole mix."""
        return self.point.chip_power

    def outcome(self, workload: str) -> WorkloadOutcome:
        """One colocated workload's outcome."""
        try:
            return self.outcomes[workload]
        except KeyError:
            raise SchedulingError(
                f"{workload!r} is not in this placement; it holds "
                f"{sorted(self.outcomes)}"
            ) from None


def measure_mixed(
    server: "Power720Server",
    placement: Placement,
    mode: GuardbandMode,
    runtime_model: Optional[RuntimeModel] = None,
    f_target: Optional[float] = None,
) -> MixedMeasurement:
    """Settle a placement that colocates several workloads.

    Unlike ``measure(..., schedule=placement)`` (single workload,
    static-vs-adaptive pair), this measures one mode and reports a per-workload breakdown —
    the view a colocation study needs: everyone shares the same chip power
    and frequency, but each workload's runtime stretches by its own
    contention and sharing factors.
    """
    runtime = runtime_model or RuntimeModel()
    apply_with_contention(server, placement, runtime)
    point = server.operate(mode, f_target)
    frequency = active_mean_frequency(point)
    f_nominal = server.config.chip.f_nominal
    per_socket_freqs = [
        point.socket_point(sid).solution.mean_frequency
        for sid in range(server.n_sockets)
    ]
    outcomes = {}
    for workload in placement.workloads():
        share = placement.share_of(workload)
        profile = _find_profile(placement, workload)
        outcomes[workload] = WorkloadOutcome(
            workload=workload,
            execution_time=runtime.execution_time(
                profile,
                share,
                frequency=frequency,
                reference_frequency=f_nominal,
                threads_per_core=placement.threads_per_core,
            ),
            mips=runtime.effective_mips(
                profile,
                share,
                per_socket_freqs,
                threads_per_core=placement.threads_per_core,
            ),
        )
    return MixedMeasurement(
        placement=placement, mode=mode, point=point, outcomes=outcomes
    )


def _find_profile(placement: Placement, workload: str) -> WorkloadProfile:
    for socket_groups in placement.groups:
        for group in socket_groups:
            if group.profile.name == workload:
                return group.profile
    raise SchedulingError(f"{workload!r} not found in placement")
