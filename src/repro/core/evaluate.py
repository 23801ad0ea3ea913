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

``measure(..., schedule=placement)`` settles a decision, colocations
included, as a static-vs-adaptive pair through the one measurement path
(:func:`repro.sim.batch.settle_task`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..workloads.scaling import RuntimeModel
from .placement import Placement

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.server import Power720Server


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
