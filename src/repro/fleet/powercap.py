"""The fleet power-cap coordinator: one budget, many servers.

The paper stops at per-server adaptive guardbanding; this module takes
the next step the ROADMAP names (item 3): a rack/region power budget
distributed across servers and enforced through the existing DVFS-walk
actuator of :mod:`repro.guardband.capping`.

Control law
-----------
Chen/Wardi-style integral regulation (PAPERS.md).  The coordinator
keeps one internal state, the *fleet cap* ``C`` — the total wattage it
is currently willing to hand out.  Each tick it measures the fleet's
actual rail power ``P`` and integrates the budget error::

    C  <-  clamp(C + gain * (budget - P))

When demand exceeds the budget, per-server caps bind, ``P`` settles
just under the caps, and the integral action walks ``C`` up until the
*measured* power — not the handed-out cap — tracks the budget.  When
demand is below the budget the error is positive every tick and ``C``
winds up to its ceiling, caps stop binding, and the fleet runs exactly
as if uncapped (the anti-windup ceiling bounds how long the controller
takes to re-engage when demand returns).

Distribution
------------
``C`` is split across servers proportionally to their measured demand
(a server drawing twice the power gets twice the cap), which is the
water-filling shape of Chen/Wardi's multi-server extension.  Servers
currently drawing nothing (powered off, idle, crashed) are assigned the
uniform share ``C / n`` so a mid-interval power-on starts life capped
rather than free-riding until the next tick.  Every cap is quantized to
``quantum_w`` and floored at ``floor_w``: quantization bounds the
number of distinct settle points the cap walk can request (keeping the
operating-point cache effective), and the floor keeps a starved server
from being handed a cap below any feasible operating point.

Determinism
-----------
The coordinator is a pure function of its inputs: integer-tick
schedule, float arithmetic in fixed server order, banker's-rounding
quantization.  It runs *inside* each cell's event loop — coordinator
decisions are ordinary events in the cell's log, so the sharded
executor's ``(time_ns, cell_id, seq)`` merge keeps the fleet-wide event
log (and its SHA-256) invariant across shard and worker counts.  For a
multi-cell fleet :func:`~repro.fleet.shard.build_cells` decomposes the
budget across cells proportionally to their size, and again over the
live servers at every crash and repair; each cell's coordinator then
tracks its share independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import SchedulingError


@dataclass(frozen=True)
class CapUpdate:
    """One tick's redistribution decision."""

    #: 1-based tick index.
    tick: int

    #: Fleet power measured at the tick (W).
    measured_w: float

    #: The controller's integral state after this tick (W).
    fleet_cap_w: float

    #: Per-server caps (W), indexed by server id.
    caps: Tuple[float, ...]

    @property
    def total_cap_w(self) -> float:
        """Sum of the handed-out caps (W)."""
        return sum(self.caps)


class PowerCapCoordinator:
    """Integral budget-tracking controller over one fleet (or cell)."""

    def __init__(
        self,
        budget_w: float,
        n_servers: int,
        gain: float = 0.5,
        quantum_w: float = 1.0,
        floor_w: float = 50.0,
        ceiling_factor: float = 4.0,
    ) -> None:
        """
        Parameters
        ----------
        budget_w:
            The fleet power target (W) the measured total should track.
        gain:
            Integral gain — watts of fleet-cap correction per watt of
            budget error per tick.  1.0 is deadbeat for a plant that
            follows its cap exactly; the DVFS table's discreteness
            makes a softer gain (the 0.5 default) settle with less
            limit-cycling.
        quantum_w:
            Per-server caps are rounded to this granularity (W).
        floor_w:
            No server is handed a cap below this (W).
        ceiling_factor:
            Anti-windup: the fleet cap never exceeds
            ``ceiling_factor * budget_w``.
        """
        if budget_w <= 0:
            raise SchedulingError(f"budget_w must be positive, got {budget_w}")
        if n_servers < 1:
            raise SchedulingError(f"n_servers must be >= 1, got {n_servers}")
        if not 0 < gain <= 2:
            raise SchedulingError(f"gain must be in (0, 2], got {gain}")
        if quantum_w <= 0:
            raise SchedulingError("quantum_w must be positive")
        if floor_w < quantum_w:
            raise SchedulingError("floor_w must be >= quantum_w")
        if ceiling_factor < 1:
            raise SchedulingError("ceiling_factor must be >= 1")
        self.budget_w = budget_w
        self.n_servers = n_servers
        self.gain = gain
        self.quantum_w = quantum_w
        self.floor_w = floor_w
        self.ceiling_factor = ceiling_factor
        self.ceiling_w = ceiling_factor * budget_w
        #: Integral state: total watts currently handed out.  Starts at
        #: the budget itself (zero prior error).
        self.fleet_cap_w = budget_w
        self._ticks = 0
        #: Live mask of the previous tick — a membership change (crash,
        #: repair) resets the integral state (anti-windup: error history
        #: accumulated against the old server set is meaningless).
        self._live: Tuple[bool, ...] = (True,) * n_servers

    def _quantize(self, cap_w: float) -> float:
        steps = round(cap_w / self.quantum_w)
        return max(self.floor_w, steps * self.quantum_w)

    def set_budget(self, budget_w: float) -> None:
        """Retarget the controller (fleet-budget re-decomposition).

        Resets the integral state to the new budget — the accumulated
        error history tracked the *old* target, and carrying it over
        would transiently hand out watts the new budget never allowed.
        """
        if budget_w <= 0:
            raise SchedulingError(f"budget_w must be positive, got {budget_w}")
        self.budget_w = budget_w
        self.ceiling_w = self.ceiling_factor * budget_w
        self.fleet_cap_w = budget_w

    def tick(
        self,
        measured_w: Sequence[float],
        live: Optional[Sequence[bool]] = None,
    ) -> CapUpdate:
        """Integrate the budget error and redistribute the fleet cap.

        ``measured_w`` is the current rail power of every server in id
        order (0.0 for powered-off/crashed servers).  ``live`` marks
        which servers are actually in service (``None`` = all): dead
        servers are handed a 0 W cap instead of the uniform idle share,
        and the clamp floor and uniform share scale to the live
        population.  An all-live mask is byte-identical to
        passing no mask at all, so fault-free runs are unchanged.
        """
        if len(measured_w) != self.n_servers:
            raise SchedulingError(
                f"expected {self.n_servers} measurements, "
                f"got {len(measured_w)}"
            )
        if live is None:
            live_mask: Tuple[bool, ...] = (True,) * self.n_servers
        else:
            if len(live) != self.n_servers:
                raise SchedulingError(
                    f"expected {self.n_servers} live flags, got {len(live)}"
                )
            live_mask = tuple(bool(flag) for flag in live)
        if live_mask != self._live:
            # Membership changed since the last tick: the integral state
            # was accumulated against a different plant.  Restart from
            # zero prior error (anti-windup reset).
            self._live = live_mask
            self.fleet_cap_w = self.budget_w
        n_live = sum(live_mask)
        self._ticks += 1
        total = float(
            sum(w for w, alive in zip(measured_w, live_mask) if alive)
        )
        if n_live == 0:
            # Everything is dead: nothing to hand out, nothing to learn.
            return CapUpdate(
                tick=self._ticks,
                measured_w=total,
                fleet_cap_w=self.fleet_cap_w,
                caps=(0.0,) * self.n_servers,
            )
        error = self.budget_w - total
        floor_total = self.floor_w * n_live
        self.fleet_cap_w = min(
            self.ceiling_w,
            max(
                floor_total,
                self.fleet_cap_w + self.gain * error,
            ),
        )
        drawing = [
            w for w, alive in zip(measured_w, live_mask) if alive and w > 0.0
        ]
        caps = []
        if drawing:
            weight_total = sum(drawing)
            for watts, alive in zip(measured_w, live_mask):
                if not alive:
                    caps.append(0.0)
                    continue
                if watts > 0.0:
                    share = self.fleet_cap_w * watts / weight_total
                else:
                    share = self.fleet_cap_w / n_live
                caps.append(self._quantize(share))
        else:
            uniform = self.fleet_cap_w / n_live
            caps = [
                self._quantize(uniform) if alive else 0.0
                for alive in live_mask
            ]
        return CapUpdate(
            tick=self._ticks,
            measured_w=total,
            fleet_cap_w=self.fleet_cap_w,
            caps=tuple(caps),
        )


def decompose_budget(
    budget_w: Optional[float], sizes: Sequence[int]
) -> Tuple[Optional[float], ...]:
    """Split a fleet budget across cells proportionally to server count.

    The per-cell shares sum to the budget *bit-exactly* (the last cell
    absorbs the float remainder), so a sharded fleet tracks the same
    total a monolithic one would.
    """
    if budget_w is None:
        return tuple(None for _ in sizes)
    total = sum(sizes)
    if total <= 0:
        raise SchedulingError("cannot decompose a budget over zero servers")
    shares = [budget_w * size / total for size in sizes]
    if len(shares) == 1:
        return (budget_w,)
    # The last share absorbs the rounding remainder:
    # ``prefix + (budget - prefix)`` re-sums to the budget bit-exactly
    # whenever the subtraction is exact (Sterbenz).  When it is not —
    # the final addition can tie-to-even straight past the budget — a
    # one-ulp nudge to the preceding share shifts the tie point and we
    # retry; a handful of nudges always suffices and perturbs that
    # share by well under a microwatt.
    for _ in range(64):
        prefix = 0.0
        for share in shares[:-1]:
            prefix += share
        shares[-1] = budget_w - prefix
        if sum(shares) == budget_w:
            return tuple(shares)
        shares[-2] = math.nextafter(shares[-2], math.inf)
    raise SchedulingError(  # pragma: no cover - 300k-split fuzz never hit
        f"could not decompose {budget_w} W exactly over cells {tuple(sizes)}"
    )
