"""Power capping on top of adaptive guardbanding.

POWER7-class EnergyScale firmware enforces socket power budgets by walking
the DVFS table down until the measured rail power fits the cap.  With
adaptive guardbanding available, the capping loop composes with the
undervolting loop: at each candidate frequency the firmware first harvests
the guardband (deeper undervolt at lower clocks — less current, less
passive drop), *then* checks the cap.  The composition means an
adaptive-guardbanding system holds a given cap at a higher clock than a
static-guardband system — the capping-mode face of the paper's efficiency
argument.

Not part of the paper's evaluation; included as the natural platform
feature its substrate implies (see DESIGN.md §5b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..chip.dvfs import DvfsTable
from ..config import ServerConfig
from ..errors import SchedulingError
from .static import StaticGuardbandPolicy
from .undervolt import UndervoltPolicy

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.results import RunResult
    from ..sim.socket import ProcessorSocket, SocketSolution


def cap_walk_table(config: ServerConfig) -> DvfsTable:
    """The DVFS menu every cap walk steps down: every second DPLL step.

    :class:`PowerCapPolicy`, ``measure``/``sweep(power_cap=)`` and the
    fleet's capped settle all walk this one menu, so they can only ever
    land on the same operating points.
    """
    return DvfsTable(config.chip, config.guardband, step_multiple=2)


def cap_walk_frequencies(config: ServerConfig) -> Tuple[float, ...]:
    """:func:`cap_walk_table`'s frequencies, fastest first."""
    return tuple(p.frequency for p in reversed(cap_walk_table(config).points))


def fastest_fitting(
    menu: Sequence[float],
    power_at: Callable[[int], float],
    cap: float,
    over: Tuple[float, float],
) -> int:
    """Index of the fastest ``menu`` point whose power fits ``cap``.

    ``menu`` lists frequencies fastest first, and ``power_at(i)`` settles
    ``menu[i]`` and returns its power, which must never rise as ``i``
    grows.  ``over`` is the ``(frequency, power)`` of a settle faster
    than ``menu[0]`` that exceeds the cap.  When no point fits, the
    floor (last index) is the best-effort answer — the same index the
    linear walk down the menu selects, in fewer ``power_at`` calls.

    The floor is probed first: when it does not fit, the search ends
    there.  Otherwise the answer lies in the bracket (over, floor], and
    each next probe interpolates the cap linearly in f³ between the
    bracket's ends (dynamic power ∝ f·V², and V follows f along the
    menu), clamped inside the bracket.  A probe bisects instead when the
    bracket's ends draw the same power, or when an interpolated miss
    could leave more bracket than the calls left can bisect, so the
    search makes at most ``2 * len(menu).bit_length() + 1`` calls.
    """
    hi = len(menu) - 1
    hi_power = power_at(hi)
    if hi_power > cap:
        return hi
    lo = -1
    lo_frequency, lo_power = over
    # Calls left after the floor.  Bisecting a bracket of width w takes
    # at most (w - 1).bit_length() probes, and an interpolated miss
    # narrows it by at least one.
    budget = 2 * len(menu).bit_length()
    while hi - lo > 1:
        if lo_power <= hi_power or budget <= (hi - lo - 2).bit_length():
            probe = (lo + hi) // 2
        else:
            hi_cube = menu[hi] ** 3
            target = hi_cube + (cap - hi_power) * (
                lo_frequency**3 - hi_cube
            ) / (lo_power - hi_power)
            probe = next(
                (i for i in range(lo + 1, hi) if menu[i] ** 3 <= target),
                hi - 1,
            )
        budget -= 1
        power = power_at(probe)
        if power <= cap:
            hi, hi_power = probe, power
        else:
            lo, lo_frequency, lo_power = probe, menu[probe], power
    return hi


def settle_under_cap(
    uncapped: "RunResult",
    settle_at: Callable[[float], "RunResult"],
    cap: Optional[float],
    menu: Sequence[float],
) -> Tuple["RunResult", bool]:
    """The fastest ``menu`` ceiling whose settle fits a server power cap.

    Returns ``(result, throttled)``.  ``uncapped`` is the settle without
    a ceiling; it is returned unthrottled when ``cap`` is ``None`` or its
    adaptive server power fits.  Otherwise the candidates are the
    ``menu`` ceilings (fastest first, :func:`cap_walk_frequencies`)
    below its slowest clock — a ceiling at or above it cannot produce a
    slower settle — and :func:`fastest_fitting` searches them, each
    probe a ``settle_at(ceiling)`` call; the result is the probe it
    selects.  The search relies on settled server power never rising as
    the ceiling drops.  When no candidate fits, the result is the floor
    probe (or ``uncapped`` when there is no candidate), still over the
    cap: the fleet runs it best effort, ``measure``/``sweep`` refuse it.
    """
    point = uncapped.adaptive.point
    if cap is None or point.server_power <= cap:
        return uncapped, False
    candidates = [f for f in menu if f < point.min_frequency]
    if not candidates:
        return uncapped, True
    probes: Dict[int, "RunResult"] = {}

    def power_at(index: int) -> float:
        probes[index] = settle_at(candidates[index])
        return probes[index].adaptive.point.server_power

    index = fastest_fitting(
        candidates, power_at, cap, over=(point.min_frequency, point.server_power)
    )
    return probes[index], True


@dataclass(frozen=True)
class CapResult:
    """Outcome of enforcing one power cap."""

    #: The budget that was enforced (W).
    cap: float

    #: Clock frequency the socket settled at (Hz).
    frequency: float

    #: Measured rail power at the settled point (W).
    power: float

    #: Whether adaptive guardbanding was used under the cap.
    adaptive: bool

    #: Settled electrical state.
    solution: "SocketSolution"

    @property
    def headroom(self) -> float:
        """Unused budget (W)."""
        return self.cap - self.power


class PowerCapPolicy:
    """Walk the cap-walk menu down until the rail power fits the cap."""

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._table = cap_walk_table(config)
        self._undervolt = UndervoltPolicy(config)
        self._static = StaticGuardbandPolicy(config)

    @property
    def table(self) -> DvfsTable:
        """The DVFS menu the policy searches."""
        return self._table

    def enforce(
        self,
        socket: "ProcessorSocket",
        cap: float,
        adaptive: bool = True,
    ) -> CapResult:
        """Find the fastest operating point that fits ``cap`` watts.

        Parameters
        ----------
        adaptive:
            With ``True`` each candidate frequency runs in undervolting
            mode (guardband harvested before the cap check); with
            ``False`` each candidate uses the static guardband voltage —
            the conventional capping baseline.

        Raises
        ------
        SchedulingError
            If even the lowest DVFS point exceeds the cap (the workload
            cannot legally run under this budget).
        """
        if cap <= 0:
            raise SchedulingError(f"cap must be positive, got {cap}")
        for point in reversed(self._table.points):
            solution = self._settle(socket, point.frequency, adaptive)
            if solution.chip_power <= cap:
                return CapResult(
                    cap=cap,
                    frequency=point.frequency,
                    power=solution.chip_power,
                    adaptive=adaptive,
                    solution=solution,
                )
        raise SchedulingError(
            f"cap of {cap:.1f} W is below the floor: even "
            f"{self._table.pmin.frequency/1e6:.0f} MHz draws "
            f"{solution.chip_power:.1f} W at this occupancy"
        )

    def frequency_under_cap(
        self, socket: "ProcessorSocket", cap: float, adaptive: bool = True
    ) -> float:
        """Convenience: just the settled frequency (Hz)."""
        return self.enforce(socket, cap, adaptive).frequency

    def _settle(
        self, socket: "ProcessorSocket", frequency: float, adaptive: bool
    ) -> "SocketSolution":
        if adaptive:
            return self._undervolt.converge(socket, f_target=frequency).solution
        chip_cfg = self._config.chip
        socket.path.set_voltage(
            chip_cfg.vmin(frequency) + self._config.guardband.static_guardband
        )
        return socket.solve(frequencies=[frequency] * chip_cfg.n_cores)
