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
from typing import TYPE_CHECKING, Tuple

from ..chip.dvfs import DvfsTable
from ..config import ServerConfig
from ..errors import SchedulingError
from .static import StaticGuardbandPolicy
from .undervolt import UndervoltPolicy

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
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
