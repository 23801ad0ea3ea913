"""Power-saving (undervolting) mode: the 32 ms firmware voltage loop.

The CPM→DPLL loop still runs, but the DPLL is capped at the target clock;
on top of it, firmware observes the achieved frequency every 32 ms and
walks the VRM setpoint down until the clock *just* holds the target.  A
worst-case droop momentarily pulls the DPLL below target, the firmware sees
the dip and backs the voltage up — so the converged setpoint reserves the
full worst-case droop depth on top of the calibrated margin.  That reserve,
plus the passive (loadline + IR) drop, is exactly what Fig. 10b measures:
``undervolt amount + passive drop ≈ constant`` across workloads.

The loop is implemented as a real stepping controller (multiple 6.25 mV
VRM steps per 32 ms tick, proportional to the observed excess) rather than
an analytic shortcut, so the transient engine can exercise mis-convergence
and recovery behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import ServerConfig
from ..errors import ConvergenceError
from .calibration import calibrated_margin
from .parking import fully_gated, park_if_fully_gated

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.socket import ProcessorSocket, SocketSolution

#: Maximum VRM steps the firmware moves per 32 ms tick.
MAX_STEPS_PER_TICK = 8

#: Maximum firmware ticks before declaring non-convergence.
MAX_TICKS = 400


@dataclass(frozen=True)
class UndervoltResult:
    """Converged undervolting state of one socket."""

    #: Settled electrical state at the converged setpoint.
    solution: SocketSolution

    #: Converged VRM setpoint (V).
    setpoint: float

    #: Voltage removed relative to the static guardband setpoint (V).
    undervolt: float

    #: Number of 32 ms firmware ticks to convergence.
    ticks: int


class UndervoltPolicy:
    """Firmware loop: lower the setpoint until frequency just holds."""

    def __init__(self, config: ServerConfig) -> None:
        self._config = config

    def converge(
        self,
        socket: ProcessorSocket,
        f_target: Optional[float] = None,
        entry: Optional[SocketSolution] = None,
    ) -> UndervoltResult:
        """Run firmware ticks until the setpoint settles.

        Starts from the static-guardband voltage (the mode-entry state on
        real hardware) and steps down/up by whole VRM steps, at most
        :data:`MAX_STEPS_PER_TICK` per tick.

        ``entry`` is this socket's static-guardband settle at the same
        ``f_target``, made from the same fresh state with nothing run on
        the socket since.  The loop's first, thermally settled solve is
        that settle bit for bit, so with ``entry`` the ticks start from
        it instead of solving it again (the rail already holds the
        quantized static voltage; a fully gated socket's parked settle is
        returned as it is).
        """
        chip_cfg = self._config.chip
        target = chip_cfg.f_nominal if f_target is None else f_target
        frequencies = [target] * chip_cfg.n_cores
        # Work against the quantized rail: the VRM can only realize grid
        # setpoints, so "zero undervolt" means the grid point at-or-above
        # the configured static voltage.
        if entry is None:
            static_vdd = socket.path.set_voltage(self._config.static_vdd)
            parked = park_if_fully_gated(socket, self._config)
        else:
            static_vdd = socket.path.vrm.quantize(self._config.static_vdd)
            parked = entry if fully_gated(socket) else None
        step = socket.path.vrm.step

        if parked is not None:
            # Every core is power gated: no CPM is alive, so the firmware
            # cannot actively manage the rail; DVFS parks it at the lowest
            # operating point instead.
            return UndervoltResult(
                solution=parked,
                setpoint=socket.path.setpoint,
                undervolt=0.0,
                ticks=0,
            )

        solution = socket.solve(frequencies=frequencies) if entry is None else entry
        for tick in range(1, MAX_TICKS + 1):
            excess = self._worst_excess(socket, solution, target)
            if 0.0 <= excess < step:
                return UndervoltResult(
                    solution=solution,
                    setpoint=socket.path.setpoint,
                    undervolt=static_vdd - socket.path.setpoint,
                    ticks=tick,
                )
            if excess > 0:
                steps = min(int(excess / step), MAX_STEPS_PER_TICK)
                steps = max(steps, 1)
                new_setpoint = socket.path.setpoint - steps * step
            else:
                # Frequency dipped below target: back off immediately.
                steps = min(int(-excess / step) + 1, MAX_STEPS_PER_TICK)
                new_setpoint = socket.path.setpoint + steps * step
            if new_setpoint > static_vdd:
                # Cannot help this operating point; pin at the static rail.
                new_setpoint = static_vdd
            socket.path.set_voltage(new_setpoint)
            solution = socket.solve(frequencies=frequencies, settle_thermal=False)
            if new_setpoint == static_vdd and excess < 0:
                return UndervoltResult(
                    solution=socket.solve(frequencies=frequencies),
                    setpoint=static_vdd,
                    undervolt=0.0,
                    ticks=tick,
                )
        raise ConvergenceError(
            f"undervolt firmware loop did not settle within {MAX_TICKS} ticks "
            f"(socket {socket.socket_id}, target {target/1e6:.0f} MHz)"
        )

    def _worst_excess(
        self,
        socket: ProcessorSocket,
        solution: SocketSolution,
        target: float,
    ) -> float:
        """Smallest per-core voltage surplus over the droop-safe requirement.

        A core needs, *delivered*, the timing wall at its clock (never below
        the target) plus the calibrated margin plus the full worst-case
        droop depth at the solution's activity level.  Margin and droop are
        the same for every core, so they are looked up once; the sum keeps
        its ``(wall + margin) + droop`` order.
        """
        chip_cfg = self._config.chip
        margin = calibrated_margin(chip_cfg, self._config.guardband)
        droop = socket.path.noise.worst_droop(len(solution.active_core_ids))
        return min(
            voltage - (chip_cfg.vmin(max(frequency, target)) + margin + droop)
            for voltage, frequency in zip(solution.core_voltages, solution.frequencies)
        )
