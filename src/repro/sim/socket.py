"""One processor socket: chip + delivery path + the electrical fixed point.

Voltage, current and power on a socket are mutually dependent:

* chip power depends on the on-die voltage (CV²f and leakage);
* current is power over voltage;
* the delivery path drops voltage proportionally to current.

:meth:`ProcessorSocket.solve` resolves the cycle by damped fixed-point
iteration, optionally with the CPM→DPLL frequency servo in the loop (the
overclocking mode, where frequency itself depends on the settled voltage).
The servo iterates on continuous frequencies and quantizes to the DPLL's
28 MHz grid only once at the end (re-settling voltage afterwards) — putting
the quantizer inside the loop would invite limit cycles.  Convergence is
asserted: a silently non-converged state would poison every figure
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..chip import Power7Chip
from ..chip.power import PowerBreakdown
from ..config import ServerConfig
from ..errors import ConvergenceError
from ..pdn import DropBreakdown, PowerDeliveryPath
from ..pdn.delivery import pairwise_sum

#: Damping factor of the voltage fixed-point iteration.
DAMPING = 0.6

#: Convergence threshold on per-core voltage (V).
TOLERANCE = 1e-6

#: Iteration cap; the damped loop converges in <40 for every valid config.
MAX_ITERATIONS = 300


@dataclass(frozen=True)
class SocketSolution:
    """Settled electrical state of one socket."""

    #: Per-core on-die voltages under typical conditions (V).
    core_voltages: tuple

    #: Per-core clock frequencies (Hz).
    frequencies: tuple

    #: Voltage-drop decomposition at the settled operating point.
    drops: DropBreakdown

    #: Power breakdown at the settled operating point.
    power: PowerBreakdown

    #: Die temperature at the settled operating point (C).
    temperature: float

    #: Fixed-point iterations of the last thermal pass.  In servo mode
    #: this sums the servo loop and the re-settle at quantized clocks.
    iterations: int

    #: Total current drawn from the VRM rail (A).
    total_current: float

    #: Ids of cores that were running at least one thread (and not gated)
    #: when the point was settled.  Empty for an idle socket.  Captured at
    #: solve time so a solution describes its own occupancy — downstream
    #: aggregations (active-core frequency, server minimum clock) must not
    #: re-query live chip state, which may have changed since.
    active_core_ids: tuple = ()

    @property
    def die_power(self) -> float:
        """Power consumed by the transistors at the delivered voltages (W)."""
        return self.power.total

    @property
    def chip_power(self) -> float:
        """Vdd rail power as the platform sensors report it (W).

        The power sensor sits at the VRM output: it measures setpoint ×
        current, which includes the resistive loss in the delivery path.
        This is the quantity the paper plots as "chip power" (Sec. 3.2).
        """
        return self.drops.setpoint * self.total_current

    @property
    def chip_current(self) -> float:
        """Total rail current (A)."""
        return self.total_current

    @property
    def min_frequency(self) -> float:
        """Slowest core clock (Hz) — the multithreaded workload's pace."""
        return min(self.frequencies)

    @property
    def mean_frequency(self) -> float:
        """Mean core clock (Hz)."""
        return float(np.mean(self.frequencies))


class ProcessorSocket:
    """One chip behind one VRM rail."""

    def __init__(
        self,
        chip: Power7Chip,
        path: PowerDeliveryPath,
        config: ServerConfig,
        socket_id: int = 0,
    ) -> None:
        self.chip = chip
        self.path = path
        self.config = config
        self.socket_id = socket_id

    def solve(
        self,
        frequencies: Optional[Sequence[float]] = None,
        servo_margin: Optional[float] = None,
        frequency_cap: Optional[float] = None,
        settle_thermal: bool = True,
    ) -> SocketSolution:
        """Solve the electrical fixed point at the current occupancy.

        Parameters
        ----------
        frequencies:
            Per-core clocks (Hz) to hold fixed.  Mutually exclusive with
            ``servo_margin``.  When both are omitted the DPLLs' current
            outputs are held.
        servo_margin:
            When given, each core's DPLL servoes its frequency so the core's
            timing margin equals this value (V) at the settled voltage — the
            CPM→DPLL closed loop of the overclocking mode.
        frequency_cap:
            Upper bound on servoed frequencies (the undervolting mode caps
            the DPLL at the target clock).
        settle_thermal:
            Settle die temperature to the steady state of the settled power
            (outer loop); when ``False`` the current temperature is held.
        """
        chip = self.chip
        n = chip.n_cores
        if frequencies is not None and servo_margin is not None:
            raise ValueError("pass either frequencies or servo_margin, not both")
        if frequencies is not None:
            if len(frequencies) != n:
                raise ValueError(f"expected {n} frequencies, got {len(frequencies)}")
            for dpll, f in zip(chip.dplls, frequencies):
                dpll.set_frequency(f)

        states = chip.core_states()
        occupancy = _Occupancy(
            activities=[s.activity for s in states],
            gated=[s.gated for s in states],
            n_active=sum(1 for s in states if s.active),
        )
        active_ids = tuple(i for i, s in enumerate(states) if s.active)

        temperature = chip.thermal.temperature
        solution = None
        for _ in range(3 if settle_thermal else 1):
            if servo_margin is not None:
                voltages, freqs, iters = self._iterate(
                    occupancy, temperature, servo=True,
                    servo_margin=servo_margin, frequency_cap=frequency_cap,
                )
                # Quantize the converged servo frequencies down to the DPLL
                # grid, then re-settle voltage at the fixed clocks.
                for dpll, f in zip(chip.dplls, freqs):
                    dpll.set_frequency(f)
                voltages, _, extra = self._iterate(occupancy, temperature, servo=False)
                iters += extra
            else:
                voltages, _, iters = self._iterate(occupancy, temperature, servo=False)
            drops, power, current = self._evaluate(occupancy, voltages, temperature)
            solution = SocketSolution(
                core_voltages=tuple(voltages),
                frequencies=tuple(chip.frequencies()),
                drops=drops,
                power=power,
                temperature=temperature,
                iterations=iters,
                total_current=current,
                active_core_ids=active_ids,
            )
            if not settle_thermal:
                break
            new_temp = chip.thermal.steady_state(solution.die_power)
            converged = abs(new_temp - temperature) < 0.05
            temperature = new_temp
            chip.thermal.settle(solution.die_power)
            if converged:
                solution = replace(solution, temperature=temperature)
                break
        return solution

    def worst_cpm_codes(self, solution: SocketSolution) -> List[int]:
        """Per-core worst CPM code at a settled operating point."""
        return self.chip.worst_cpm_codes(solution.core_voltages)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _iterate(
        self,
        occupancy: "_Occupancy",
        temperature: float,
        servo: bool,
        servo_margin: float = 0.0,
        frequency_cap: Optional[float] = None,
    ) -> tuple:
        """Damped fixed point on voltage (and, when ``servo``, frequency).

        Returns ``(voltages, frequencies, iterations)`` where frequencies
        are continuous (not grid-quantized) in servo mode.

        Everything fixed for the solve is hoisted into the prepared power
        and delivery forms up front, so an iteration only does the
        arithmetic that depends on the iterate, on plain floats.
        """
        chip = self.chip
        power = chip.power_model.prepare(
            occupancy.activities, occupancy.gated, temperature
        )
        delivery = self.path.prepare(occupancy.n_active)
        voltages = [delivery.setpoint - 0.02] * chip.n_cores
        freqs = chip.frequencies()
        f_uncore = power.uncore_frequency(freqs)
        delta = float("inf")
        for iteration in range(1, MAX_ITERATIONS + 1):
            if servo:
                freqs = []
                for v in voltages:
                    target = chip.timing.frequency_for_margin(v, servo_margin)
                    target = chip.timing.clamp_frequency(target)
                    if frequency_cap is not None:
                        target = min(target, frequency_cap)
                    freqs.append(target)
                f_uncore = power.uncore_frequency(freqs)
            unc_dyn, unc_leak = power.uncore(power.uncore_voltage(voltages), f_uncore)
            core_currents, uncore_current = _currents(
                power.core_dynamic(voltages, freqs), power.core_leakage(voltages),
                unc_dyn + unc_leak, voltages,
            )
            *_, new_voltages = delivery.drops(core_currents, uncore_current)
            delta = max([abs(new - v) for new, v in zip(new_voltages, voltages)])
            voltages = [v + DAMPING * (new - v) for new, v in zip(new_voltages, voltages)]
            # A diverging iterate (pathological delivery resistance) must
            # stay inside the power model's physical domain so the loop
            # reaches the iteration cap and raises ConvergenceError instead
            # of feeding negative voltages into the leakage model.
            if min(voltages) < 0.2:
                voltages = [max(v, 0.2) for v in voltages]
            if delta < TOLERANCE:
                return voltages, freqs, iteration
        raise ConvergenceError(
            f"socket {self.socket_id}: electrical fixed point did not converge "
            f"in {MAX_ITERATIONS} iterations "
            f"(setpoint={delivery.setpoint:.3f} V, last delta={delta:.2e} V)"
        )

    def _evaluate(
        self, occupancy: "_Occupancy", voltages: List[float], temperature: float
    ) -> tuple:
        """One forward evaluation of (drops, power, current) at settled voltages."""
        power = self.chip.power_model.chip_power(
            activities=occupancy.activities,
            voltages=voltages,
            frequencies=self.chip.frequencies(),
            gated=occupancy.gated,
            temperature=temperature,
        )
        core_currents, uncore_current = _currents(
            power.core_dynamic, power.core_leakage,
            power.uncore_dynamic + power.uncore_leakage, voltages,
        )
        drops = self.path.deliver(core_currents, uncore_current, occupancy.n_active)
        total_current = float(sum(core_currents)) + uncore_current
        return drops, power, total_current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorSocket(id={self.socket_id}, chip={self.chip!r})"


def _currents(dynamic: list, leakage: list, uncore_power: float, voltages: list) -> tuple:
    """``(per-core currents, uncore current)`` drawn at these voltages.

    Each core draws its power over its own voltage; the uncore draws over
    the mean core voltage, reduced in numpy's order (:func:`pairwise_sum`).
    Both floor the voltage at 0.3 V.
    """
    # ``max(v, 0.3)`` spelled as a conditional: same result, without a
    # builtin call per core.
    core = [
        (d + l) / (0.3 if v < 0.3 else v)
        for d, l, v in zip(dynamic, leakage, voltages)
    ]
    mean = pairwise_sum(voltages) / len(voltages)
    return core, uncore_power / max(mean, 0.3)


@dataclass(frozen=True)
class _Occupancy:
    """Frozen occupancy snapshot used across solver iterations."""

    activities: list
    gated: list
    n_active: int
