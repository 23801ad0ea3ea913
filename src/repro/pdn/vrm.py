"""Voltage regulator module (VRM) with loadline and per-rail setpoints.

A server VRM regulates its output at the *sense point*; the effective output
voltage droops below the setpoint proportionally to load current — the
*loadline* (also called adaptive voltage positioning).  The paper identifies
this loadline as one of the two passive effects that erode adaptive
guardbanding's benefit at high load (Sec. 4.3), and loadline borrowing
(Sec. 5.1) exploits the fact that each socket has its *own* delivery path
from the shared VRM chip: spreading current across paths shrinks each
path's drop.

:class:`VoltageRegulatorModule` models one VRM chip with one rail per
socket.  Each rail has an independent setpoint (quantized to the VRM's
6.25 mV step) and an independent loadline resistance, plus a current sensor
per rail — the sensor the paper uses to quantify the passive drop
(Sec. 4.3: "To measure passive voltage drop ... we use VRM's current
sensors").
"""

from __future__ import annotations

import math
from typing import List

from ..config import PdnConfig
from ..errors import ConfigError


class VoltageRegulatorModule:
    """Multi-rail VRM with per-rail loadline and current sensing."""

    def __init__(self, config: PdnConfig, n_rails: int = 2) -> None:
        if n_rails < 1:
            raise ConfigError(f"n_rails must be >= 1, got {n_rails}")
        self._config = config
        self._n_rails = n_rails
        self._setpoints = [0.0] * n_rails
        self._currents = [0.0] * n_rails

    @property
    def config(self) -> PdnConfig:
        """The electrical configuration every rail shares."""
        return self._config

    @property
    def n_rails(self) -> int:
        """Number of output rails (one per socket)."""
        return self._n_rails

    @property
    def step(self) -> float:
        """Setpoint quantization step (V)."""
        return self._config.vrm_step

    def quantize(self, voltage: float) -> float:
        """Snap a requested setpoint up to the VRM step grid.

        Rounding *up* is the safe direction for a guardband controller: the
        delivered voltage is never below what the caller asked for.
        """
        # The 1e-9 relative slack keeps values that are already on the grid
        # from being bumped a full step up by floating-point noise.
        steps = math.ceil(voltage / self._config.vrm_step - 1e-9)
        return steps * self._config.vrm_step

    def set_rail(self, rail: int, voltage: float) -> float:
        """Program one rail's setpoint; returns the quantized value."""
        self._check_rail(rail)
        if voltage <= 0:
            raise ValueError(f"setpoint must be positive, got {voltage}")
        quantized = self.quantize(voltage)
        self._setpoints[rail] = quantized
        return quantized

    def setpoint(self, rail: int) -> float:
        """Programmed setpoint of one rail (V)."""
        self._check_rail(rail)
        return self._setpoints[rail]

    def record_current(self, rail: int, current: float) -> None:
        """Update one rail's current-sensor reading (A)."""
        self._check_rail(rail)
        if current < 0:
            raise ValueError(f"current must be >= 0, got {current}")
        self._currents[rail] = current

    def sensed_current(self, rail: int) -> float:
        """Most recent current-sensor reading of one rail (A)."""
        self._check_rail(rail)
        return self._currents[rail]

    def loadline_drop(self, rail: int, current: float = None) -> float:
        """Loadline voltage drop (V) of one rail at ``current`` amps.

        With ``current`` omitted, uses the rail's sensed current — this is
        exactly the heuristic the paper describes for quantifying passive
        drop from the VRM current sensor.
        """
        self._check_rail(rail)
        amps = self._currents[rail] if current is None else current
        if amps < 0:
            raise ValueError(f"current must be >= 0, got {amps}")
        return self._config.r_loadline * amps

    def output_voltage(self, rail: int, current: float = None) -> float:
        """Effective rail output voltage after the loadline (V)."""
        return self.setpoint(rail) - self.loadline_drop(rail, current)

    def rail_currents(self) -> List[float]:
        """Sensed currents of every rail (A)."""
        return list(self._currents)

    def _check_rail(self, rail: int) -> None:
        if not 0 <= rail < self._n_rails:
            raise ValueError(f"rail must be in [0, {self._n_rails}), got {rail}")
