"""Per-core digital phase-locked loop (DPLL).

Each POWER7+ core has its own DPLL that can slew the clock while it is
running — the paper quotes 7% of the current frequency in under 10 ns —
which is what lets adaptive guardbanding ride through transient voltage
droops by momentarily slowing the clock instead of failing timing.

:class:`DigitalPll` models the slew-rate-limited frequency actuator.  The
control *decision* (what frequency to ask for) lives in
:mod:`repro.guardband`; the DPLL only enforces physical limits:

* frequency clamped to ``[f_min, f_ceiling]``;
* requests snapped down to the 28 MHz step grid;
* slewing toward the request at the configured rate.

Because the simulator's smallest external step (32 ms, the AMESTER and
firmware interval) is about six orders of magnitude longer than the slew
interval, :meth:`step` also reports whether the request was reached within
the step — in every realistic scenario it is, and the loop behaves as
instantaneously settled at the telemetry timescale.
"""

from __future__ import annotations

import math

from ..config import ChipConfig
from .timing import TimingModel


class DigitalPll:
    """Slew-limited per-core frequency actuator."""

    def __init__(self, config: ChipConfig, initial_frequency: float = None) -> None:
        self._config = config
        self._timing = TimingModel(config)
        f0 = config.f_nominal if initial_frequency is None else initial_frequency
        self._frequency = self._timing.clamp_frequency(f0)

    @property
    def frequency(self) -> float:
        """Current output frequency (Hz)."""
        return self._frequency

    def max_slew(self, duration: float) -> float:
        """Largest relative frequency change achievable in ``duration`` seconds.

        The DPLL changes frequency by at most ``dpll_slew_fraction`` per
        ``dpll_slew_interval``; over longer windows the moves compound.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        intervals = duration / self._config.dpll_slew_interval
        # Compute in log space: at the telemetry timescale (ms) the
        # compounded slew is astronomically large and would overflow pow.
        exponent = intervals * math.log1p(self._config.dpll_slew_fraction)
        if exponent > 700.0:
            return math.inf
        return math.expm1(exponent)

    def step(self, target: float, duration: float) -> bool:
        """Slew toward ``target`` for ``duration`` seconds.

        Returns ``True`` when the (clamped, quantized) target was reached
        within the step, ``False`` when the slew limit truncated the move.
        """
        goal = self._timing.quantize_frequency(self._timing.clamp_frequency(target))
        limit = 1.0 + self.max_slew(duration)
        low = self._frequency / limit
        high = self._frequency * limit
        reached = low <= goal <= high
        self._frequency = min(max(goal, low), high)
        if not reached:
            # A truncated move still lands on the step grid.
            self._frequency = self._timing.quantize_frequency(
                self._timing.clamp_frequency(self._frequency)
            )
        return reached

    def set_frequency(self, frequency: float) -> None:
        """Directly set the output (used for mode changes and test setup)."""
        self._frequency = self._timing.quantize_frequency(
            self._timing.clamp_frequency(frequency)
        )

    def restore(self, frequency: float) -> None:
        """Put back an output a DPLL already produced, as it was.

        Unlike :meth:`set_frequency` it neither clamps nor re-quantizes:
        snapping a grid frequency down to the grid again can land a step
        lower in floating point.
        """
        self._frequency = frequency
