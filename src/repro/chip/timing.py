"""Circuit timing model: the Vmin(f) wall and timing-margin arithmetic.

The POWER7+ circuit meets timing at frequency ``f`` only when the on-chip
voltage exceeds ``Vmin(f)``.  The paper's Fig. 6a shows this relation is
close to linear over the 2.8–4.2 GHz DVFS window, which is what
:class:`repro.config.ChipConfig` encodes.  :class:`TimingModel` wraps the
config with the derived quantities the rest of the simulator needs:

* ``margin(v, f)`` — timing slack in volts at operating point ``(v, f)``.
  Positive margin means the circuit is faster than the clock requires.
* ``frequency_for_margin(v, m)`` — the frequency at which the slack would
  be exactly ``m`` volts: the quantity the CPM→DPLL closed loop servoes on.
"""

from __future__ import annotations

from ..config import ChipConfig


class TimingModel:
    """Linear Vmin(f) timing wall derived from a :class:`ChipConfig`."""

    def __init__(self, config: ChipConfig) -> None:
        self._config = config

    @property
    def config(self) -> ChipConfig:
        """The chip configuration this model was built from."""
        return self._config

    def vmin(self, frequency: float) -> float:
        """Minimum voltage (V) required to meet timing at ``frequency`` (Hz)."""
        if frequency <= 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        return self._config.vmin(frequency)

    def margin(self, voltage: float, frequency: float) -> float:
        """Timing margin (V) at operating point ``(voltage, frequency)``.

        Positive values mean slack (circuit faster than required); negative
        values mean a timing violation would occur at this point.
        """
        return voltage - self.vmin(frequency)

    def frequency_for_margin(self, voltage: float, margin: float) -> float:
        """Frequency (Hz) at which the timing margin equals ``margin`` volts.

        This is the servo target of the CPM→DPLL loop: given the observed
        on-chip voltage, run as fast as possible while preserving the
        calibrated margin.
        """
        return (voltage - margin - self._config.vmin_intercept) / self._config.vmin_slope

    def meets_timing(self, voltage: float, frequency: float) -> bool:
        """Whether the circuit meets timing (non-negative margin)."""
        return self.margin(voltage, frequency) >= 0.0

    def quantize_frequency(self, frequency: float) -> float:
        """Snap ``frequency`` down to the DPLL's 28 MHz step grid.

        Rounding *down* is the safe direction: the quantized frequency never
        requires more voltage than the requested one.  A grid point comes
        back unchanged, so snapping is idempotent also on a step that is
        not a whole number of hertz, where ``frequency / f_step`` can fall
        just below the point's step count.
        """
        step = self._config.f_step
        if frequency == round(frequency / step) * step:
            return frequency
        return int(frequency / step) * step

    def clamp_frequency(self, frequency: float) -> float:
        """Clamp ``frequency`` into the DPLL's operating range."""
        return min(max(frequency, self._config.f_min), self._config.f_ceiling)
