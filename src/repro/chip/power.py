"""Chip power model: dynamic CV²f plus voltage/temperature-dependent leakage.

The model is deliberately first-order — exactly the fidelity the paper's
system-level analysis needs.  Total Vdd-rail power decomposes as:

* per-core dynamic power ``Ceff · activity · V² · f`` for powered-on cores;
* per-core leakage ``L0 · (V/Vref)^k · (1 + c·(T−Tref))``, reduced to a
  small residual when the core is power gated;
* uncore dynamic power driven by an activity floor plus a per-active-core
  contribution (caches and fabric work harder when more cores are busy);
* uncore leakage (never gated — the L3 and fabric stay on).

The defaults in :class:`repro.config.ChipConfig` are calibrated so an
eight-core raytrace-class load lands near the 140 W the paper's Fig. 3a
measures, with an idle-but-clocked chip near 55 W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..config import ChipConfig
from ..pdn.delivery import pairwise_sum

#: Reference voltage for the leakage power normalization (V).
LEAKAGE_VREF = 1.2


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power of one die at one operating point (all watts)."""

    core_dynamic: tuple
    core_leakage: tuple
    uncore_dynamic: float
    uncore_leakage: float

    @property
    def core_total(self) -> float:
        """Sum of all per-core dynamic and leakage power."""
        return sum(self.core_dynamic) + sum(self.core_leakage)

    @property
    def total(self) -> float:
        """Total Vdd-rail chip power."""
        return self.core_total + self.uncore_dynamic + self.uncore_leakage

    def core_power(self, core_id: int) -> float:
        """Dynamic + leakage power of one core."""
        return self.core_dynamic[core_id] + self.core_leakage[core_id]


class PreparedPower:
    """The power model with one occupancy's and temperature's constants
    hoisted: Ceff·activity per core, gate residuals, the leakage
    temperature factor, the uncore activity.  Its methods take per-core
    voltages and frequencies as plain floats and are the only place the
    power formulas live; :class:`PowerModel` wraps them.

    Only leading factors are hoisted, so every product keeps its
    left-to-right order (``Ceff·a·V·V·f`` is ``((Ceff·a)·V·V)·f``) and is
    bit-identical to the unhoisted one.  A gated core has dynamic
    coefficient 0.0 and a trailing leakage factor of the gate residual;
    an ungated core's trailing 1.0 is exact.
    """

    def __init__(
        self,
        config: ChipConfig,
        dynamic: Sequence[float],
        gated: Sequence[bool],
        temperature: float,
        n_active: int,
    ) -> None:
        self._dynamic = list(dynamic)
        self._residual = [config.power_gate_residual if g else 1.0 for g in gated]
        self._ungated = [not g for g in gated]
        self._none_gated = bool(gated) and not any(gated)
        self._k = config.leakage_voltage_exponent
        self._t_scale = max(
            1.0 + config.leakage_temp_coeff * (temperature - config.leakage_temp_ref),
            0.1,
        )
        self._core_leakage = config.core_leakage_nominal
        self._uncore_dynamic = config.uncore_ceff * (
            config.uncore_activity_idle + config.uncore_activity_per_core * n_active
        )
        self._uncore_leakage = config.uncore_leakage_nominal
        self._f_min = config.f_min

    def core_dynamic(
        self, voltages: Sequence[float], frequencies: Sequence[float]
    ) -> List[float]:
        """Per-core dynamic power (W): ``Ceff · activity · V² · f``."""
        return [c * v * v * f for c, v, f in zip(self._dynamic, voltages, frequencies)]

    def core_leakage(self, voltages: Sequence[float]) -> List[float]:
        """Per-core leakage (W); a per-element Python ``**`` (libm pow)."""
        nominal, k, t_scale = self._core_leakage, self._k, self._t_scale
        return [
            nominal * (v / LEAKAGE_VREF) ** k * t_scale * r
            for v, r in zip(voltages, self._residual)
        ]

    def uncore_voltage(self, voltages: Sequence[float]) -> float:
        """Mean ungated-core voltage; the highest core voltage if all gated."""
        if self._none_gated:
            return sum(voltages) / len(voltages)
        ungated = [v for v, on in zip(voltages, self._ungated) if on]
        return sum(ungated) / len(ungated) if ungated else max(voltages)

    def uncore_frequency(self, frequencies: Sequence[float]) -> float:
        """Nest clock: mean ungated-core frequency, ``f_min`` if all gated."""
        ungated = [f for f, on in zip(frequencies, self._ungated) if on]
        return sum(ungated) / len(ungated) if ungated else self._f_min

    def currents(
        self,
        voltages: Sequence[float],
        frequencies: Sequence[float],
        f_uncore: float,
    ) -> Tuple[List[float], float]:
        """``(per-core currents, uncore current)`` (A) at these voltages.

        One pass of the fixed point's power step: each core draws its
        dynamic plus leakage power over its own voltage, the uncore its
        power at the nest voltage and clock over the mean core voltage
        (reduced in numpy's order, :func:`~repro.pdn.delivery.pairwise_sum`);
        both floor the voltage at 0.3 V.  Every product and sum is the one
        :meth:`core_dynamic`, :meth:`core_leakage`, :meth:`uncore_voltage`
        and :meth:`uncore` compute, in the same operand order.
        """
        nominal, k, t_scale = self._core_leakage, self._k, self._t_scale
        # ``max(v, 0.3)`` spelled as a conditional: same result, without a
        # builtin call per core.
        core = [
            (c * v * v * f + nominal * (v / LEAKAGE_VREF) ** k * t_scale * r)
            / (0.3 if v < 0.3 else v)
            for c, v, f, r in zip(self._dynamic, voltages, frequencies, self._residual)
        ]
        v_nest = self.uncore_voltage(voltages)
        uncore_power = self._uncore_dynamic * v_nest * v_nest * f_uncore + (
            self._uncore_leakage * (v_nest / LEAKAGE_VREF) ** k * t_scale
        )
        mean = pairwise_sum(voltages) / len(voltages)
        return core, uncore_power / (0.3 if mean < 0.3 else mean)

    def uncore(self, voltage: float, frequency: float) -> Tuple[float, float]:
        """(dynamic, leakage) uncore power (W) at the nest voltage and clock."""
        dynamic = self._uncore_dynamic * voltage * voltage * frequency
        v_scale = (voltage / LEAKAGE_VREF) ** self._k
        return dynamic, self._uncore_leakage * v_scale * self._t_scale


class PowerModel:
    """Computes a :class:`PowerBreakdown` from per-core operating state."""

    def __init__(self, config: ChipConfig) -> None:
        self._config = config

    @property
    def config(self) -> ChipConfig:
        """The chip configuration this model was built from."""
        return self._config

    def prepare(
        self, activities: Sequence[float], gated: Sequence[bool], temperature: float
    ) -> PreparedPower:
        """Hoist the constants of one occupancy and temperature.

        A powered-on core's activity must be >= 0; a gated core's
        activity is never read.
        """
        cfg = self._config
        dynamic = []
        n_active = 0
        for act, g in zip(activities, gated):
            if g:
                dynamic.append(0.0)
                continue
            if act < 0:
                raise ValueError(f"activity must be >= 0, got {act}")
            dynamic.append(cfg.core_ceff * act)
            if act > cfg.idle_activity:
                n_active += 1
        return PreparedPower(cfg, dynamic, gated, temperature, n_active)

    def core_dynamic(self, activity: float, voltage: float, frequency: float) -> float:
        """Dynamic power (W) of one core at the given operating point."""
        prepared = self.prepare([activity], [False], self._config.leakage_temp_ref)
        return prepared.core_dynamic([voltage], [frequency])[0]

    def core_leakage(self, voltage: float, temperature: float, gated: bool) -> float:
        """Leakage power (W) of one core; small residual when gated."""
        return self.prepare([0.0], [gated], temperature).core_leakage([voltage])[0]

    def uncore_power(
        self,
        n_active_cores: int,
        voltage: float,
        frequency: float,
        temperature: float,
    ) -> tuple:
        """(dynamic, leakage) power of the uncore in watts.

        ``frequency`` is the nest clock; we drive it with the mean core
        frequency, a reasonable stand-in for the POWER7+ nest domain.
        """
        prepared = PreparedPower(self._config, [], [], temperature, n_active_cores)
        return prepared.uncore(voltage, frequency)

    def chip_power(
        self,
        activities: Sequence[float],
        voltages: Sequence[float],
        frequencies: Sequence[float],
        gated: Sequence[bool],
        temperature: float,
    ) -> PowerBreakdown:
        """Full-die power breakdown.

        Parameters
        ----------
        activities:
            Per-core switching activity factor (0 for idle-clocked cores the
            caller may still use :attr:`ChipConfig.idle_activity` for).
        voltages:
            Per-core on-die voltage (V) — the *drooped* voltage, not the VRM
            setpoint, because CV²f switches at the local rail.
        frequencies:
            Per-core clock frequency (Hz).
        gated:
            Per-core power-gate state.  A gated core contributes no dynamic
            power and only residual leakage.
        temperature:
            Die temperature (C) for the leakage model.
        """
        n = self._config.n_cores
        if not (len(activities) == len(voltages) == len(frequencies) == len(gated) == n):
            raise ValueError(
                f"per-core sequences must all have length {n}; got "
                f"{len(activities)}/{len(voltages)}/{len(frequencies)}/{len(gated)}"
            )
        prepared = self.prepare(activities, gated, temperature)
        uncore_dynamic, uncore_leakage = prepared.uncore(
            prepared.uncore_voltage(voltages), prepared.uncore_frequency(frequencies)
        )
        return PowerBreakdown(
            core_dynamic=tuple(prepared.core_dynamic(voltages, frequencies)),
            core_leakage=tuple(prepared.core_leakage(voltages)),
            uncore_dynamic=uncore_dynamic,
            uncore_leakage=uncore_leakage,
        )
