"""Critical path monitor (CPM) sensors.

A CPM launches a signal through synthetic paths into a 12-position edge
detector every cycle; the detector position where the edge lands is the CPM
output code (0–11).  Codes below the calibration point mean the timing
margin has shrunk; codes above mean it has grown (Sec. 2.2 of the paper).

This module models the *transfer function* of that circuit: physical timing
margin (in volts of equivalent supply headroom) → integer code, with

* a sensitivity of about 21 mV per code step at nominal frequency (the
  paper's measured value, Fig. 6a), scaling with cycle time — at lower
  frequency each detector element spans more voltage headroom;
* per-CPM multiplicative sensitivity variation and additive calibration
  offset (process variation, Fig. 6b), drawn deterministically from a seed;
* saturation at both detector ends.

Forty CPMs (5 per core × 8 cores) form a :class:`CpmBank`.  The bank is
what the guardband controller and the AMESTER-style telemetry read.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ChipConfig
from ..errors import CalibrationError
from ..floorplan import Floorplan


class CriticalPathMonitor:
    """One CPM: converts timing margin (V) to a detector code.

    Parameters
    ----------
    config:
        Chip configuration (code range, nominal sensitivity).
    sensitivity_scale:
        Multiplicative process-variation factor on mV/bit for this CPM.
    code_offset:
        Additive calibration error in code units for this CPM.
    calibration_code:
        Code this CPM is calibrated to output at the calibrated margin.
    calibrated_margin:
        Timing margin (V) at which the CPM outputs ``calibration_code``.
    unit:
        Name of the core unit hosting this CPM (informational).
    """

    def __init__(
        self,
        config: ChipConfig,
        sensitivity_scale: float = 1.0,
        code_offset: float = 0.0,
        calibration_code: int = 2,
        calibrated_margin: float = 0.042,
        unit: str = "fxu",
    ) -> None:
        if sensitivity_scale <= 0:
            raise ValueError("sensitivity_scale must be positive")
        self._config = config
        self._sensitivity_scale = sensitivity_scale
        self._code_offset = code_offset
        self._calibration_code = calibration_code
        self._calibrated_margin = calibrated_margin
        self.unit = unit

    @property
    def calibration_code(self) -> int:
        """Code this CPM outputs at the calibrated margin."""
        return self._calibration_code

    @property
    def calibrated_margin(self) -> float:
        """Timing margin (V) corresponding to the calibration code."""
        return self._calibrated_margin

    def volts_per_bit(self, frequency: float) -> float:
        """Voltage headroom represented by one code step at ``frequency``.

        The detector elements have fixed *time* granularity, so the voltage
        equivalent of one step scales with cycle time: at lower frequency one
        bit spans more millivolts.  At ``f_nominal`` this equals the
        configured ~21 mV (times this CPM's process-variation factor).
        """
        if frequency <= 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        base = self._config.cpm_mv_per_bit * (self._config.f_nominal / frequency) ** 0.5
        return base * self._sensitivity_scale

    def read(self, margin: float, frequency: float) -> int:
        """Detector code for a physical timing margin of ``margin`` volts."""
        step = self.volts_per_bit(frequency)
        raw = (
            self._calibration_code
            + (margin - self._calibrated_margin) / step
            + self._code_offset
        )
        code = round(raw)
        if code < 0:
            return 0
        top = self._config.cpm_code_max
        return top if code > top else code

    def margin_for_code(self, code: int, frequency: float) -> float:
        """Inverse transfer: margin (V) at which this CPM outputs ``code``.

        Used by the calibration procedure and by the analysis code that
        converts CPM traces back into on-chip voltage (Sec. 4.1).
        """
        step = self.volts_per_bit(frequency)
        return self._calibrated_margin + (code - self._code_offset - self._calibration_code) * step

    def recalibrate(self, margin: float, code: int, frequency: float) -> None:
        """Re-anchor the CPM so that ``margin`` maps exactly to ``code``.

        Mirrors the hardware calibration step: the chip is put at a known
        operating point (``margin`` volts of slack at ``frequency``) and each
        CPM's reference is adjusted until it outputs the target code.  The
        adjustment absorbs this CPM's additive offset at the calibration
        point; sensitivity differences remain away from it, as in silicon.
        """
        _check_code(self._config, code)
        self._calibration_code = code
        self._calibrated_margin = margin + self._code_offset * self.volts_per_bit(frequency)


class CpmBank:
    """All CPMs of one die, organized per core.

    Process variation (per-CPM sensitivity scale and code offset) is drawn
    from a seeded :class:`numpy.random.Generator`, making every die instance
    reproducible while still exhibiting the spread of Fig. 6b.  The bank
    owns that generator, so it draws on the first read of a monitor: a
    fault-free settle, which never reads a code, never draws.
    """

    def __init__(
        self,
        config: ChipConfig,
        floorplan: Optional[Floorplan] = None,
        calibration_code: int = 2,
        calibrated_margin: float = 0.042,
        seed: int = 7,
    ) -> None:
        self._config = config
        floorplan = floorplan or Floorplan(config.n_cores)
        self._locations = floorplan.cpm_locations(config.cpms_per_core)
        self._seed = seed
        self._anchor = (calibration_code, calibrated_margin)
        #: The last undrawn :meth:`calibrate` (recalibration depends only on
        #: its arguments and each CPM's variation): the draw applies it.
        self._calibration: Optional[Tuple[float, float, int]] = None

    @cached_property
    def _cpms(self) -> List[List[CriticalPathMonitor]]:
        """The die's monitors, drawn (and calibrated) on first use."""
        config = self._config
        locations = self._locations
        # Every normal of the die in one call, consumed in the per-draw
        # order (per core: its scale, then each CPM's scale and offset).
        # ``rng.normal(loc, s)`` is ``loc + s * z`` on the same stream;
        # tests/test_guardband_reference.py pins that identity.
        n_draws = sum(1 + 2 * len(locations[core]) for core in range(config.n_cores))
        z = iter(np.random.default_rng(self._seed).standard_normal(n_draws).tolist())
        core_sigma = config.cpm_sensitivity_sigma * 0.6
        cpm_sigma = config.cpm_sensitivity_sigma * 0.5
        offset_sigma = config.cpm_offset_sigma
        calibration_code, calibrated_margin = self._anchor
        cpms: List[List[CriticalPathMonitor]] = []
        for core in range(config.n_cores):
            # Core-level component of the variation (cores differ from each
            # other more than CPMs within a core do — Fig. 6b).
            core_scale = 1.0 + core_sigma * next(z)
            core_cpms = []
            for unit in locations[core]:
                scale = core_scale * (1.0 + cpm_sigma * next(z))
                # ``0.0 +`` is numpy's location term: it maps -0.0 to 0.0.
                offset = 0.0 + offset_sigma * next(z)
                core_cpms.append(
                    CriticalPathMonitor(
                        config,
                        sensitivity_scale=max(scale, 0.5),
                        code_offset=offset,
                        calibration_code=calibration_code,
                        calibrated_margin=calibrated_margin,
                        unit=unit,
                    )
                )
            cpms.append(core_cpms)
        if self._calibration is not None:
            _calibrate_all(cpms, *self._calibration)
        return cpms

    @property
    def n_cores(self) -> int:
        """Number of cores covered by the bank."""
        return self._config.n_cores

    def core_cpms(self, core_id: int) -> Sequence[CriticalPathMonitor]:
        """The CPMs inside one core."""
        return tuple(self._cpms[core_id])

    def all_cpms(self) -> Sequence[CriticalPathMonitor]:
        """Every CPM on the die, core-major order."""
        return tuple(cpm for core in self._cpms for cpm in core)

    def read_core(self, core_id: int, margin: float, frequency: float) -> List[int]:
        """Codes of all CPMs in ``core_id`` at the given margin/frequency."""
        return [cpm.read(margin, frequency) for cpm in self._cpms[core_id]]

    def worst_code(self, core_id: int, margin: float, frequency: float) -> int:
        """Minimum (worst) CPM code in a core — what the DPLL loop compares.

        The paper (Sec. 2.2): "Every cycle, the lowest-value CPM in each
        core is compared against the calibration position."
        """
        return min(self.read_core(core_id, margin, frequency))

    def calibrate(self, margin: float, frequency: float, target_code: int) -> None:
        """Calibrate every CPM to output ``target_code`` at ``margin``.

        After calibration the *offsets are preserved in hardware* — the
        procedure zeroes out systematic error at the calibration point but
        per-CPM sensitivity differences remain away from it, as in silicon.
        An undrawn bank checks the target code now and calibrates (read
        back included) when it draws.
        """
        if "_cpms" in vars(self):
            _calibrate_all(self._cpms, margin, frequency, target_code)
        else:
            _check_code(self._config, target_code)
            self._calibration = (margin, frequency, target_code)


def _check_code(config: ChipConfig, code: int) -> None:
    if not 0 <= code <= config.cpm_code_max:
        raise CalibrationError(
            f"target code {code} outside detector range 0..{config.cpm_code_max}"
        )


def _calibrate_all(
    cpms: List[List[CriticalPathMonitor]], margin: float, frequency: float, code: int
) -> None:
    for core in cpms:
        for cpm in core:
            cpm.recalibrate(margin, code, frequency)
            if cpm.read(margin, frequency) != code:
                raise CalibrationError("CPM failed to read back its calibration code")
