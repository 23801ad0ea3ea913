"""One socket's complete power delivery path: VRM rail → package → cores.

:class:`PowerDeliveryPath` composes the three drop mechanisms of Fig. 8 for
a single socket and answers the central electrical question of the
simulator: *given a VRM setpoint and per-core currents, what voltage do the
transistors of each core actually see?*

The returned :class:`DropBreakdown` carries each component separately so
the analysis layer can regenerate the stacked decomposition of Fig. 9
without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import PdnConfig
from ..faults.injector import fault_injector
from ..floorplan import Floorplan
from .didt import DidtNoiseModel
from .irdrop import IrDropNetwork
from .vrm import VoltageRegulatorModule


def pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` on plain floats, in numpy's operand order.

    numpy sums float64 sequentially below 8 elements; up to 128 in eight
    interleaved accumulators folded as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    plus a sequential tail; beyond that it halves at a multiple of 8 and
    recurses; the result is added to 0.0.  Python's ``sum`` rounds
    differently already at 8 elements.  ``tests/test_reduction_order.py``
    pins this against the installed numpy.  Eight values (one socket's
    cores) are one block and no tail: that fold, written out.
    """
    n = len(values)
    if n == 8:
        a0, a1, a2, a3, a4, a5, a6, a7 = values
        return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) + 0.0
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    total = 0.0
    blocks = n - n % 8
    if blocks:
        acc = list(values[:8])
        for i in range(8, blocks, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
    for v in values[blocks:]:
        total += v
    return total + 0.0


@dataclass(frozen=True)
class DropBreakdown:
    """Per-core voltage drop decomposition for one operating point.

    All entries are in volts.  ``core_voltages`` is the final on-die voltage
    per core under *typical* conditions (worst-case droops are transient
    events layered on top by the telemetry and firmware models).
    """

    #: VRM setpoint the rail was programmed to.
    setpoint: float

    #: Loadline drop at the VRM (scalar — shared by the whole socket).
    loadline: float

    #: Shared on-chip grid IR drop (scalar).
    ir_shared: float

    #: Per-core local IR drop.
    ir_local: tuple

    #: Typical-case di/dt ripple amplitude (scalar).
    typical_didt: float

    #: Worst-case droop magnitude that events in this state would reach.
    worst_didt: float

    #: Per-core on-die voltage under typical conditions.
    core_voltages: tuple

    def passive_at(self, core_id: int) -> float:
        """Passive (loadline + IR) drop at one core."""
        return self.loadline + self.ir_shared + self.ir_local[core_id]

    def total_at(self, core_id: int) -> float:
        """Typical-condition total drop at one core (excludes rare droops)."""
        return self.passive_at(core_id) + self.typical_didt

    def worst_total_at(self, core_id: int) -> float:
        """Drop at one core during a worst-case droop event."""
        return self.passive_at(core_id) + self.worst_didt

    @property
    def worst_core(self) -> int:
        """Index of the core with the lowest typical-condition voltage."""
        return int(np.argmin(self.core_voltages))

    @property
    def min_voltage(self) -> float:
        """Lowest per-core typical-condition voltage."""
        return float(np.min(self.core_voltages))


class PowerDeliveryPath:
    """VRM rail plus IR network plus noise model for one socket."""

    def __init__(
        self,
        config: PdnConfig,
        floorplan: Floorplan,
        vrm: VoltageRegulatorModule,
        rail: int,
        noise: Optional[DidtNoiseModel] = None,
    ) -> None:
        self._config = config
        self._vrm = vrm
        self._rail = rail
        self._ir = IrDropNetwork(config, floorplan)
        self._noise = noise or DidtNoiseModel(config.didt)

    @property
    def vrm(self) -> VoltageRegulatorModule:
        """The shared VRM chip this path draws from."""
        return self._vrm

    @property
    def rail(self) -> int:
        """The VRM rail index feeding this socket."""
        return self._rail

    @property
    def noise(self) -> DidtNoiseModel:
        """The di/dt noise model in effect (workload-scaled)."""
        return self._noise

    def set_noise(self, noise: DidtNoiseModel) -> None:
        """Swap the noise model (the scheduler re-scales it per workload)."""
        self._noise = noise

    def set_voltage(self, voltage: float) -> float:
        """Program this socket's rail setpoint; returns the quantized value."""
        return self._vrm.set_rail(self._rail, voltage)

    @property
    def setpoint(self) -> float:
        """Currently programmed rail setpoint (V)."""
        return self._vrm.setpoint(self._rail)

    def prepare(self, n_active_cores: int) -> "PreparedDelivery":
        """Hoist one solve's constants (see :class:`PreparedDelivery`)."""
        return PreparedDelivery(self, n_active_cores)

    def deliver(
        self,
        core_currents: Sequence[float],
        uncore_current: float,
        n_active_cores: int,
    ) -> DropBreakdown:
        """Compute per-core on-die voltages for the given current draw.

        Parameters
        ----------
        core_currents:
            Per-core current draw (A) at the present operating point.
        uncore_current:
            Uncore current (A) — contributes to loadline and shared-grid
            drop but has no per-core local branch.
        n_active_cores:
            Number of cores actively running threads (drives di/dt scaling).
        """
        if uncore_current < 0:
            raise ValueError(f"uncore_current must be >= 0, got {uncore_current}")
        self._ir.checked_currents(core_currents)
        prepared = self.prepare(n_active_cores)
        total, loadline, ir_shared, ir_local, voltages = prepared.drops(
            core_currents, uncore_current
        )
        self._vrm.record_current(self._rail, total)
        return DropBreakdown(
            setpoint=prepared.setpoint,
            loadline=loadline,
            ir_shared=ir_shared,
            ir_local=tuple(ir_local),
            typical_didt=prepared.ripple,
            worst_didt=prepared.droop,
            core_voltages=tuple(voltages),
        )


class PreparedDelivery:
    """One socket's delivery path with one solve's constants hoisted: the
    setpoint, di/dt ripple and droop, loadline and shared-grid
    resistances, and the installed fault injector.  :meth:`drops` is the
    only place the delivery arithmetic lives; ``deliver`` wraps it.
    """

    def __init__(self, path: PowerDeliveryPath, n_active_cores: int) -> None:
        self.setpoint = path.setpoint
        self.ripple = path.noise.typical_ripple(n_active_cores)
        self.droop = path.noise.worst_droop(n_active_cores)
        self._rail = path.rail
        self._r_loadline = path.vrm.config.r_loadline
        self._r_shared = path._config.r_ir_shared
        self._ir = path._ir
        injector = fault_injector()
        self._injector = injector if injector.enabled else None

    def drops(
        self, core_currents: Sequence[float], uncore_current: float
    ) -> tuple:
        """``(total current, loadline, ir_shared, ir_local, core voltages)``
        on plain floats, unchecked.

        The per-core voltage is ``setpoint - droop - loadline - ir_shared
        - local - ripple``, left to right.  An installed injector's hooks
        run on every call (they count injections per call): a
        loadline-excursion fault scales the resistive drop, a VRM-droop
        fault sags the delivered rail.
        """
        total = pairwise_sum(core_currents) + uncore_current
        loadline = self._r_loadline * total
        injected_droop = 0.0
        injector = self._injector
        if injector is not None:
            scale = injector.loadline_scale(self._rail)
            if scale != 1.0:
                loadline *= scale
            injected_droop = injector.rail_droop(self._rail)
        ir_shared = self._r_shared * total
        ir_local = self._ir.coupled(core_currents)
        prefix = self.setpoint - injected_droop - loadline - ir_shared
        ripple = self.ripple
        voltages = [prefix - local - ripple for local in ir_local]
        return total, loadline, ir_shared, ir_local, voltages
